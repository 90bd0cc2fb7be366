"""The pluggable timing-value algebra: scalar identity, canonical-form
arithmetic, Clark's moment-matched max against brute-force sampling, and
the sample-vector (Monte-Carlo) algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints
from repro.sta.algebra import (
    SCALAR,
    CanonicalAlgebra,
    CanonicalForm,
    MonteCarloAlgebra,
    Samples,
    ScalarAlgebra,
    VariationModel,
    scalar_of,
    sigma_of,
)

MODEL = VariationModel(n_sources=2, n_private=4)


def form(mean, coeffs, indep=0.0):
    vec = np.zeros(MODEL.dim)
    for idx, value in coeffs.items():
        vec[idx] = value
    return CanonicalForm(mean, vec, indep)


class TestScalarAlgebra:
    def test_max_min_match_builtin_selection(self):
        alg = ScalarAlgebra()
        # Python's max(a, b) returns a on ties; the engine's merge order
        # depends on that exact selection, so the algebra must match.
        a, b = 5.0, 5.0
        assert alg.max(a, b) is max(a, b)
        assert alg.min(a, b) is min(a, b)
        assert alg.max(3.0, 7.0) == 7.0
        assert alg.min(3.0, 7.0) == 3.0
        assert alg.max(-math.inf, 2.0) == 2.0
        assert alg.min(math.inf, 2.0) == 2.0

    def test_generic_ops_and_le(self):
        alg = ScalarAlgebra()
        assert alg.add(1.5, 2.0) == 3.5
        assert alg.sub(1.5, 2.0) == -0.5
        assert alg.scale(1.5, 2.0) == 3.0
        assert alg.le(1.0, 1.0)
        assert not alg.le(1.1, 1.0)
        assert alg.lift(4.0) == 4.0
        assert alg.to_scalar(4.0) == 4.0

    def test_arc_delay_is_identity(self):
        assert SCALAR.arc_delay(None, "rise", 10.0, 5.0, "late", 42.0) \
            == 42.0

    def test_default_sta_is_scalar_and_bit_identical(self):
        """An explicit ScalarAlgebra run renders byte-for-byte the same
        report as the default (no-algebra) run."""
        design = random_logic(name="alg", n_gates=80, n_levels=6, seed=4)
        lib = make_library()
        cons = Constraints.single_clock(700.0)
        default = STA(design, lib, cons).run()
        explicit = STA(design, lib, cons, algebra=ScalarAlgebra()).run()
        assert default.render_full() == explicit.render_full()
        assert default.content_digest() == explicit.content_digest()


class TestCanonicalForm:
    def test_arithmetic_composes_moments(self):
        a = form(10.0, {0: 3.0}, indep=4.0)
        b = form(5.0, {0: 1.0, 2: 2.0})
        s = a + b
        assert s.mean == 15.0
        assert s.coeffs[0] == 4.0 and s.coeffs[2] == 2.0
        assert s.indep == 4.0  # RSS with zero
        d = a - b
        assert d.mean == 5.0
        assert d.coeffs[0] == 2.0 and d.coeffs[2] == -2.0
        k = a * 2.0
        assert k.mean == 20.0 and k.sigma() == pytest.approx(2 * a.sigma())
        n = -a
        assert n.mean == -10.0 and n.sigma() == pytest.approx(a.sigma())

    def test_scalar_mixing(self):
        a = form(10.0, {1: 2.0})
        assert (a + 5.0).mean == 15.0
        assert (5.0 + a).mean == 15.0
        assert (a - 5.0).mean == 5.0
        assert (5.0 - a).mean == -5.0
        assert (5.0 - a).coeffs[1] == -2.0

    def test_variance_and_covariance(self):
        a = form(0.0, {0: 3.0}, indep=4.0)
        assert a.variance() == pytest.approx(25.0)
        assert a.sigma() == pytest.approx(5.0)
        b = form(0.0, {0: 2.0, 1: 1.0})
        # Only the shared dimension correlates; indep never does.
        assert a.covariance(b) == pytest.approx(6.0)

    def test_sigma_combines_shared_and_residual(self):
        a = form(10.0, {0: 4.0}, indep=3.0)
        assert a.sigma() == pytest.approx(5.0)

    def test_add_rss_combines_residuals(self):
        s = form(10.0, {}, indep=3.0) + form(5.0, {}, indep=4.0)
        assert s.mean == pytest.approx(15.0)
        assert s.indep == pytest.approx(5.0)

    def test_add_shared_sensitivities_linearly(self):
        s = form(0.0, {0: 2.0}) + form(1.0, {0: 3.0})
        assert s.coeffs[0] == pytest.approx(5.0)
        assert s.sigma() == pytest.approx(5.0)

    def test_orders_and_formats_by_mean(self):
        a = form(10.0, {0: 100.0})  # huge sigma, small mean
        b = form(11.0, {})
        assert a < b and b > a and a <= b and b >= a
        assert float(a) == 10.0
        assert f"{a:7.2f}" == f"{10.0:7.2f}"
        assert not math.isinf(a)
        assert sorted([b, a], key=lambda v: v) == [a, b]

    def test_scalar_of_sigma_of(self):
        a = form(10.0, {0: 3.0}, indep=4.0)
        assert scalar_of(a) == 10.0
        assert sigma_of(a) == pytest.approx(5.0)
        assert scalar_of(7.5) == 7.5
        assert sigma_of(7.5) == 0.0


class TestClarkMax:
    """Clark's moment-matched max against dense sampling of the same
    pair of correlated canonical forms."""

    def sample_pair(self, a, b, n=200_000):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((n, MODEL.dim))
        return (a.sample(z, rng.standard_normal(n)),
                b.sample(z, rng.standard_normal(n)))

    @pytest.mark.parametrize("a,b", [
        (form(100.0, {0: 8.0}, indep=3.0), form(98.0, {0: 5.0, 1: 6.0})),
        (form(50.0, {1: 10.0}), form(50.0, {2: 10.0})),      # tie, indep
        (form(30.0, {0: 4.0}), form(10.0, {0: 4.0})),         # far apart
        (form(100.0, {2: 1.0}), form(0.0, {3: 1.0})),         # dominant
        (form(10.0, {2: 3.0}), form(12.0, {3: 2.0})),         # overlap
    ])
    def test_matches_sampled_moments(self, a, b):
        alg = CanonicalAlgebra(None, MODEL)
        m = alg.max(a, b)
        av, bv = self.sample_pair(a, b)
        ref = np.maximum(av, bv)
        assert m.mean == pytest.approx(float(ref.mean()), abs=0.15)
        assert m.sigma() == pytest.approx(float(ref.std()), rel=0.03,
                                          abs=0.15)

    def test_equal_independent_inputs_mean_exceeds_both(self):
        """E[max of two equal iid Gaussians] = mu + sigma/sqrt(pi)."""
        alg = CanonicalAlgebra(None, MODEL)
        m = alg.max(form(10.0, {}, indep=2.0), form(10.0, {}, indep=2.0))
        assert m.mean == pytest.approx(10.0 + 2.0 / math.sqrt(math.pi),
                                       rel=1e-3)

    def test_min_is_negated_max(self):
        alg = CanonicalAlgebra(None, MODEL)
        a = form(100.0, {0: 8.0})
        b = form(98.0, {1: 6.0})
        lo = alg.min(a, b)
        hi = alg.max(-a, -b)
        assert lo.mean == pytest.approx(-hi.mean)
        assert lo.sigma() == pytest.approx(hi.sigma())

    def test_infinite_sentinels_pass_through(self):
        alg = CanonicalAlgebra(None, MODEL)
        a = form(100.0, {0: 8.0})
        assert alg.max(-math.inf, a) is a
        assert alg.max(a, -math.inf) is a
        assert alg.min(math.inf, a) is a
        assert alg.min(a, math.inf) is a
        assert alg.max(math.inf, a) == math.inf
        assert alg.min(-math.inf, a) == -math.inf

    forms = st.builds(
        lambda mean, g, slot, private, indep: form(
            mean, {0: g, slot: private}, indep),
        mean=st.floats(-100.0, 100.0),
        g=st.floats(0.0, 10.0),
        slot=st.integers(MODEL.n_sources, MODEL.dim - 1),
        private=st.floats(0.01, 20.0),
        indep=st.floats(0.0, 5.0),
    )

    @given(a=forms, b=forms)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        alg = CanonicalAlgebra(None, MODEL)
        m1, m2 = alg.max(a, b), alg.max(b, a)
        assert m1.mean == pytest.approx(m2.mean, rel=1e-6, abs=1e-6)
        assert m1.sigma() == pytest.approx(m2.sigma(), rel=1e-5, abs=1e-6)

    @given(a=forms, b=forms)
    @settings(max_examples=50, deadline=None)
    def test_sigma_bounded_by_inputs(self, a, b):
        m = CanonicalAlgebra(None, MODEL).max(a, b)
        assert m.sigma() <= max(a.sigma(), b.sigma()) + 1e-6

    @given(a=forms, b=forms)
    @settings(max_examples=50, deadline=None)
    def test_mean_at_least_both_means(self, a, b):
        m = CanonicalAlgebra(None, MODEL).max(a, b)
        assert m.mean >= max(a.mean, b.mean) - 1e-9

    @given(a=forms, shift=st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, a, shift):
        alg = CanonicalAlgebra(None, MODEL)
        b = form(a.mean - 10.0, {MODEL.n_sources: 2.0})
        m0 = alg.max(a, b)
        m1 = alg.max(a + shift, b + shift)
        assert m1.mean - m0.mean == pytest.approx(shift, abs=1e-6)
        assert m1.sigma() == pytest.approx(m0.sigma(), abs=1e-6)

    def test_degenerate_cases_select(self):
        alg = CanonicalAlgebra(None, MODEL)
        # Zero variance on both sides: plain selection.
        assert alg.max(form(3.0, {}), form(5.0, {})).mean == 5.0
        # Perfectly correlated (theta ~ 0): larger mean dominates.
        a = form(10.0, {0: 4.0})
        b = form(9.0, {0: 4.0})
        m = alg.max(a, b)
        assert m.mean == 10.0 and m.sigma() == pytest.approx(4.0)


class TestVariationModel:
    def test_dims_and_determinism(self):
        m = VariationModel(n_sources=4, n_private=512)
        assert m.dim == 516
        assert 0 <= m.source_of("NAND2_X1") < 4
        assert m.source_of("NAND2_X1") == m.source_of("NAND2_X1")
        slot = m.slot_of("u1", "A", "Y", "rise")
        assert 4 <= slot < 516
        assert slot == m.slot_of("u1", "A", "Y", "rise")
        # Different arcs land on (generally) different slots.
        slots = {m.slot_of(f"u{i}", "A", "Y", "rise") for i in range(50)}
        assert len(slots) > 40


class TestMonteCarloAlgebra:
    def test_elementwise_max_and_broadcast(self):
        alg = MonteCarloAlgebra(None, MODEL, n_samples=4)
        a = Samples(np.array([1.0, 5.0, 2.0, 8.0]))
        b = Samples(np.array([3.0, 3.0, 3.0, 3.0]))
        m = alg.max(a, b)
        assert list(m.vec) == [3.0, 5.0, 3.0, 8.0]
        lo = alg.min(a, 3.0)
        assert list(lo.vec) == [1.0, 3.0, 2.0, 3.0]
        assert list(alg.samples_of(2.0)) == [2.0] * 4
        assert alg.max(-math.inf, a) is a

    def test_samples_order_by_mean(self):
        a = Samples(np.array([0.0, 10.0]))   # mean 5
        b = Samples(np.array([4.0, 4.1]))    # mean 4.05
        assert b < a and a > b
        assert float(a) == pytest.approx(5.0)

    def test_same_seed_same_draws(self):
        one = MonteCarloAlgebra(None, MODEL, n_samples=16)
        two = MonteCarloAlgebra(None, MODEL, n_samples=16)
        assert np.array_equal(one.z, two.z)
