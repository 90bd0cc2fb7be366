"""Tests for parametric timing yield and the goalpost comparison."""

import numpy as np
import pytest

from repro.core.yieldmodel import goalpost_sweep, minimum_passing_period
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.sta.ssta import run_ssta


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def ssta(lib):
    d = random_logic(n_gates=150, n_levels=8, seed=11)
    return run_ssta(d, lib, Constraints.single_clock(540.0))


def gaussian_slacks(means, sigma, rho=0.0, n=20000, seed=1):
    """(n, len(means)) slack draws; every endpoint pair shares a source
    with correlation ``rho``."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((n, 1))
    own = rng.standard_normal((n, len(means)))
    z = rho * shared + np.sqrt(1.0 - rho * rho) * own
    return np.asarray(means, dtype=float) + sigma * z


class TestEndpointProbability:
    """Yield of a one-endpoint run is that endpoint's pass probability."""

    def test_huge_positive_slack_is_certain(self, synthetic_run):
        run = synthetic_run(gaussian_slacks([100.0], 2.2))
        assert run.timing_yield() == pytest.approx(1.0)

    def test_huge_negative_slack_is_doomed(self, synthetic_run):
        run = synthetic_run(gaussian_slacks([-100.0], 2.2))
        assert run.timing_yield() == pytest.approx(0.0)

    def test_zero_mean_is_coin_flip(self, synthetic_run):
        run = synthetic_run(gaussian_slacks([0.0], 2.0))
        assert run.timing_yield() == pytest.approx(0.5, abs=0.01)

    def test_sigma_scale_moves_marginal_endpoint(self, synthetic_run):
        run = synthetic_run(gaussian_slacks([3.0], 2.2))
        assert run.timing_yield(sigma_scale=0.5) > \
            run.timing_yield(sigma_scale=2.0)


class TestDesignYield:
    def test_yield_below_worst_endpoint(self, synthetic_run):
        both = gaussian_slacks([3.0, 50.0], 2.0)
        worst_only = both[:, :1]
        assert synthetic_run(both).timing_yield() <= \
            synthetic_run(worst_only).timing_yield() + 1e-9

    def test_correlated_endpoints_yield_higher_than_independent(
            self, synthetic_run):
        """Global correlation helps: endpoints fail together or pass
        together, so total yield exceeds the independent product."""
        correlated = gaussian_slacks([4.0] * 8, 3.04, rho=0.98)
        independent = gaussian_slacks([4.0] * 8, 3.04, rho=0.0)
        assert synthetic_run(correlated).timing_yield() > \
            synthetic_run(independent).timing_yield()

    def test_real_ssta_yield_in_unit_interval(self, ssta):
        for scale in (0.8, 1.0, 1.2):
            y = ssta.timing_yield(sigma_scale=scale)
            assert 0.0 <= y <= 1.0


class TestGoalpostSweep:
    @pytest.fixture(scope="class")
    def comparisons(self, lib):
        d = random_logic(n_gates=150, n_levels=8, seed=11)

        def mk(period):
            c = Constraints.single_clock(period)
            c.input_delays = {f"in{i}": 60.0 for i in range(32)}
            return c

        return goalpost_sweep(d, lib, mk,
                              [480.0, 510.0, 540.0, 570.0, 600.0])

    def test_yield_monotone_in_period(self, comparisons):
        yields = [c.yield_estimate for c in comparisons]
        assert yields == sorted(yields)

    def test_corner_wns_monotone_in_period(self, comparisons):
        wns = [c.corner_wns for c in comparisons]
        assert wns == sorted(wns)

    def test_yield_goalpost_less_conservative(self, comparisons):
        """The paper's 'new goal post': yield signoff accepts a period at
        or below what corner signoff needs."""
        corner = minimum_passing_period(comparisons, "corner")
        stat = minimum_passing_period(comparisons, "yield")
        assert corner is not None and stat is not None
        assert stat <= corner

    def test_sigma_instability_bands(self, comparisons):
        """In the signoff-relevant regime (yield above 50%, slack means
        positive) larger believed sigma means lower yield. Below 50% the
        direction legitimately reverses (extra spread pushes mass above
        zero), so only the passing side is asserted."""
        for c in comparisons:
            if c.yield_estimate < 0.5:
                continue
            assert c.yield_low_sigma <= c.yield_estimate + 1e-9
            assert c.yield_estimate <= c.yield_high_sigma + 1e-9

    def test_no_passing_period_returns_none(self, comparisons):
        hopeless = [c for c in comparisons if not c.corner_passes]
        assert minimum_passing_period(hopeless, "corner") is None

    def test_one_ssta_run_matches_a_rerun_per_period(self, lib,
                                                     comparisons):
        """Reading other periods off one sampled run is exact: setup
        slack is linear in the period, so a rerun at the period agrees."""
        d = random_logic(n_gates=150, n_levels=8, seed=11)
        c = Constraints.single_clock(540.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(32)}
        rerun = run_ssta(d, lib, c)
        at_540 = next(x for x in comparisons if x.period == 540.0)
        assert rerun.timing_yield() == pytest.approx(at_540.yield_estimate,
                                                     abs=1e-9)
