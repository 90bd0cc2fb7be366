"""Statistical STA: canonical moments gated against the Monte-Carlo
sample-vector oracle, yield and criticality invariants, and post-silicon
clock-buffer tuning on the PST benchmark block."""

import numpy as np
import pytest

from repro.errors import TimingError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints
from repro.sta.algebra import CanonicalAlgebra, CanonicalForm, VariationModel
from repro.sta.ssta import (
    SstaRun,
    monte_carlo_ssta,
    pst_benchmark_setup,
    run_ssta,
    tune_to_yield,
    yield_vs_tuning_range,
)


def make_setup(seed, n_gates=140, period=700.0):
    design = random_logic(name=f"ssta{seed}", n_inputs=10, n_outputs=10,
                          n_gates=n_gates, n_levels=7, seed=seed)
    return design, make_library(), Constraints.single_clock(period)


@pytest.fixture(scope="module")
def bench():
    """The PST benchmark block plus its canonical run (shared — the
    sampling pass is the expensive part)."""
    design, lib, cons = pst_benchmark_setup(seed=9, n_gates=160)
    run = run_ssta(design, lib, cons, n_samples=4000)
    return design, lib, cons, run


class TestMcValidation:
    """Acceptance gate: canonical endpoint moments within 5% of a
    >=2000-sample Monte-Carlo on randomized LVF designs."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_moments_within_five_percent(self, seed):
        design, lib, cons = make_setup(seed)
        model = VariationModel()
        run = run_ssta(design, lib, cons, model=model, n_samples=512)
        mc = monte_carlo_ssta(design, lib, cons, model=model,
                              n_samples=2000)
        assert len(mc.setup_moments) == len(run.endpoints)
        for ep in run.endpoints:
            mc_mean, mc_sigma = mc.setup_moments[str(ep.endpoint)]
            # Slack means sit far from zero, so normalize the mean
            # deviation by the larger of |mean| and sigma.
            denom = max(abs(mc_mean), mc_sigma, 1e-9)
            assert abs(ep.mean - mc_mean) / denom < 0.05, str(ep.endpoint)
            if mc_sigma > 0.5:  # below that, both are ~deterministic
                assert abs(ep.sigma - mc_sigma) / mc_sigma < 0.05, \
                    str(ep.endpoint)

    def test_mc_and_canonical_yield_agree(self):
        # Input delays keep input-fed flops out of hold violation, and
        # the period puts setup yield mid-range: a yield pinned at 0 or 1
        # on both sides would agree vacuously.
        design, lib, cons = make_setup(5, period=520.0)
        cons.input_delays = {f"in{i}": 60.0 for i in range(10)}
        model = VariationModel()
        run = run_ssta(design, lib, cons, model=model, n_samples=4000)
        mc = monte_carlo_ssta(design, lib, cons, model=model,
                              n_samples=2000)
        assert 0.05 < run.timing_yield() < 0.95
        assert 0.05 < mc.timing_yield < 0.95
        assert run.timing_yield() == pytest.approx(mc.timing_yield,
                                                   abs=0.05)


    def test_wired_canonical_matches_wired_mc(self):
        """Statistical SPEF: with wire-delay sigmas from the same BEOL
        stack on both sides, canonical moments and yield stay inside the
        5% gate, and wire variation only widens the worst endpoint."""
        from repro.beol.stack import default_stack

        design, lib, cons = make_setup(11)
        # Stretch the placement so wires carry real delay.
        for inst in design.instances.values():
            if inst.location is not None:
                inst.location = (inst.location[0] * 4.0, inst.location[1])
        cons.input_delays = {f"in{i}": 60.0 for i in range(10)}
        model, stack = VariationModel(), default_stack()
        run = run_ssta(design, lib, cons, model=model, n_samples=4000,
                       wire_stack=stack)
        mc = monte_carlo_ssta(design, lib, cons, model=model,
                              n_samples=2000, wire_stack=stack)
        for ep in run.endpoints:
            mc_mean, mc_sigma = mc.setup_moments[str(ep.endpoint)]
            denom = max(abs(mc_mean), mc_sigma, 1e-9)
            assert abs(ep.mean - mc_mean) / denom < 0.05, str(ep.endpoint)
            if mc_sigma > 0.5:
                assert abs(ep.sigma - mc_sigma) / mc_sigma < 0.05, \
                    str(ep.endpoint)
        assert 0.0 < mc.timing_yield < 1.0
        assert run.timing_yield() == pytest.approx(mc.timing_yield,
                                                   abs=0.05)

        base = run_ssta(design, lib, cons, model=model, n_samples=512)
        worst = min(base.endpoints, key=lambda e: e.mean)
        wired = next(e for e in run.endpoints
                     if e.endpoint == worst.endpoint)
        assert wired.sigma > worst.sigma


class TestSstaRun:
    def test_requires_lvf(self):
        from repro.liberty.lvf import strip_lvf

        design, lib, cons = make_setup(2, n_gates=40)
        assert strip_lvf(lib) > 0
        with pytest.raises(TimingError, match="LVF"):
            run_ssta(design, lib, cons)

    def test_requires_completed_run(self):
        design, lib, cons = make_setup(2, n_gates=40)
        sta = STA(design, lib, cons,
                  algebra=CanonicalAlgebra(design, VariationModel()))
        with pytest.raises(TimingError, match="run"):
            SstaRun(sta, VariationModel())

    def test_requires_canonical_algebra(self):
        design, lib, cons = make_setup(2, n_gates=40)
        sta = STA(design, lib, cons)
        sta.run()
        with pytest.raises(TimingError, match="Canonical"):
            SstaRun(sta, VariationModel())

    def test_endpoint_sigmas_positive(self, bench):
        """An endpoint behind at least one cell stage carries variation;
        a flop fed straight from an input port (wire only) does not."""
        _, _, _, run = bench
        for ep, result in zip(run.endpoints, run.setup_results):
            has_cell_stage = len(run.sta.worst_path(result).points) > 2
            assert (ep.sigma > 0.0) == has_cell_stage, str(ep.endpoint)

    def test_statistical_mean_at_most_det_slack(self, bench):
        """Clark's max never undershoots the larger mean, so a slack
        mean sits at or below the deterministic slack."""
        design, lib, cons, run = bench
        det = {str(e.endpoint): e.slack for e in STA(design, lib, cons)
               .run().setup}
        for ep in run.endpoints:
            assert ep.mean <= det[str(ep.endpoint)] + 1e-6, str(ep.endpoint)

    def test_rho_sets_global_share(self):
        """rho = 0 leaves every slack on private slots only; rho > 0
        puts part of it on the shared global sources."""
        design, lib, cons = make_setup(2, n_gates=40)

        def global_weight(rho):
            run = run_ssta(design, lib, cons, model=VariationModel(rho=rho),
                           n_samples=16)
            n = run.model.n_sources
            return max(float(np.abs(e.slack.coeffs[:n]).max())
                       for e in run.setup_results
                       if isinstance(e.slack, CanonicalForm))

        assert global_weight(0.0) == 0.0
        assert global_weight(0.8) > 0.0

    def test_criticalities_sum_to_one(self, bench):
        _, _, _, run = bench
        total = sum(ep.criticality for ep in run.endpoints)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert all(ep.criticality >= 0.0 for ep in run.endpoints)
        by_inst = run.instance_criticality()
        assert by_inst
        assert all(c >= 0.0 for c in by_inst.values())

    def test_yield_monotone_in_period(self, bench):
        _, _, _, run = bench
        curve = run.yield_vs_period([-40.0, 0.0, 40.0, 120.0])
        ys = [y for _, y in curve]
        assert ys == sorted(ys)
        assert 0.0 <= min(ys) and max(ys) <= 1.0
        assert run.timing_yield(run.period) == run.timing_yield()

    def test_render_reports_distributions(self, bench):
        _, _, _, run = bench
        text = run.render(limit=5)
        assert "sigma" in text
        assert "yield" in text


class TestPstTuning:
    def test_tuning_recovers_yield(self, bench):
        """The headline acceptance: tuned-vs-untuned yield delta > 0 and
        the default target reached on the PST benchmark block."""
        _, _, _, run = bench
        tuned = tune_to_yield(run, target_yield=0.99, tune_range=40.0)
        assert tuned.yield_gain > 0.0
        assert tuned.achieved
        assert tuned.selected  # buffers actually inserted
        assert len(tuned.steps) == len(tuned.selected)
        assert "target met" in tuned.render()

    def test_zero_range_changes_nothing(self, bench):
        _, _, _, run = bench
        untuned = tune_to_yield(run, target_yield=0.99, tune_range=0.0)
        assert untuned.tuned_yield == untuned.baseline_yield

    def test_budget_caps_insertions(self, bench):
        _, _, _, run = bench
        capped = tune_to_yield(run, target_yield=1.0, tune_range=40.0,
                               max_buffers=3)
        assert len(capped.selected) <= 3

    def test_yield_vs_tuning_range_is_monotone(self, bench):
        """The PST recovery curve: a wider tuning range never hurts."""
        _, _, _, run = bench
        results = yield_vs_tuning_range(run, [0.0, 15.0, 40.0],
                                        target_yield=0.999)
        ys = [r.tuned_yield for r in results]
        assert ys == sorted(ys)
        assert ys[-1] > ys[0]  # the recovery story, in one assertion
