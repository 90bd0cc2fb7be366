"""Integration tests: spans/metrics wired through the real pipelines.

These exercise the *instrumented sites* — closure loop, signoff
scheduler, incremental timer, supervisor — rather than the obs
primitives (covered in the sibling test modules).
"""

import pytest

from repro.core.closure import ClosureConfig, ClosureEngine
from repro.core.signoff import SignoffPolicy, evaluate_signoff
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic, tiny_design
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.export import chrome_trace, summarize
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.sta import Constraints
from repro.sta.mcmm import Scenario, ScenarioSet
from repro.sta.scheduler import ScenarioResultCache, SignoffScheduler


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def lib_ss():
    return make_library(
        LibraryCondition(process="ss", vdd=0.72, temp_c=125.0)
    )


def constrained_design(period=520.0, seed=3, n_gates=300):
    d = random_logic(n_gates=n_gates, n_levels=10, seed=seed)
    c = Constraints.single_clock(period)
    c.input_delays = {p: 60.0 for p in d.input_ports() if p != "clk"}
    return d, c


def make_scenarios(lib, lib_ss):
    c = Constraints.single_clock(520.0)
    c.input_delays = {f"in{i}": 60.0 for i in range(16)}
    return [
        Scenario("tt_typ", lib, c),
        Scenario("ss_cw", lib_ss, c, beol_corner_name="cw", temp_c=125.0),
        Scenario("ss_rcw", lib_ss, c, beol_corner_name="rcw", temp_c=125.0),
    ]


def make_design(seed=9):
    return random_logic(n_inputs=16, n_outputs=16, n_gates=120,
                        n_levels=6, seed=seed)


def children(spans, parent):
    return [s for s in spans if s.parent_id == parent.span_id]


class TestClosureTracing:
    @pytest.fixture(scope="class")
    def traced(self, lib):
        d, c = constrained_design()
        tracer = Tracer()
        with obs_tracing.use(tracer):
            report = ClosureEngine(d, lib, c).run(
                ClosureConfig(max_iterations=5)
            )
        return tracer.spans(), report

    def test_span_tree_nests_iterations_stages_retimes(self, traced):
        spans, report = traced
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["closure"]
        root = roots[0]
        iterations = [s for s in children(spans, root)
                      if s.name == "iteration"]
        assert len(iterations) == len(report.iterations)
        assert [s.attrs["iteration"] for s in iterations] == \
            [r.iteration for r in report.iterations]
        # Every stage hangs off an iteration; every retime off a stage.
        stages = [s for s in spans if s.name == "stage"]
        assert stages, "closure on a violating design must run fix stages"
        iteration_ids = {s.span_id for s in iterations}
        assert all(s.parent_id in iteration_ids for s in stages)
        retimes = [s for s in spans if s.name == "retime"]
        stage_ids = {s.span_id for s in stages}
        assert retimes and all(s.parent_id in stage_ids for s in retimes)
        # The timer's cone/full spans nest under the retime spans.
        leaf_names = {"retime_cone", "full_update", "sta_build"}
        retime_ids = {s.span_id for s in retimes}
        leaves = [s for s in spans if s.name in leaf_names
                  and s.parent_id in retime_ids]
        assert leaves, "retime spans must contain timer-level spans"

    def test_fix_spans_record_engines(self, traced):
        spans, report = traced
        fix_spans = [s for s in spans if s.name == "fix"]
        engines_traced = {s.attrs["engine"] for s in fix_spans
                         if s.attrs.get("edits", 0) > 0}
        engines_reported = {name for r in report.iterations
                            for name in r.edits}
        assert engines_reported <= engines_traced

    def test_report_timing_fields_are_span_backed(self, traced):
        spans, report = traced
        retime_total = sum(s.duration_s for s in spans
                           if s.name == "retime" and "error" not in s.attrs)
        assert report.timing_wall_s == pytest.approx(retime_total, rel=1e-6)
        for record in report.iterations:
            assert record.retime_s >= 0.0
        assert sum(r.retime_s for r in report.iterations) == \
            pytest.approx(report.timing_wall_s, rel=1e-6)

    def test_summarize_sees_the_phases(self, traced):
        spans, _ = traced
        summary = summarize(chrome_trace(spans)["traceEvents"])
        for phase in ("closure", "iteration", "stage", "retime"):
            assert summary.phase(phase) is not None

    def test_disabled_tracing_gives_identical_render(self, lib):
        d1, c1 = constrained_design(seed=11, n_gates=150)
        d2, c2 = constrained_design(seed=11, n_gates=150)
        tracer = Tracer()
        with obs_tracing.use(tracer):
            traced = ClosureEngine(d1, lib, c1).run(
                ClosureConfig(max_iterations=3)
            )
        with obs_tracing.use(None):
            plain = ClosureEngine(d2, lib, c2).run(
                ClosureConfig(max_iterations=3)
            )
        # Wall-clock fields differ run to run; the trajectory and the
        # render *shape* must not.
        assert len(traced.iterations) == len(plain.iterations)
        for a, b in zip(traced.iterations, plain.iterations):
            assert (a.wns_setup, a.edits) == (b.wns_setup, b.edits)
            if a.total_edits:  # iterations that retimed have real walls
                assert a.retime_s > 0.0 and b.retime_s > 0.0
        assert traced.converged == plain.converged
        assert len(tracer) > 0

    def test_closure_metrics(self, lib):
        d, c = constrained_design(seed=11, n_gates=150)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            report = ClosureEngine(d, lib, c).run(
                ClosureConfig(max_iterations=3)
            )
        assert registry.counter("closure.iterations").value == \
            len(report.iterations)
        total_edits = sum(r.total_edits for r in report.iterations)
        assert registry.counter("closure.edits").value == total_edits
        hist = registry.get("closure.retime_wall_s")
        assert hist is not None and hist.total > 0


class TestSignoffTracing:
    def test_worker_spans_come_home(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        tracer = Tracer()
        with obs_tracing.use(tracer):
            outcome = SignoffScheduler(
                scenarios, jobs=2, executor="thread"
            ).signoff(make_design())
        spans = tracer.spans()
        assert outcome.reports
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["signoff"]
        (fanout,) = by_name["scenario_fanout"]
        assert fanout.parent_id == root.span_id
        scenario_spans = by_name["scenario"]
        assert {s.attrs["scenario"] for s in scenario_spans} == \
            {s.name for s in scenarios}
        assert all(s.parent_id == fanout.span_id for s in scenario_spans)
        scenario_ids = {s.span_id for s in scenario_spans}
        assert all(s.parent_id in scenario_ids
                   for s in by_name["sta_run"])

    def test_vector_signoff_spans_split_compile_and_reports(self, lib,
                                                            lib_ss):
        """The vector engine's layers are named spans: compile phases
        nest under ``kernel_compile`` and one ``kernel_report`` per
        corner nests under ``vector_signoff``, so report building does
        not hide in the signoff span's self time."""
        scenarios = make_scenarios(lib, lib_ss)
        tracer = Tracer()
        with obs_tracing.use(tracer):
            outcome = SignoffScheduler(
                scenarios, jobs=1, engine="vector"
            ).signoff(make_design())
        assert len(outcome.reports) == len(scenarios)
        spans = tracer.spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        (vector,) = by_name["vector_signoff"]
        (compile_span,) = by_name["kernel_compile"]
        assert compile_span.parent_id == vector.span_id
        phases = [s.name for s in children(spans, compile_span)]
        assert phases == ["kernel_compile.index", "kernel_compile.tables",
                          "kernel_compile.statics"]
        reports = by_name["kernel_report"]
        assert [s.attrs["corner"] for s in reports] == \
            [s.name for s in scenarios]
        assert all(s.parent_id == vector.span_id for s in reports)
        summary = summarize(chrome_trace(spans)["traceEvents"])
        assert summary.phase("kernel_report").count == len(scenarios)
        for name in phases:
            assert summary.phase(name) is not None

    def test_span_ids_deterministic_across_jobs_counts(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)

        def run(jobs):
            tracer = Tracer()
            with obs_tracing.use(tracer):
                SignoffScheduler(
                    scenarios, jobs=jobs, executor="thread"
                ).signoff(make_design())
            return [(s.span_id, s.parent_id, s.name,
                     s.attrs.get("scenario"))
                    for s in tracer.spans()]

        # jobs=1 legitimately skips isolate_design spans (serial runs
        # need no design isolation); parallel runs must match exactly.
        assert run(2) == run(3)
        serial = [row for row in run(1) if row[2] != "isolate_design"]
        parallel = [row[2:] for row in run(2)
                    if row[2] != "isolate_design"]
        assert [row[2:] for row in serial] == parallel

    def test_untraced_signoff_records_no_spans(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        with obs_tracing.use(None):
            outcome = SignoffScheduler(scenarios, jobs=2).signoff(
                make_design()
            )
        assert outcome.reports  # plain run unaffected


class TestSignoffMetricsAndCacheFooter:
    def test_cache_metrics_and_render_footer(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache(verify=False)
        scheduler = SignoffScheduler(scenarios, jobs=1, cache=cache)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            cold = scheduler.signoff(design)
            warm = scheduler.signoff(design)
        assert registry.counter("signoff.cache.misses").value == \
            len(scenarios)
        assert registry.counter("signoff.cache.hits").value == \
            len(scenarios)
        assert registry.counter("signoff.passes").value == 2
        # The render footer surfaces the cache outcome of *this* pass.
        assert "cache: 0 hit(s) / 3 miss(es)" in cold.render("setup")
        assert "cache: 3 hit(s) / 0 miss(es)" in warm.render("setup")
        assert warm.cache_stats.hits == 3

    def test_render_without_cache_has_no_footer(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        outcome = SignoffScheduler(scenarios, jobs=1).signoff(make_design())
        assert outcome.cache_stats is None
        assert "cache:" not in outcome.render("setup")


class TestEvaluateSignoffSpan:
    def test_verdict_span_and_counters(self, lib):
        c = Constraints.single_clock(900.0)
        policy = SignoffPolicy(
            scenarios=ScenarioSet([Scenario("tt", lib, c)])
        )
        tracer, registry = Tracer(), MetricsRegistry()
        with obs_tracing.use(tracer), obs_metrics.use(registry):
            verdict = evaluate_signoff(tiny_design(), policy)
        names = [s.name for s in tracer.spans()]
        assert "evaluate_signoff" in names
        top = [s for s in tracer.spans()
               if s.name == "evaluate_signoff"][0]
        assert top.attrs["passed"] == verdict.passed
        assert registry.counter("signoff.verdicts").value == 1
        key = ("signoff.verdicts.passed" if verdict.passed
               else "signoff.verdicts.failed")
        assert registry.counter(key).value == 1


class TestJournalDegradationSurfaced:
    def test_signoff_continues_when_journal_dies(self, lib, lib_ss,
                                                 tmp_path, monkeypatch):
        from repro.runtime.journal import RunJournal

        scenarios = make_scenarios(lib, lib_ss)
        journal = RunJournal(tmp_path / "run.journal")
        registry = MetricsRegistry()
        # Kill the filesystem under the journal after construction.
        monkeypatch.setattr(
            "repro.runtime.journal.os.fsync",
            lambda fd: (_ for _ in ()).throw(OSError(28, "disk full")),
        )
        scheduler = SignoffScheduler(scenarios, jobs=1, journal=journal)
        with obs_metrics.use(registry):
            outcome = scheduler.signoff(make_design())
        # Every scenario still computed; the degradation is surfaced.
        assert sorted(outcome.reports) == sorted(s.name
                                                 for s in scenarios)
        assert not journal.available
        assert any("checkpoint unavailable" in e for e in outcome.events)
        assert registry.counter("runtime.journal.io_errors").value >= 1
