"""Workload ``mcmm_signoff``: batch signoff across the 9-view corner matrix.

The calls ``repro signoff --design aes --gates 2000 --engine vector``
makes: lint every scenario with ``ensure_valid``, then one
``SignoffScheduler.signoff`` pass over the nine ``standard_scenario_set``
views of ``aes_like`` (~2.3k cells) with a fresh ``ScenarioResultCache``.
One closed-loop caller repeats the pass. The seed permutes the scenario
order, which is the corner order of the compiled kernel batch.

Unit of work: one full pass (lint + signoff). Cache-hot read: a warm
re-signoff on the pass's own cache (every scenario a hit).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List

import common
from common import (Deadline, Ledger, host, median, sketch, sketch_match,
                    spanned, timed, trimmed_mean)

GATES = 2000
DESIGN_SEED = 1
PERIOD = 500.0
INPUT_DELAY = 60.0
HOT_READS = 3
DIGEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests", "mcmm_reference.json")


@dataclass
class Inputs:
    design: object
    scenarios: list
    stack: object
    digest: Dict


def _scenarios():
    from repro.netlist.generators import aes_like

    design = aes_like(seed=DESIGN_SEED, n_sboxes=max(2, GATES // 60))
    return design, common.standard_scenarios(design, PERIOD, INPUT_DELAY)


def setup(seed: int, workdir: str, trace: bool = False) -> Inputs:
    design, scenario_set = _scenarios()
    scenarios = list(scenario_set.scenarios)
    random.Random(seed).shuffle(scenarios)
    with open(DIGEST, "r", encoding="utf-8") as handle:
        digest = json.load(handle)
    return Inputs(design, scenarios, scenario_set.stack, digest)


def teardown(inp: Inputs) -> None:
    pass


def peak_rss_mb(inp: Inputs) -> float:
    return common.peak_rss_mb()


def _scheduler(inp: Inputs, engine: str = "vector"):
    from repro.runtime import RetryPolicy
    from repro.sta.scheduler import ScenarioResultCache, SignoffScheduler

    return SignoffScheduler(
        inp.scenarios, stack=inp.stack, jobs=1, executor="thread",
        cache=ScenarioResultCache(verify=True),
        policy=RetryPolicy(retries=2, timeout_s=None),
        keep_going=False, engine=engine,
    )


def lint(inp: Inputs) -> None:
    from repro.validate import ensure_valid

    for scenario in inp.scenarios:
        ensure_valid(inp.design, scenario.library, scenario.constraints)


def signoff_pass(inp: Inputs):
    """One pass as the CLI runs it; returns (scheduler, outcome)."""
    lint(inp)
    scheduler = _scheduler(inp)
    return scheduler, scheduler.signoff(inp.design)


def report_sketches(report) -> Dict:
    return {
        mode: sketch((f"{e.kind}:{e.endpoint}", e.slack)
                     for e in report.endpoints(mode))
        for mode in ("setup", "hold")
    }


def check_outcome(inp: Inputs, outcome, ledger: Ledger) -> None:
    """Every scenario against the reference digest; no silent fallback."""
    ledger.op(not outcome.events and not outcome.degraded,
                 f"signoff events {outcome.events} degraded "
                 f"{outcome.degraded} (vector fallback or failure)")
    for scenario in inp.scenarios:
        report = outcome.reports.get(scenario.name)
        want = inp.digest["scenarios"][scenario.name]
        got = report_sketches(report) if report is not None else None
        ledger.op(
            got is not None and all(
                sketch_match(got[m], want[m], tol=1e-8)
                for m in ("setup", "hold")),
            f"{scenario.name}: endpoint slacks differ from the "
            "reference digest",
        )


def window(inp: Inputs, seconds: float, ledger: Ledger) -> Dict[str, float]:
    """Closed-loop passes for ``seconds``; returns the work/hot samples
    as wall seconds plus their spans (for host-speed scaling)."""
    passes: List[tuple] = []
    hots: List[tuple] = []
    deadline = Deadline(seconds)
    while True:
        host.mark()
        (scheduler, outcome), span = spanned(signoff_pass, inp)
        passes.append(span)
        ledger.op(True)
        for _ in range(HOT_READS):
            host.mark()
            warm, span = spanned(scheduler.signoff, inp.design)
            hots.append(span)
            ledger.op(len(warm.cache_hits) == len(inp.scenarios)
                      and all(warm.reports[n] is outcome.reports[n]
                              for n in outcome.reports),
                      "warm re-signoff missed the result cache")
        host.mark()
        check_outcome(inp, outcome, ledger)
        if not deadline.left():
            break
    return {"passes": [b - a for a, b in passes], "pass_spans": passes,
            "hot_spans": hots, "scenarios": len(inp.scenarios)}


def reduce(samples: Dict, ledger: Ledger, prefix: str):
    """(work, hot, work_per_s) of a window in host-scaled seconds;
    ``signoff_s`` to the ledger."""
    work = host.scaled_all(samples["pass_spans"])
    hot = host.scaled_all(samples["hot_spans"])
    ledger.put(prefix + "signoff_s", median(work), "s", len(work))
    return work, hot, samples["scenarios"] / trimmed_mean(work)


def layers(inp: Inputs, traced: Dict, untraced: Dict, tracer, registry,
           ledger: Ledger, reps: int = 2) -> None:
    """Per-layer split of one pass, measured by calling each layer; the
    traced window gives the pass wall and the fallback counter."""
    from repro.parasitics.synthesis import ParasiticExtractor
    from repro.sta.kernel import CornerSpec, compile_kernel

    design = inp.design
    constraints = inp.scenarios[0].constraints
    samples = {k: [] for k in ("lint", "compile", "extract", "batch",
                               "report")}
    for _ in range(reps):
        samples["lint"].append(timed(lint, inp)[1])
        specs = [CornerSpec.from_scenario(s, inp.stack)
                 for s in inp.scenarios]
        kernel, dt = timed(compile_kernel, design, constraints, specs,
                           stack=inp.stack)
        samples["compile"].append(dt)
        t0 = time.perf_counter()
        for spec in specs:
            ParasiticExtractor(design, spec.library, inp.stack,
                               spec.beol_corner,
                               temp_c=spec.temp_c).extract_all()
        samples["extract"].append(time.perf_counter() - t0)
        samples["batch"].append(timed(kernel.run)[1])
        t0 = time.perf_counter()
        for ci in range(len(specs)):
            kernel.report(ci)
        samples["report"].append(time.perf_counter() - t0)
    stats = kernel.stats()

    traced_pass_s = median(traced["passes"])
    counter = registry.get("kernel.fallbacks")
    lint_s = median(samples["lint"])
    compile_s = median(samples["compile"])
    batch_s = median(samples["batch"])
    report_s = median(samples["report"])
    ledger.put("validate.lint_s", lint_s, "s", reps)
    ledger.put("kernel.compile_s", compile_s, "s", reps)
    ledger.put("parasitics.extract_s", median(samples["extract"]), "s",
               reps)
    ledger.put("kernel.batch_s", batch_s, "s", reps)
    ledger.put("kernel.report_s", report_s, "s", reps)
    ledger.put("kernel.batch_share", batch_s / traced_pass_s, "ratio", reps)
    # The scheduler's own time is the residue of the traced pass, so the
    # layers sum to the traced pass wall; what is left of the untraced
    # pass wall is time no layer metric covers.
    ledger.put("scheduler.self_s",
               traced_pass_s - (lint_s + compile_s + batch_s + report_s),
               "s", reps)
    ledger.put("mcmm_signoff.remainder_s",
               median(untraced["passes"]) - traced_pass_s, "s", reps)
    ledger.put("kernel.corners", stats["corners"], "count", 1)
    ledger.put("kernel.timing_pins", stats["pins"], "count", 1)
    ledger.put("kernel.edges",
               stats["net_expansions"] + stats["cell_expansions"],
               "count", 1)
    ledger.put("kernel.fallbacks",
               counter.value if counter is not None else 0.0, "count", 1)


def regenerate() -> None:
    """Write the reference-engine digest (run from the repo root)."""
    design, scenario_set = _scenarios()
    inp = Inputs(design, list(scenario_set.scenarios), scenario_set.stack,
                 {})
    outcome = _scheduler(inp, engine="reference").signoff(design)
    if outcome.events or outcome.degraded:
        raise RuntimeError(f"reference signoff not clean: {outcome.events}")
    digest = {
        "what": (f"reference-engine endpoint slacks, aes_like seed "
                 f"{DESIGN_SEED} gates {GATES} period {PERIOD}"),
        "scenarios": {name: report_sketches(report)
                      for name, report in sorted(outcome.reports.items())},
    }
    os.makedirs(os.path.dirname(DIGEST), exist_ok=True)
    with open(DIGEST, "w", encoding="utf-8") as handle:
        json.dump(digest, handle, indent=1, sort_keys=True)
        handle.write("\n")
