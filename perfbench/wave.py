"""Workload ``campaign_wave``: many tiny designs through the campaign engine.

``CampaignRunner`` with the CLI defaults (jobs 2, thread executor, chunk
8) over a seeded 24-config sample of ``demo_spec()``: one config per
(block, recipe, tune_tau) stratum, so every pass covers all 3 blocks,
all 4 recipes and tau in {0, 30}; the seed picks period, margin and
derate inside each stratum. A pass writes into a fresh SQLite store.

Unit of work: one pass, three ``CampaignRunner.run`` waves over 8
configs each (dispatched, signed off and committed); throughput counts
configs per second of wave time. Cache-hot read: re-running the
pass on its own store, where every config resumes from the DB, and
reading its rows and Pareto front back.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import common
from common import (Deadline, Ledger, attribute, host, median, sketch,
                    sketch_match, spanned, spans_from_tracer, timed,
                    trimmed_mean)

CHUNK = 8
JOBS = 2
HOT_READS = 20
PROBE_PERIOD = 420.0
DIGEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests", "campaign_rows.json")
_FLOATS = ("wns", "tns", "hold_wns", "power_mw", "leakage_mw",
           "dynamic_mw", "area_um2", "tyield")
_EXACT = ("status", "source", "cells", "pst_buffers", "eco_edits")


@dataclass
class Inputs:
    spec: object
    sample: list
    workdir: str
    digest: Dict


def setup(seed: int, workdir: str, trace: bool = False) -> Inputs:
    from repro.campaign import demo_spec

    spec = demo_spec()
    strata = defaultdict(list)
    for config in spec.expand():
        strata[(config.level("block"), config.level("recipe"),
                config.level("tune_tau"))].append(config)
    rng = random.Random(seed)
    sample = [rng.choice(strata[key]) for key in sorted(strata)]
    with open(DIGEST, "r", encoding="utf-8") as handle:
        digest = json.load(handle)
    return Inputs(spec, sample, workdir, digest)


def teardown(inp: Inputs) -> None:
    pass


def peak_rss_mb(inp: Inputs) -> float:
    return common.peak_rss_mb()


def _runner(spec, store):
    from repro.campaign import CampaignRunner
    from repro.runtime import RetryPolicy

    return CampaignRunner(spec, store, jobs=JOBS, executor="thread",
                          policy=RetryPolicy(retries=1, timeout_s=None),
                          chunk=CHUNK)


def row_digest(row: Dict, scenario_rows: List[Dict]) -> Dict:
    """Deterministic columns of one stored config (``wall_s`` excluded)."""
    floats, exact = [], {}
    for col in _FLOATS:
        value = row[col]
        if value is None or not math.isfinite(value):
            exact[col] = value if value is None else repr(value)
        else:
            floats.append((col, float(value)))
    for col in _EXACT:
        exact[col] = row[col]
    for srow in scenario_rows:
        name = srow["scenario"]
        for col in ("wns_setup", "tns_setup", "wns_hold", "tns_hold"):
            value = srow[col]
            if value is None or not math.isfinite(value):
                exact[f"{name}.{col}"] = repr(value)
            else:
                floats.append((f"{name}.{col}", float(value)))
        for col in ("violations_setup", "violations_hold"):
            exact[f"{name}.{col}"] = srow[col]
    return {
        "exact": hashlib.sha256(
            json.dumps(exact, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16],
        "floats": sketch(floats),
    }


def store_rows(store, campaign: str) -> Dict[str, tuple]:
    """fingerprint -> (config row, scenario rows) of every stored config."""
    return {row["fingerprint"]: (row, store.scenario_rows(row["fingerprint"]))
            for row in store.rows(campaign)}


def digests_of(rows: Dict[str, tuple]) -> Dict[str, Dict]:
    return {fp: row_digest(row, srows) for fp, (row, srows) in rows.items()}


def one_pass(inp: Inputs, ledger: Ledger, waves: List[tuple],
             hots: List[tuple]):
    """Sample into a fresh store wave by wave, appending the spans of
    its waves and cache-hot re-runs; returns (wall, rows)."""
    from repro.campaign import CampaignStore

    fd, path = tempfile.mkstemp(suffix=".db", dir=inp.workdir)
    os.close(fd)
    try:
        with CampaignStore(path) as store:
            runner = _runner(inp.spec, store)
            wall = 0.0
            for start in range(0, len(inp.sample), CHUNK):
                wave = inp.sample[start:start + CHUNK]
                host.mark()
                outcome, span = spanned(runner.run, configs=wave)
                waves.append(span)
                wall += span[1] - span[0]
                ledger.op(len(outcome.computed) == len(wave)
                          and not outcome.degraded,
                          f"wave degraded: {outcome.degraded}")
            for _ in range(HOT_READS):
                # A mark per read: reads this short would otherwise share
                # a few scale factors, and p10 would pick the lowest.
                host.mark()
                (outcome, (got, front)), span = spanned(_hot_read, runner,
                                                        store, inp)
                hots.append(span)
                ledger.op(not outcome.computed
                          and len(outcome.resumed) == len(inp.sample)
                          and len(got) == len(inp.sample) and front,
                          "re-run did not resume every config")
            host.mark()
            rows = store_rows(store, inp.spec.name)
    finally:
        os.remove(path)
    return wall, rows


def _hot_read(runner, store, inp: Inputs):
    """Re-run the sample (every config resumes), then read its rows and
    Pareto front back as ``repro campaign pareto`` does."""
    from repro.campaign import pareto_front

    outcome = runner.run(configs=inp.sample)
    rows = store.rows(inp.spec.name)
    return outcome, (rows, pareto_front(rows))


def check_pass(inp: Inputs, digests: Dict, first: Dict,
               ledger: Ledger) -> None:
    ledger.op(digests == first, "store rows differ between passes")
    for config in inp.sample:
        got = digests.get(config.fingerprint)
        want = inp.digest["configs"].get(config.fingerprint)
        ledger.op(
            got is not None and want is not None
            and got["exact"] == want["exact"]
            and sketch_match(got["floats"], want["floats"], tol=1e-8),
            f"config {config.index} ({config.fingerprint[:12]}) differs "
            "from the frozen digest")


def window(inp: Inputs, seconds: float, ledger: Ledger) -> Dict:
    waves: List[tuple] = []
    hots: List[tuple] = []
    passes: List[float] = []
    first = None
    deadline = Deadline(seconds)
    while True:
        wall, rows = one_pass(inp, ledger, waves, hots)
        passes.append(wall)
        digests = digests_of(rows)
        first = first if first is not None else digests
        check_pass(inp, digests, first, ledger)
        if not deadline.left():
            break
    return {"wave_spans": waves, "hot_spans": hots, "passes": passes,
            "rows": rows, "configs": len(inp.sample)}


# ---------------------------------------------------------------------- #
# per-layer split

LAYER_OF = {
    "campaign_recipe": "campaign.recipe_s",
    "campaign_signoff": "campaign.signoff_s",
    "campaign_power": "campaign.power_s",
    "campaign_yield": "campaign.yield_s",
    "campaign_config": "campaign.config_s",
    "campaign_wave": "runtime.wave_self_s",
}


def reduce(samples: Dict, ledger: Ledger, prefix: str):
    """(work, hot, work_per_s) of a window in host-scaled seconds;
    ``configs_per_s`` to the ledger."""
    waves = host.scaled_all(samples["wave_spans"])
    per_pass = len(waves) // len(samples["passes"])
    # A pass is the unit: its three waves hold different blocks, so wave
    # times cluster by block and a median over waves jumps between them.
    work = [sum(waves[i:i + per_pass])
            for i in range(0, len(waves), per_pass)]
    hot = host.scaled_all(samples["hot_spans"])
    rate = CHUNK / trimmed_mean(waves)
    ledger.put(prefix + "configs_per_s", rate, "1/s", len(waves))
    return work, hot, rate


def layers(inp: Inputs, traced: Dict, untraced: Dict, tracer, registry,
           ledger: Ledger) -> None:
    """Split the traced window's pass wall over the spans its workers
    carried home to ``tracer``."""
    passes = len(traced["passes"])
    totals = attribute(spans_from_tracer(tracer.spans()), LAYER_OF)
    covered = 0.0
    for layer in sorted(set(LAYER_OF.values())):
        value = totals.get(layer, 0.0) / passes
        covered += value
        ledger.put(layer, value, "s", passes)
    store_s = store_replay(inp, traced["rows"])
    covered += store_s
    ledger.put("campaign.store_s", store_s, "s", len(inp.sample))
    ledger.put("campaign.configs", len(inp.sample), "count", 1)
    ledger.put("campaign_wave.remainder_s",
               median(untraced["passes"]) - covered, "s", passes)
    ssta_probe(inp, ledger)


def store_replay(inp: Inputs, rows: Dict[str, tuple]) -> float:
    """``CampaignStore.record_result`` time for one pass's rows."""
    from repro.campaign import CampaignStore, METRIC_COLUMNS

    fd, path = tempfile.mkstemp(suffix=".db", dir=inp.workdir)
    os.close(fd)
    try:
        with CampaignStore(path) as store:
            store.record_spec(inp.spec.name, inp.spec.to_json())
            t0 = time.perf_counter()
            for config in inp.sample:
                row, scenario_rows = rows[config.fingerprint]
                store.record_result(
                    config, row["status"],
                    {col: row[col] for col in METRIC_COLUMNS},
                    scenario_rows, source=row["source"])
            return time.perf_counter() - t0
    finally:
        os.remove(path)


def ssta_probe(inp: Inputs, ledger: Ledger, reps: int = 3) -> None:
    """Canonical SSTA and PST tuning at tau=30 on one campaign block at
    the sweep's tightest period (fixed, whatever the seed)."""
    from repro.campaign import block_names, build_block
    from repro.campaign.runner import DEFAULT_LEVELS
    from repro.liberty import LibraryCondition, make_library
    from repro.sta import Constraints
    from repro.sta.algebra import VariationModel
    from repro.sta.ssta import run_ssta, tune_to_yield

    design = build_block(block_names()[0])
    library = make_library(LibraryCondition(process="tt", vdd=0.80,
                                            temp_c=25.0))
    constraints = Constraints.single_clock(PROBE_PERIOD)
    constraints.input_delays = {
        p: DEFAULT_LEVELS["input_delay"]
        for p in design.input_ports() if p != "clk"
    }
    run_s, tune_s = [], []
    for _ in range(reps):
        run, dt = timed(run_ssta, design, library, constraints,
                        model=VariationModel(seed=1),
                        n_samples=int(inp.spec.base["ssta_samples"]))
        run_s.append(dt)
        tune_s.append(timed(tune_to_yield, run,
                            target_yield=DEFAULT_LEVELS["yield_target"],
                            tune_range=30.0)[1])
    ledger.put("ssta.run_ms", median(run_s) * 1e3, "ms", reps)
    ledger.put("ssta.tune_ms", median(tune_s) * 1e3, "ms", reps)


def regenerate(workdir: str) -> None:
    """Write the frozen per-config digest of the full 288-config sweep."""
    from repro.campaign import CampaignStore, demo_spec

    spec = demo_spec()
    path = os.path.join(workdir, "campaign-digest.db")
    if os.path.exists(path):
        os.remove(path)
    try:
        with CampaignStore(path) as store:
            outcome = _runner(spec, store).run()
            if outcome.degraded:
                raise RuntimeError(f"sweep degraded: {outcome.degraded}")
            digests = digests_of(store_rows(store, spec.name))
    finally:
        os.remove(path)
    os.makedirs(os.path.dirname(DIGEST), exist_ok=True)
    with open(DIGEST, "w", encoding="utf-8") as handle:
        json.dump({"what": f"demo_spec() {spec.name}: per-config store "
                           "rows, wall_s excluded",
                   "configs": digests}, handle, indent=0, sort_keys=True)
        handle.write("\n")
