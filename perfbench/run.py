#!/usr/bin/env python3
"""The repository benchmark: three timing-closure workloads.

Run from the repository root::

    python3 perfbench/run.py --workload mcmm_signoff --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

- ``mcmm_signoff``: batch 9-view signoff of aes_like, vector engine;
- ``eco_session``: designer ECOs plus open-loop cache-hot reads against
  a ``repro serve`` daemon subprocess;
- ``campaign_wave``: a 24-config campaign sample in 8-config waves.

``--trace 0`` sets up several times (``setup_s`` is the median), then
measures the workload for ``--seconds`` and checks every answer.
``--trace 1`` is the separate traced run: for every workload it measures
an untraced window and the same window with the program's tracer and
metrics registry (or the daemon's ``--trace/--metrics``) armed, the six
windows sharing ``--seconds``; it reports the difference on each
end-to-end metric as tracing overhead and splits the wall time into
per-layer metrics plus a remainder no layer covers.

End-to-end times are host-scaled (``common.HostSpeed``): each unit of
work's wall time rescaled by a calibration load timed next to it, so
the drifting speed of a shared host cancels; plain wall times stay in
the ledger as ``wall.<metric>``.

Output: a human table, a ``ledger:`` JSON line carrying every metric
with its unit and sample count, and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``. Exit 0 on a
completed run (``correct`` says whether every check passed), non-zero
when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mcmm_signoff", "eco_session", "campaign_wave")

#: End-to-end metrics, the same on every workload: (name, unit).
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("hot_p10_ms", "ms"),
)

#: Figures of the same samples that only the ledger carries (see
#: README.md: too few samples past p90 on two workloads, and contended
#: reads whose waits come in GIL switch intervals fixed in wall time).
E2E_LEDGER = (
    ("work_p90_ms", "ms"),
    ("hot_mean_ms", "ms"),
)

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("validate.lint_s", "s", "lower"),
    ("kernel.compile_s", "s", "lower"),
    ("parasitics.extract_s", "s", "lower"),
    ("kernel.batch_s", "s", "lower"),
    ("kernel.report_s", "s", "lower"),
    ("kernel.batch_share", "ratio", "higher"),
    ("scheduler.self_s", "s", "lower"),
    ("kernel.corners", "count", "higher"),
    ("kernel.timing_pins", "count", "lower"),
    ("kernel.edges", "count", "lower"),
    ("kernel.fallbacks", "count", "lower"),
    ("mcmm_signoff.remainder_s", "s", "lower"),
    ("serve.apply_eco_ms", "ms", "lower"),
    ("serve.session_timing_ms", "ms", "lower"),
    ("serve.paths_ms", "ms", "lower"),
    ("serve.hot_query_ms", "ms", "lower"),
    ("serve.queue_wait_mean_ms", "ms", "lower"),
    ("serve.server_latency_p50_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.cache_hit_frac", "ratio", "higher"),
    ("serve.incremental_retimes", "count", "higher"),
    ("serve.full_retimes", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("incremental.update_cells_ms", "ms", "lower"),
    ("incremental.cone_pins", "count", "lower"),
    ("incremental.cone_frac", "ratio", "lower"),
    ("sta.build_ms", "ms", "lower"),
    ("sta.run_ms", "ms", "lower"),
    ("sta.propagate_ms", "ms", "lower"),
    ("sta.checks_ms", "ms", "lower"),
    ("sta.worst_path_ms", "ms", "lower"),
    ("sta.timing_pins", "count", "lower"),
    ("loadgen.late_p90_ms", "ms", "lower"),
    ("eco_session.remainder_ms", "ms", "lower"),
    ("campaign.config_s", "s", "lower"),
    ("campaign.recipe_s", "s", "lower"),
    ("campaign.signoff_s", "s", "lower"),
    ("campaign.power_s", "s", "lower"),
    ("campaign.yield_s", "s", "lower"),
    ("runtime.wave_self_s", "s", "lower"),
    ("campaign.store_s", "s", "lower"),
    ("campaign.configs", "count", "higher"),
    ("campaign_wave.remainder_s", "s", "lower"),
    ("ssta.run_ms", "ms", "lower"),
    ("ssta.tune_ms", "ms", "lower"),
    ("liberty.make_library_s", "s", "lower"),
) + tuple(
    (f"{w}.overhead.{name}", unit, "lower")
    for w in WORKLOADS for name, unit in E2E
)

#: Modules each workload imports; their import time is set-up time.
IMPORTS = {
    "mcmm_signoff": ("repro.sta.scheduler", "repro.sta.kernel",
                     "repro.validate", "repro.sta.mcmm"),
    "eco_session": ("repro.serve", "repro.sta.mcmm",
                    "repro.sta.incremental"),
    "campaign_wave": ("repro.campaign",),
}

SETUPS = 3


# ---------------------------------------------------------------------- #
# one workload: set up, run a window, reduce to end-to-end metrics
#
# Each workload module offers the same functions: setup(seed, workdir,
# trace) -> inputs, window(inputs, seconds, ledger) -> samples,
# reduce(samples, ledger, prefix) -> (work_s, hot_s, work_per_s),
# peak_rss_mb(inputs), teardown(inputs) and layers(...).

MODULES = {"mcmm_signoff": "mcmm", "eco_session": "eco",
           "campaign_wave": "wave"}


def measure(module, seed: int, seconds: float, workdir: str, ledger,
            setups: int = 1, trace: bool = False):
    """Set up ``setups`` times (keeping the last), run one window.

    Returns (inputs, samples, set-up spans, peak RSS MB); the inputs are
    torn down (the daemon stopped) before returning.
    """
    from common import host, spanned

    inp, spans = None, []
    try:
        for _ in range(setups):
            if inp is not None:
                module.teardown(inp)
                inp = None
            # Free earlier set-ups' cyclic garbage now, so the peak RSS
            # does not depend on when the collector next happens to run.
            gc.collect()
            host.mark()
            inp, span = spanned(module.setup, seed, workdir, trace)
            spans.append(span)
        host.mark()
        gc.collect()
        samples = module.window(inp, seconds, ledger)
        rss = module.peak_rss_mb(inp)
    finally:
        if inp is not None:
            module.teardown(inp)
    return inp, samples, spans, rss


def e2e(module, samples, setup_spans, rss_mb: float, ledger,
        prefix: str = "") -> dict:
    """The end-to-end metrics of one window in host-scaled time, as
    {name: value}; the plain wall-time figures go to the ledger under
    ``wall.``. Without a prefix the metrics also go into the ledger with
    their sample counts."""
    from common import host

    host.raw = True
    try:
        raw = _e2e_values(module, samples, setup_spans, rss_mb, ledger,
                          "wall." + prefix)
    finally:
        host.raw = False
    values = _e2e_values(module, samples, setup_spans, rss_mb, ledger,
                         prefix)
    units = dict(E2E + E2E_LEDGER)
    for name, (value, count) in raw.items():
        if name != "peak_rss_mb":
            ledger.put(f"wall.{prefix}{name}", value, units[name], count)
    if not prefix:
        for name, (value, count) in values.items():
            ledger.put(name, value, units[name], count)
    return {name: value for name, (value, _) in values.items()}


def _e2e_values(module, samples, setup_spans, rss_mb: float, ledger,
                prefix: str) -> dict:
    from common import host, median, percentile, trimmed_mean

    work, hot, rate = module.reduce(samples, ledger, prefix)
    # Set-up is the import (if any) plus the median of the set-ups.
    setup_s = sum(median(host.scaled_all(group)) for group in setup_spans)
    # Cache-hot reads are gated on their p10, the read path's own cost:
    # on eco_session the daemon's reads queue behind ECO work for whole
    # GIL switch intervals (5 ms of wall time whatever the host speed),
    # so the contended share of the distribution neither scales with the
    # host nor sits still between runs. Its trimmed mean and the query
    # p50/p90 stay in the ledger.
    return {
        "setup_s": (setup_s, len(setup_spans[-1])),
        "peak_rss_mb": (rss_mb, 1),
        "work_p50_ms": (percentile(work, 50) * 1e3, len(work)),
        "work_p90_ms": (percentile(work, 90) * 1e3, len(work)),
        "work_per_s": (rate, len(work)),
        "hot_p10_ms": (percentile(hot, 10) * 1e3, len(hot)),
        "hot_mean_ms": (trimmed_mean(hot) * 1e3, len(hot)),
    }


# ---------------------------------------------------------------------- #
# modes


def untraced(name: str, seed: int, seconds: float, workdir: str,
             import_span):
    from common import Ledger

    ledger = Ledger()
    module = importlib.import_module(MODULES[name])
    _, samples, spans, rss = measure(module, seed, seconds, workdir,
                                     ledger, setups=SETUPS)
    e2e(module, samples, [[import_span], spans], rss, ledger)
    return ledger


def traced(seed: int, seconds: float, workdir: str):
    """Every workload untraced then traced; the six windows share
    ``seconds`` evenly."""
    from common import Ledger, reset_peak_rss
    from repro.obs import metrics, tracing

    ledger = Ledger()
    segment = max(2.0, seconds / (2 * len(WORKLOADS)))
    liberty_probe(ledger)
    for name in WORKLOADS:
        module = importlib.import_module(MODULES[name])
        runs = {}
        for armed in (False, True):
            tracer = tracing.Tracer() if armed else None
            registry = metrics.MetricsRegistry() if armed else None
            reset_peak_rss()
            with tracing.use(tracer), metrics.use(registry):
                inp, samples, spans, rss = measure(
                    module, seed, segment, workdir, ledger, trace=armed)
            label = "traced" if armed else "untraced"
            values = e2e(module, samples, [spans], rss, ledger,
                         prefix=f"{name}.{label}.")
            runs[armed] = (inp, samples, values, tracer, registry)
        for metric, unit in E2E:
            ledger.put(f"{name}.overhead.{metric}",
                       runs[True][2][metric] - runs[False][2][metric],
                       unit, 2)
        inp, samples, _, tracer, registry = runs[True]
        module.layers(inp, samples, runs[False][1], tracer, registry,
                      ledger)
    return ledger


def liberty_probe(ledger) -> None:
    """``make_library`` once per distinct condition the workloads use."""
    from repro.liberty import LibraryCondition, make_library

    conditions = {
        ("ss", 0.72, -30.0), ("ss", 0.72, 125.0), ("tt", 0.80, 25.0),
        ("ff", 0.88, -30.0), ("ff", 0.88, 125.0), ("ssg", 0.72, 125.0),
        ("ffg", 0.88, -30.0),
    }
    t0 = time.perf_counter()
    for process, vdd, temp in sorted(conditions):
        make_library(LibraryCondition(process=process, vdd=vdd,
                                      temp_c=temp))
    ledger.put("liberty.make_library_s", time.perf_counter() - t0, "s",
               len(conditions))


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all" and not args.trace:
        # Each workload in its own process, so its set-up (imports
        # included) is measured as a user pays it.
        status = 0
        for name in WORKLOADS:
            status |= subprocess.call([
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ])
        return status

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from common import emit, host

    host.mark()
    t0 = time.perf_counter()
    for module in IMPORTS.get(args.workload, ()):
        importlib.import_module(module)
    import_span = (t0, time.perf_counter())
    host.mark()

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            ledger = traced(args.seed, args.seconds, workdir)
            names = [name for name, _, _ in PER_LAYER]
        else:
            ledger = untraced(args.workload, args.seed, args.seconds,
                              workdir, import_span)
            names = [name for name, _ in E2E]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(ledger, args.workload, args.seed, bool(args.trace), names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
