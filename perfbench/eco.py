"""Workload ``eco_session``: the interactive ECO loop against the daemon.

A ``repro serve --design aes --gates 720 --seed 77 --period 1100
--corners 2 --workers 2`` daemon (the 2,791-pin block, default engine)
runs in a subprocess. One client process drives it with two threads on
two connections:

- a closed-loop designer: ``open_session``, a cold ``timing``, then ECOs.
  One ECO is an ``apply_eco`` with one footprint-preserving VT swap
  (chosen by seed through ``Library.swap_variant``), a session
  ``timing`` and ``paths`` (count 3) on the worst scenario. A fresh
  session starts every 20 ECOs;
- an open-loop reader sending cache-hot ``timing``/``histogram`` on the
  shared context every 50 ms, each timed from when it was due.

Unit of work: one ECO, ``apply_eco`` sent to ``paths`` received.
Cache-hot read: the designer's shared-context ``timing`` after each ECO.
The reader's latencies (``query_*``) show how reads fare beside ECOs.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import common
from common import (Deadline, Ledger, host, median, percentile, spanned,
                    timed, trimmed_mean)

DESIGN_SEED = 77
GATES = 720
PERIOD = 1100.0
INPUT_DELAY = 60.0
CORNERS = 2
DAEMON_ARGS = ["--design", "aes", "--gates", str(GATES),
               "--seed", str(DESIGN_SEED), "--period", "1100",
               "--corners", str(CORNERS), "--workers", "2"]
ECOS_PER_SESSION = 20
READ_PERIOD_S = 0.05
MARK_EVERY_S = 0.4  # host-speed marks, between ECOs (common.HostSpeed)
START_TIMEOUT_S = 90.0
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_TOL = 2e-6  # the wire rounds slacks to 1e-6


# ---------------------------------------------------------------------- #
# the daemon process


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    stderr: object = None

    def client(self):
        from repro.serve import TimingClient

        return TimingClient("127.0.0.1", self.port, timeout_s=60.0)

    def stop(self) -> None:
        """Graceful shutdown (flushes --trace/--metrics), then reap."""
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.request("shutdown")
            except Exception:  # noqa: BLE001 - fall through to kill
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.stderr is not None:
            self.stderr.close()
            self.stderr = None


def start_daemon(workdir: str, trace: bool = False) -> Daemon:
    tag = uuid.uuid4().hex[:8]
    port_file = os.path.join(workdir, f"port-{tag}")
    cmd = [sys.executable, "-m", "repro", "serve", *DAEMON_ARGS,
           "--port-file", port_file]
    trace_path = metrics_path = None
    if trace:
        trace_path = os.path.join(workdir, f"trace-{tag}.json")
        metrics_path = os.path.join(workdir, f"metrics-{tag}.json")
        cmd += ["--trace", trace_path, "--metrics", metrics_path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    stderr = open(os.path.join(workdir, f"daemon-{tag}.err"), "wb")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    daemon = Daemon(proc, 0, trace_path, metrics_path, stderr)
    t_end = time.monotonic() + START_TIMEOUT_S
    while not os.path.exists(port_file):
        if proc.poll() is not None or time.monotonic() > t_end:
            daemon.stop()
            raise RuntimeError(f"daemon failed to start (exit "
                               f"{proc.poll()}); see {stderr.name}")
        time.sleep(0.01)
    with open(port_file, "r", encoding="utf-8") as handle:
        daemon.port = int(handle.read())
    return daemon


# ---------------------------------------------------------------------- #
# inputs


@dataclass
class Inputs:
    seed: int
    scenarios: list          # the daemon's scenarios, rebuilt locally
    stack: object
    library: object          # swap menu (cell names agree across corners)
    candidates: List[str]
    daemon: Optional[Daemon] = None
    baseline: Dict = field(default_factory=dict)  # shared-context answers
    worst: str = ""


def base_design():
    from repro.netlist.generators import aes_like

    return aes_like(seed=DESIGN_SEED, n_sboxes=max(2, GATES // 60))


def local_inputs(seed: int) -> Inputs:
    design = base_design()
    scenario_set = common.standard_scenarios(design, PERIOD, INPUT_DELAY)
    scenarios = scenario_set.scenarios[:CORNERS]
    library = scenarios[0].library
    candidates = sorted(
        name for name, inst in design.instances.items()
        if not library.cell(inst.cell_name).is_sequential
        and len(library.vt_menu(library.cell(inst.cell_name))) > 1
    )
    return Inputs(seed, scenarios, scenario_set.stack, library, candidates)


def setup(seed: int, workdir: str, trace: bool = False) -> Inputs:
    """Daemon up and the shared context warm (the reader's cache-hot set);
    ``trace`` starts it with ``--trace/--metrics``."""
    inp = local_inputs(seed)
    inp.daemon = start_daemon(workdir, trace=trace)
    with inp.daemon.client() as client:
        rows = client.request("timing")["scenarios"]
        inp.worst = min(rows, key=lambda n: rows[n]["wns_setup"])
        inp.baseline = {
            "timing": rows,
            "histogram": _strip(client.request(
                "histogram", {"scenario": inp.worst})),
        }
    return inp


def teardown(inp: Inputs) -> None:
    if inp.daemon is not None:
        inp.daemon.stop()


def peak_rss_mb(inp: Inputs) -> float:
    """Of the daemon, the process doing the timing work."""
    return common.peak_rss_mb(inp.daemon.proc.pid)


def _strip(result: Dict) -> Dict:
    return {k: v for k, v in result.items() if k not in ("source",
                                                          "sources")}


class SwapPicker:
    """Seeded one-cell VT swaps, tracked against the session's cells."""

    def __init__(self, inp: Inputs, seed: int):
        self.inp = inp
        self.rng = random.Random(seed)
        self.base = base_design()

    def cell_of(self, name: str, cells: Dict[str, str]) -> str:
        return cells.get(name, self.base.instance(name).cell_name)

    def pick(self, cells: Dict[str, str]) -> Tuple[str, str]:
        lib = self.inp.library
        name = self.rng.choice(self.inp.candidates)
        cell = lib.cell(self.cell_of(name, cells))
        flavors = sorted(c.vt_flavor for c in lib.vt_menu(cell)
                         if c.vt_flavor != cell.vt_flavor)
        variant = lib.swap_variant(cell, vt_flavor=self.rng.choice(flavors))
        return name, variant.name


# ---------------------------------------------------------------------- #
# the load


@dataclass
class Samples:
    eco: List[float] = field(default_factory=list)
    eco_spans: List[Tuple[float, float]] = field(default_factory=list)
    apply: List[float] = field(default_factory=list)
    timing: List[float] = field(default_factory=list)
    paths: List[float] = field(default_factory=list)
    cold: List[Tuple[float, float]] = field(default_factory=list)
    hot_spans: List[Tuple[float, float]] = field(default_factory=list)
    query_spans: List[Tuple[float, float]] = field(default_factory=list)
    query_rtt: List[float] = field(default_factory=list)  # from send
    late: List[float] = field(default_factory=list)
    sessions: List[Tuple[List[Tuple[str, str]], Dict]] = \
        field(default_factory=list)
    stats: Dict = field(default_factory=dict)


def _reader(inp: Inputs, stop: threading.Event, samples: Samples,
            failures: List[str]) -> None:
    """Open loop on a fixed schedule; latency counts from the due time."""
    with inp.daemon.client() as client:
        t0 = time.perf_counter()
        i = 0
        while not stop.is_set():
            due = t0 + i * READ_PERIOD_S
            wait = due - time.perf_counter()
            if wait > 0 and stop.wait(wait):
                break
            op = "timing" if i % 2 == 0 else "histogram"
            params = {} if op == "timing" else {"scenario": inp.worst}
            sent = time.perf_counter()
            try:
                result = client.request(op, params)
                got = (result["scenarios"] if op == "timing"
                       else _strip(result))
                ok = got == inp.baseline[op]
            except Exception as exc:  # noqa: BLE001 - counted as failed
                ok = False
                result = exc
            done = time.perf_counter()
            samples.late.append(sent - due)
            samples.query_spans.append((due, done))
            samples.query_rtt.append(done - sent)
            if not ok:
                failures.append(f"reader {op}: {result!r:.200}")
            i += 1


def window(inp: Inputs, seconds: float, ledger: Ledger) -> Samples:
    """Designer + reader for ``seconds``; sessions verified afterwards."""
    samples = Samples()
    picker = SwapPicker(inp, inp.seed)
    reader_failures: List[str] = []
    stop = threading.Event()
    reader = threading.Thread(target=_reader, name="perfbench-reader",
                              args=(inp, stop, samples, reader_failures))
    reader.start()
    try:
        with inp.daemon.client() as client:
            deadline = Deadline(seconds)
            while deadline.left():
                _session(client, inp, picker, deadline, samples, ledger)
            samples.stats = client.request("stats")
            host.mark()
    finally:
        stop.set()
        reader.join(timeout=120)
    for _ in range(len(samples.query_spans) - len(reader_failures)):
        ledger.op(True)
    for problem in reader_failures:
        ledger.op(False, problem)
    verify_sessions(inp, samples, ledger)
    return samples


def _session(client, inp: Inputs, picker: SwapPicker, deadline: Deadline,
             samples: Samples, ledger: Ledger) -> None:
    sid = client.request("open_session")["session"]
    (result, span) = spanned(client.request, "timing", session=sid)
    samples.cold.append(span)
    rows = result["scenarios"]
    ledger.op(rows == inp.baseline["timing"],
              "a fresh session's timing differs from the shared context")
    worst = min(rows, key=lambda n: rows[n]["wns_setup"])
    cells: Dict[str, str] = {}
    edits: List[Tuple[str, str]] = []
    for _ in range(ECOS_PER_SESSION):
        if not deadline.left():
            break
        host.mark(every=MARK_EVERY_S)
        name, new_cell = picker.pick(cells)
        t0 = time.perf_counter()
        applied = client.request(
            "apply_eco",
            {"edits": [{"kind": "set_cell", "target": name,
                        "value": new_cell}]},
            session=sid)
        t1 = time.perf_counter()
        timing = client.request("timing", session=sid)
        t2 = time.perf_counter()
        paths = client.request("paths", {"scenario": worst, "count": 3},
                               session=sid)
        t3 = time.perf_counter()
        samples.apply.append(t1 - t0)
        samples.timing.append(t2 - t1)
        samples.paths.append(t3 - t2)
        samples.eco.append(t3 - t0)
        samples.eco_spans.append((t0, t3))
        # A cache-hot read of the shared context while this client's
        # daemon work is done: the read path's own cost, which the
        # reader's contended latencies bury under GIL waits.
        hot, span = spanned(client.request, "timing")
        samples.hot_spans.append(span)
        ledger.op(hot["scenarios"] == inp.baseline["timing"],
                  "a cache-hot shared timing differs from the baseline")
        cells[name] = new_cell
        edits.append((name, new_cell))
        rows = timing["scenarios"]
        wns = rows[worst]["wns_setup"]
        ledger.op(applied.get("applied") == 1
                  and len(paths["paths"]) == 3
                  and abs(paths["paths"][0]["slack"] - wns) <= ROW_TOL,
                  f"ECO {name}->{new_cell}: apply/paths disagree with "
                  "the session timing")
    samples.sessions.append((edits, rows))
    client.request("close_session", session=sid)


def verify_sessions(inp: Inputs, samples: Samples, ledger: Ledger) -> None:
    """Final session rows against a from-scratch STA with the same edits."""
    for edits, rows in samples.sessions:
        design = base_design()
        for name, cell in edits:
            design.instance(name).cell_name = cell
        for scenario in inp.scenarios:
            want = _report_row(_full_sta(inp, design, scenario).run())
            got = rows.get(scenario.name, {})
            ok = all(
                got.get(k) == v if not isinstance(v, float)
                else got.get(k) is not None and abs(got[k] - v) <= ROW_TOL
                for k, v in want.items())
            ledger.op(ok, f"session of {len(edits)} ECO(s): "
                         f"{scenario.name} rows {got} != full STA {want}")


def _full_sta(inp: Inputs, design, scenario):
    from repro.beol.corners import conventional_corners
    from repro.sta.analysis import STA

    return STA(design, scenario.library, scenario.constraints,
               stack=inp.stack,
               beol_corner=conventional_corners(inp.stack)[
                   scenario.beol_corner_name],
               temp_c=scenario.temp_c, derates=scenario.derates)


def _report_row(report) -> Dict:
    """The daemon's wire row, rebuilt here rather than imported so the
    check does not trust the code it checks."""

    def num(value: float):
        return None if math.isinf(value) else round(value, 6)

    return {
        "wns_setup": num(report.wns("setup")),
        "tns_setup": num(report.tns("setup")),
        "violations_setup": report.violation_count("setup"),
        "wns_hold": num(report.wns("hold")),
        "tns_hold": num(report.tns("hold")),
        "violations_hold": report.violation_count("hold"),
        "slew_violations": len(report.slew_violations),
    }


def reduce(samples: Samples, ledger: Ledger, prefix: str):
    """(work, hot, work_per_s) of a window in host-scaled seconds, plus
    the ECO, cold-session and reader percentiles under their own names."""
    eco = host.scaled_all(samples.eco_spans)
    hot = host.scaled_all(samples.hot_spans)
    query = host.scaled_all(samples.query_spans)
    ledger.latency(prefix + "eco", eco)
    ledger.latency(prefix + "cold", host.scaled_all(samples.cold), (50,))
    ledger.latency(prefix + "query", query)
    ledger.put(prefix + "query_mean_ms", trimmed_mean(query) * 1e3, "ms",
               len(query))
    ledger.put(prefix + "loadgen.late_p90_ms",
               percentile(samples.late, 90) * 1e3, "ms", len(samples.late))
    return eco, hot, 1.0 / trimmed_mean(eco)


# ---------------------------------------------------------------------- #
# per-layer split


def layers(inp: Inputs, samples: Samples, untraced: Samples, tracer,
           registry, ledger: Ledger) -> None:
    """Serve-layer split of the traced daemon run (``inp.daemon`` must
    be stopped, so its trace/metrics files are written), then the
    incremental and STA layers probed on the same block without it."""
    import json

    from common import histogram_quantile, spans_from_events
    from repro.obs.export import load_events

    n = len(samples.eco)
    apply_ms = median(samples.apply) * 1e3
    timing_ms = median(samples.timing) * 1e3
    paths_ms = median(samples.paths) * 1e3
    ledger.put("serve.apply_eco_ms", apply_ms, "ms", n)
    ledger.put("serve.session_timing_ms", timing_ms, "ms", n)
    ledger.put("serve.paths_ms", paths_ms, "ms", n)
    ledger.put("serve.hot_query_ms", median(samples.query_rtt) * 1e3,
               "ms", len(samples.query_rtt))
    ledger.put("loadgen.late_p90_ms", percentile(samples.late, 90) * 1e3,
               "ms", len(samples.late))
    ledger.put("eco_session.remainder_ms",
               median(untraced.eco) * 1e3 - (apply_ms + timing_ms
                                             + paths_ms), "ms", n)

    with open(inp.daemon.metrics_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    wait = snapshot["serve.queue.wait_ms"]
    latency = snapshot["serve.latency_ms"]
    # Queue waits are mostly far below the histogram's first 1 ms
    # bucket, where a bucketed p50 carries no information: report the
    # exact mean (sum / count) instead.
    ledger.put("serve.queue_wait_mean_ms", wait["sum"] / wait["count"],
               "ms", wait["count"])
    ledger.put("serve.server_latency_p50_ms",
               histogram_quantile(latency, 0.5), "ms", latency["count"])
    hot_server = [
        (s.end - s.start) for s in
        spans_from_events(load_events(inp.daemon.trace_path))
        if s.name == "serve_request" and s.attrs.get("session") == "shared"
        and s.attrs.get("op") in ("timing", "histogram")
    ]
    # Every shared-context read (reader and designer) against the
    # daemon's spans for the same reads.
    rtt = samples.query_rtt + [b - a for a, b in samples.hot_spans]
    ledger.put("serve.transport_ms",
               (median(rtt) - median(hot_server)) * 1e3, "ms",
               len(hot_server))

    stats = samples.stats
    cache = stats["cache"]
    ledger.put("serve.cache_hit_frac",
               cache["hits"] / max(1, cache["hits"] + cache["misses"]),
               "ratio", cache["hits"] + cache["misses"])
    ledger.put("serve.incremental_retimes",
               stats["timers"]["incremental_retimes"], "count", 1)
    ledger.put("serve.full_retimes", stats["timers"]["full_retimes"],
               "count", 1)
    ledger.put("serve.shed", stats["admission"]["shed"], "count", 1)
    probes(inp, ledger)


def probes(inp: Inputs, ledger: Ledger, reps: int = 3,
           swaps: int = ECOS_PER_SESSION) -> None:
    """STA and incremental layers on the block, no daemon in between."""
    from repro.sta.incremental import IncrementalTimer
    from repro.sta.propagation import propagate

    scenario = next(s for s in inp.scenarios if s.name == inp.worst)
    build, run, prop, worst_path = [], [], [], []
    for _ in range(reps):
        design = base_design()
        sta, dt = timed(_full_sta, inp, design, scenario)
        build.append(dt)
        report, dt = timed(sta.run)
        run.append(dt)
        prop.append(timed(propagate, sta.graph, sta.parasitics,
                          sta.derates)[1])
        t0 = time.perf_counter()
        for endpoint in report.endpoints("setup")[:3]:
            sta.worst_path(endpoint)
        worst_path.append(time.perf_counter() - t0)
    pins = len(sta.graph.topo_order)
    ledger.put("sta.build_ms", median(build) * 1e3, "ms", reps)
    ledger.put("sta.run_ms", median(run) * 1e3, "ms", reps)
    ledger.put("sta.propagate_ms", median(prop) * 1e3, "ms", reps)
    ledger.put("sta.checks_ms", (median(run) - median(prop)) * 1e3, "ms",
               reps)
    ledger.put("sta.worst_path_ms", median(worst_path) * 1e3, "ms", reps)
    ledger.put("sta.timing_pins", pins, "count", 1)

    # The same seeded swaps the designer's first session applies.
    timer = IncrementalTimer(sta)
    picker = SwapPicker(inp, inp.seed)
    cells: Dict[str, str] = {}
    update, cones = [], []
    for _ in range(swaps):
        name, new_cell = picker.pick(cells)
        cells[name] = new_cell
        sta.design.instance(name).cell_name = new_cell
        update.append(timed(timer.update_cells, [name])[1])
        cones.append(timer.last_cone_size)
    ledger.put("incremental.update_cells_ms", median(update) * 1e3, "ms",
               swaps)
    ledger.put("incremental.cone_pins", median(cones), "count", swaps)
    ledger.put("incremental.cone_frac", median(cones) / pins, "ratio",
               swaps)
