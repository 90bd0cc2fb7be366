"""Measurement helpers shared by the benchmark workloads.

Percentiles, the metrics ledger, peak-RSS readings, span attribution,
the tolerance-aware digests the correctness checks compare against, and
the one input builder two workloads share.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------- #
# statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0 <= q <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the fastest and slowest ``cut`` share.

    Unlike a quantile it moves smoothly when samples fall into several
    modes, and unlike the plain mean a few stalls cannot swing it.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def histogram_quantile(snapshot: Dict, q: float) -> float:
    """Quantile of a fixed-bucket histogram snapshot (``repro.obs``).

    Interpolates linearly inside the bucket holding the quantile, the
    usual estimate for bucketed latencies; the overflow bucket reads as
    its lower bound.
    """
    total = snapshot["count"]
    if not total:
        return 0.0
    target = q * total
    bounds = snapshot["bounds"]
    seen = 0
    for i, count in enumerate(snapshot["counts"]):
        if count and seen + count >= target:
            if i >= len(bounds):
                return float(bounds[-1])
            lower = bounds[i - 1] if i else 0.0
            return lower + (bounds[i] - lower) * (target - seen) / count
        seen += count
    return float(bounds[-1])


# ---------------------------------------------------------------------- #
# metrics ledger


@dataclass
class Ledger:
    """Named metrics with units and sample counts, plus the error tally.

    ``attempted``/``failed`` count operations; a correctness mismatch is
    a failed operation too, so ``failed / attempted`` is the error rate.
    """

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1):
        self.metrics[name] = (float(value), unit, int(samples))

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one attempted operation or correctness check; record
        why when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem or "failed")

    def latency(self, prefix: str, samples_s: Sequence[float],
                quantiles=(50, 90)) -> None:
        """Record percentiles of ``samples_s`` (seconds) in ms."""
        for q in quantiles:
            self.put(f"{prefix}_p{q}_ms", percentile(samples_s, q) * 1e3,
                     "ms", len(samples_s))


def emit(ledger: Ledger, workload: str, seed: int, trace: bool,
         names: Sequence[str]) -> None:
    """Print the human table, the full ledger, then the result line.

    The last stdout line is the one-object result: ``metrics`` holds
    exactly ``names`` (the metric set of this mode).
    """
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{ledger.attempted} operation(s), {ledger.failed} failed "
          f"(error_rate {error_rate:.6f})")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    for name in sorted(ledger.metrics):
        value, unit, samples = ledger.metrics[name]
        print(f"  {name:<44} {value:>16.6f} {unit:<6} n={samples}")
    print("ledger: " + json.dumps({
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": error_rate,
        "metrics": {
            name: {"value": v, "unit": u, "samples": n}
            for name, (v, u, n) in sorted(ledger.metrics.items())
        },
    }, sort_keys=True))
    missing = [n for n in names if n not in ledger.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            n: {"value": ledger.metrics[n][0], "unit": ledger.metrics[n][1]}
            for n in names
        },
    }), flush=True)


# ---------------------------------------------------------------------- #
# memory


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS watermark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ---------------------------------------------------------------------- #
# timing


class Deadline:
    """The measurement window: ``left()`` until ``seconds`` have passed."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> bool:
        return time.perf_counter() < self.end


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def spanned(fn, *args, **kwargs):
    """``(result, (start, end))`` of one call, ``perf_counter`` seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (t0, time.perf_counter())


# ---------------------------------------------------------------------- #
# host speed


class _Node:
    __slots__ = ("key", "out")

    def __init__(self, key: int):
        self.key = key
        self.out: List[Tuple["_Node", float]] = []


def _calibration_load() -> float:
    """A fixed pure-Python load that imports nothing from the program:
    object allocation, dict and list traffic, and a topological max-plus
    relaxation over a random DAG, the kind of work the program does."""
    import random

    rng = random.Random(5)
    nodes = [_Node(i) for i in range(2000)]
    for i in range(1, len(nodes)):
        for _ in range(2):
            nodes[rng.randrange(i)].out.append((nodes[i], rng.random()))
    arrival: Dict[int, float] = {}
    for node in nodes:
        at = arrival.get(node.key, 0.0)
        for succ, weight in node.out:
            value = at + weight * 1.5 + 0.25
            if value > arrival.get(succ.key, 0.0):
                arrival[succ.key] = value
    acc, table, trail = 0, {}, []
    for i in range(16000):
        node = _Node(i)
        acc += (node.key * 3) % 13
        table[i % 977] = node
        trail.append(acc)
    trail.sort()
    return max(arrival.values()) + trail[-1]


class HostSpeed:
    """Wall time rescaled to a reference host speed.

    The benchmark runs on a few vCPUs of a shared host whose speed
    changes by up to a factor of two over seconds to minutes, which swamps
    any bound a regression gate could use. So each workload calls
    :meth:`mark` between its units of work, which times a fixed load that
    imports nothing from the program, and :meth:`scaled` turns the wall
    time of a unit into reference seconds: wall x ``REF_S`` / the mean load
    time of the marks just before and just after it. The load is
    independent of the program, so a faster or slower program moves the
    scaled time exactly as much as its wall time; host drift moves both
    alike and cancels (see README.md for measurements). Raw wall times
    stay in the ledger under ``wall.``.
    """

    #: About the load's time on the 2-vCPU Xeon VM the benchmark was
    #: defined on (7-16 ms with the host's state), so scaled times read
    #: like wall times there.
    REF_S = 0.0100

    def __init__(self):
        self.raw = False
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.loads: List[float] = []

    def mark(self, every: float = 0.0) -> None:
        """Time the load now, or skip it when the last mark ended less
        than ``every`` seconds ago."""
        t0 = time.perf_counter()
        if self.ends and t0 - self.ends[-1] < every:
            return
        # With the collector off, the load's time cannot include a full
        # collection of the program's (large, varying) heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _calibration_load()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self.loads.append(t1 - t0)

    def scaled(self, span: Tuple[float, float]) -> float:
        """Reference seconds of the wall interval ``span`` (its plain
        wall seconds while :attr:`raw` is set)."""
        import bisect

        t0, t1 = span
        if self.raw:
            return t1 - t0
        near = []
        before = bisect.bisect_right(self.ends, t0) - 1
        if before >= 0:
            near.append(self.loads[before])
        after = bisect.bisect_left(self.starts, t1)
        if after < len(self.starts):
            near.append(self.loads[after])
        if not near:
            raise RuntimeError("no host-speed mark next to a timed span")
        return (t1 - t0) * self.REF_S * len(near) / sum(near)

    def scaled_all(self, spans: Iterable[Tuple[float, float]]
                   ) -> List[float]:
        return [self.scaled(span) for span in spans]


#: The process's one host-speed record; workloads mark it, run.py and
#: the reductions read it.
host = HostSpeed()


# ---------------------------------------------------------------------- #
# span attribution


@dataclass
class SpanRec:
    """A span reduced to what attribution needs (seconds, any clock)."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    attrs: Dict = field(default_factory=dict)


def spans_from_tracer(spans) -> List[SpanRec]:
    return [SpanRec(s.name, s.span_id, s.parent_id, s.start_s,
                    s.start_s + s.duration_s, dict(s.attrs)) for s in spans]


def spans_from_events(events) -> List[SpanRec]:
    out = []
    for e in events:
        args = e.get("args") or {}
        start = float(e["ts"]) / 1e6
        out.append(SpanRec(e["name"], args.get("span_id"),
                           args.get("parent_id"), start,
                           start + float(e.get("dur", 0.0)) / 1e6, args))
    return out


def attribute(spans: Iterable[SpanRec],
              layer_of: Dict[str, str]) -> Dict[Optional[str], float]:
    """Wall seconds per layer, with concurrent work sharing the clock.

    A span belongs to the layer of its nearest ancestor-or-self named in
    ``layer_of`` (None when there is none). Each span contributes its
    self intervals (its interval minus what its children cover); while k
    self intervals overlap — threads running side by side — each gets
    1/k of the elapsed time, so the layer totals add up to the wall time
    the spans cover rather than to the sum of thread times.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append(s)

    def layer(s: Optional[SpanRec]) -> Optional[str]:
        while s is not None:
            if s.name in layer_of:
                return layer_of[s.name]
            s = by_id.get(s.parent_id)
        return None

    events = []
    for s in spans:
        label = layer(s)
        t = s.start
        for a, b in sorted((c.start, c.end) for c in children[s.span_id]):
            if a > t:
                events.append((t, min(a, s.end), label))
            t = max(t, b)
        if t < s.end:
            events.append((t, s.end, label))
    points = sorted({p for a, b, _ in events for p in (a, b)})
    edges = defaultdict(list)
    for idx, (a, b, _) in enumerate(events):
        edges[a].append((1, idx))
        edges[b].append((0, idx))
    totals: Dict[Optional[str], float] = defaultdict(float)
    active = set()
    prev = None
    for p in points:
        if prev is not None and active:
            share = (p - prev) / len(active)
            for idx in active:
                totals[events[idx][2]] += share
        for opening, idx in sorted(edges[p]):
            if opening:
                active.add(idx)
            else:
                active.discard(idx)
        prev = p
    return dict(totals)


# ---------------------------------------------------------------------- #
# tolerance-aware digests


def _weights(key: str, k: int) -> List[float]:
    raw = hashlib.sha256(key.encode("utf-8")).digest()
    return [int.from_bytes(raw[4 * i:4 * i + 4], "big") / 2 ** 31 - 1.0
            for i in range(k)]


def sketch(pairs: Iterable[Tuple[str, float]], k: int = 4) -> Dict:
    """A compact, tolerance-comparable digest of named numbers.

    Holds the exact count and name set (hashed) plus ``k`` random
    projections: each value times a weight in [-1, 1) drawn from a hash
    of its name. A single value off by d moves every projection by
    about |w|·d, so :func:`sketch_match` catches any deviation well
    above its tolerance while float reordering noise stays below it.
    """
    items = sorted(pairs)
    names = hashlib.sha256(
        "\n".join(name for name, _ in items).encode("utf-8")
    ).hexdigest()[:16]
    proj = [0.0] * k
    for name, value in items:
        for i, w in enumerate(_weights(name, k)):
            proj[i] += w * value
    return {"n": len(items), "names": names, "proj": proj}


def sketch_match(got: Dict, want: Dict, tol: float) -> bool:
    return (got["n"] == want["n"] and got["names"] == want["names"]
            and all(abs(a - b) <= tol * max(1.0, got["n"])
                    for a, b in zip(got["proj"], want["proj"])))


# ---------------------------------------------------------------------- #
# inputs


def standard_scenarios(design, period: float, input_delay: float):
    """The nine-view ``standard_scenario_set`` that ``repro signoff`` and
    ``repro serve`` build for ``design`` from --period/--input-delay."""
    from repro.liberty import LibraryCondition, make_library
    from repro.sta import Constraints
    from repro.sta.mcmm import standard_scenario_set

    constraints = Constraints.single_clock(period)
    constraints.input_delays = {
        p: input_delay for p in design.input_ports() if p != "clk"
    }
    return standard_scenario_set(
        constraints,
        lambda process, vdd, temp: make_library(
            LibraryCondition(process=process, vdd=vdd, temp_c=temp)),
    )
