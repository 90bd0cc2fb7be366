"""Compiled vectorized multi-corner STA kernel.

The reference engine (:mod:`repro.sta.propagation`) walks the object
graph once *per scenario*: with the paper's corner super-explosion (7
BEOL corners x Vt x temperature) that is N full Python traversals of the
same netlist. This module compiles the bound timing graph **once** into
flat numpy arrays — levelized edge lists, pin/arc index maps, and
stacked NLDM delay/slew/constraint table tensors with the corner as the
leading axis — and then propagates arrivals/slews for *every corner of
a mode simultaneously* in one batched forward pass.

Design rules that make the kernel trustworthy:

- **The reference engine is the oracle.** Compilation extracts the
  corner-independent net geometry once (routed length, layer rule, NDR,
  ``extra_cap``, star-path length per sink, sink pins) and derives every
  per-corner static — wire delays, slew degradations, driver loads,
  slew limits, derate factors — as array ops that scale that geometry
  by per-(layer, corner) R/C values and per-(cell pin, corner) library
  vectors. Every expression keeps the scalar code's float grouping
  (sums accumulate left to right, never through numpy's pairwise
  reduction), and ``tests/sta/test_kernel_compile.py`` pins the statics
  with exact equality against :class:`ParasiticExtractor` and
  :meth:`Derates.factor`. The equivalence harness
  (``tests/sta/test_kernel_equivalence.py``) pins arrivals, slews,
  endpoint slacks and startpoints at 1e-9 across MCMM corners, derates,
  SI on/off, multi-clock capture and CPPR.
- **Reports are array-native.** Setup/hold constraints are looked up in
  the stacked tensors, slacks are computed over endpoint index arrays,
  and startpoints come from one level-ordered pass over the
  backpointer arrays; :class:`EndpointResult` objects are built only
  from the final per-endpoint values. Path-level analyses (CPPR, PBA)
  run unchanged on :meth:`CompiledKernel.view`, an ordinary
  :class:`~repro.sta.analysis.STA` over a materialized propagation.
- **Compilation can refuse.** Corner libraries must be structurally
  congruent (same cells, arcs, senses and table shapes); anything else
  raises :class:`KernelCompileError` so callers fall back to the
  reference engine instead of mis-timing silently.

Observability: compilation emits a ``kernel_compile`` span with
``kernel_compile.index``/``.tables``/``.statics`` children, the batch a
``kernel_batch`` span, and every report a ``kernel_report`` span, plus
``kernel.compile_s`` and ``kernel.batch_corners`` metrics, so
``repro trace summarize`` shows where multi-corner time goes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.beol.corners import BeolCorner, conventional_corners
from repro.beol.stack import BeolStack, MetalLayer, default_stack
from repro.errors import LibraryError, TimingError
from repro.liberty.arcs import TimingArc, TimingType
from repro.liberty.library import Library
from repro.netlist.design import Design, Net, PinRef
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.parasitics.synthesis import (
    ParasiticExtractor,
    layer_rc_per_um,
    net_length,
)
from repro.sta.algebra import SCALAR
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints
from repro.sta.graph import CellEdge, NetEdge, TimingCheck, TimingGraph
from repro.sta.propagation import (
    DIRECTIONS,
    Arrival,
    Derates,
    PropagationResult,
)
from repro.sta.reports import EndpointResult, SlewViolation, TimingReport

#: The two timing engines the scheduler/closure stack can run.
ENGINES = ("reference", "vector")

_INF = math.inf
#: "No backpointer" sentinel in the pred-rank arrays.
_NO_PRED = np.iinfo(np.int64).max
#: Sink pin capacitance of a port (matches propagation._sink_pin_cap).
_PORT_PIN_CAP = 2.0


class KernelCompileError(TimingError):
    """The timing graph cannot be compiled for these corners.

    Raised when corner libraries are not structurally congruent (missing
    cells/arcs, differing senses or table shapes) or a corner name does
    not resolve. Callers treat this as "use the reference engine".
    """


@dataclass
class CornerSpec:
    """One corner of a batched mode: library condition + extraction view.

    All corners of one :class:`CompiledKernel` share the design and the
    mode constraints; everything else — library tables, BEOL corner,
    temperature, derates, SI — varies per corner.
    """

    name: str
    library: Library
    beol_corner: BeolCorner
    temp_c: float
    derates: Derates = field(default_factory=Derates)
    si_enabled: bool = False

    @classmethod
    def from_scenario(cls, scenario, stack: BeolStack) -> "CornerSpec":
        """The spec equivalent to :meth:`repro.sta.mcmm.Scenario.run`."""
        corners = conventional_corners(stack)
        try:
            beol = corners[scenario.beol_corner_name]
        except KeyError:
            raise KernelCompileError(
                f"unknown BEOL corner {scenario.beol_corner_name!r} "
                f"in scenario {scenario.name!r}"
            ) from None
        temp = scenario.temp_c if scenario.temp_c is not None \
            else scenario.library.temp_c
        return cls(
            name=scenario.name,
            library=scenario.library,
            beol_corner=beol,
            temp_c=temp,
            derates=scenario.derates,
            si_enabled=False,  # Scenario.run analyzes with SI off
        )

    @classmethod
    def from_sta(cls, sta: STA) -> "CornerSpec":
        """The spec equivalent to re-running an existing :class:`STA`."""
        return cls(
            name=sta.library.name,
            library=sta.library,
            beol_corner=sta.beol_corner,
            temp_c=sta.temp_c,
            derates=sta.derates,
            si_enabled=sta.si_enabled,
        )


class _SiGraphView:
    """The two attributes :func:`repro.sta.si.coupling_deltas` reads,
    bound to a *corner* library instead of the compile graph's."""

    def __init__(self, design: Design, library: Library):
        self.design = design
        self._library = library

    def cell_of(self, ref: PinRef):
        return self._library.cell(self.design.instance(ref.instance).cell_name)


def compile_kernel(
    design: Design,
    constraints: Constraints,
    corners: Sequence[CornerSpec],
    stack: Optional[BeolStack] = None,
    graph: Optional[TimingGraph] = None,
    parasitics: Optional[ParasiticExtractor] = None,
) -> "CompiledKernel":
    """Compile ``design`` against a batch of corners.

    ``graph``/``parasitics`` let a caller that already holds a bound
    graph (the incremental timer) reuse it; when given, the graph must
    have been built against ``corners[0].library``.
    """
    return CompiledKernel(design, constraints, list(corners),
                          stack=stack, graph=graph, parasitics=parasitics)


def kernel_full_run(sta: STA) -> Tuple[TimingReport, "CompiledKernel"]:
    """Time one already-constructed STA through the vector kernel.

    Produces the same ``sta.prop`` / ``sta.si_delta`` / report a
    reference :meth:`~repro.sta.analysis.STA.run` would, so path
    reconstruction, PBA and the closure loop's fix targeting work
    unchanged on the result. Raises :class:`KernelCompileError` when the
    graph cannot be compiled (caller falls back to ``sta.run()``).
    """
    kernel = compile_kernel(
        sta.design, sta.constraints, [CornerSpec.from_sta(sta)],
        stack=sta.stack, graph=sta.graph, parasitics=sta.parasitics,
    )
    kernel.run()
    sta.si_delta = kernel.si_delta_for(0)
    sta.prop = kernel.materialize_prop(0)
    return kernel.report(0), kernel


# ---------------------------------------------------------------------- #
# path-level views


class _CornerGraph:
    """A :class:`TimingGraph`-shaped proxy for one corner.

    Shares the compile graph's structure (adjacency, clock network,
    levelization, depths) but binds checks, cell lookups and — lazily —
    edge arcs to the corner's library, so PBA path re-propagation reads
    that corner's tables.
    """

    def __init__(self, kernel: "CompiledKernel", ci: int):
        base = kernel.graph
        self._kernel = kernel
        self._ci = ci
        self.design = base.design
        self.library = kernel.corners[ci].library
        self.constraints = base.constraints
        self.checks = kernel._corner_checks[ci]
        self.clock_pins = base.clock_pins
        self.clock_roots = base.clock_roots
        self.topo_order = base.topo_order
        self.data_depth = base.data_depth

    # Adjacency with corner-rebound cell arcs, built on first use (only
    # PBA's path enumeration needs it).
    @property
    def in_edges(self):
        return self._kernel._rebound_adjacency(self._ci)[0]

    @property
    def out_edges(self):
        return self._kernel._rebound_adjacency(self._ci)[1]

    def setup_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if c.is_setup]

    def hold_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if not c.is_setup]

    def output_port_refs(self) -> List[PinRef]:
        return [PinRef("", p) for p in self.design.output_ports()]

    def load_pin_refs(self, net_name: str) -> List[PinRef]:
        return list(self.design.get_net(net_name).loads)

    def instance_of(self, ref: PinRef):
        if ref.is_port:
            raise TimingError(f"{ref} is a port, not an instance pin")
        return self.design.instance(ref.instance)

    def cell_of(self, ref: PinRef):
        return self.library.cell(self.instance_of(ref).cell_name)

    def stats(self) -> Dict[str, int]:
        return self._kernel.graph.stats()


class CornerView(STA):
    """An :class:`STA` whose run state comes from the kernel's batch.

    Path-level analyses — worst-path reconstruction, CPPR, PBA — are
    inherited unchanged from the reference implementation and read this
    view's materialized ``prop`` and corner-bound ``graph``. Views are
    read-only analyses; do not hand one to the incremental timer.
    """

    def __init__(self, kernel: "CompiledKernel", ci: int):
        # Deliberately no super().__init__(): the design stays bound to
        # the compile library (binding is library-independent for
        # congruent libraries) and no new graph is built.
        spec = kernel.corners[ci]
        self.design = kernel.design
        self.library = spec.library
        self.constraints = kernel.constraints
        self.stack = kernel.stack
        self.temp_c = spec.temp_c
        self.beol_corner = spec.beol_corner
        self.derates = spec.derates
        self.si_enabled = spec.si_enabled
        self.parasitics = kernel._extractor(ci)
        self.graph = _CornerGraph(kernel, ci)
        self.prop = kernel.materialize_prop(ci)
        self.si_delta = kernel.si_delta_for(ci)
        self.algebra = SCALAR  # kernel batches are always scalar
        self.report: Optional[TimingReport] = None

    def run(self) -> TimingReport:
        raise TimingError(
            "CornerView state comes from CompiledKernel.run(); "
            "re-running a view is not supported"
        )


# ---------------------------------------------------------------------- #
# compile-time tables


@dataclass
class _NetGeometry:
    """Corner-independent extraction inputs of the nets a kernel times.

    Nets are the sources of net edges plus the nets cell edges drive;
    "pin keys" are the distinct ``(cell, pin)`` pairs (``None`` for a
    port) whose capacitance and max-transition each corner library
    supplies.
    """

    #: Distinct routing rules: (layer, NDR flag).
    rules: List[Tuple[MetalLayer, bool]]
    net_rule: np.ndarray    # (nets,) rule id
    length: np.ndarray      # (nets,) routed length, um
    extra_cap: np.ndarray   # (nets,) fF
    sink_net: np.ndarray    # (unique net edges,) net id
    sink_path: np.ndarray   # (unique net edges,) star path length, um
    sink_pin: np.ndarray    # (unique net edges,) pin key of the sink
    load_net: np.ndarray    # (unique cell edges,) net id of the driven net
    #: Per load position k of the driven nets: (net ids, pin keys), so
    #: pin caps sum column by column in ``net.loads`` order.
    fanout_cols: List[Tuple[np.ndarray, np.ndarray]]
    pin_keys: List[Optional[Tuple[str, str]]]
    pin_key_of_pin: np.ndarray  # (timing pins,) pin key


@dataclass
class _CheckIndex:
    """Index arrays of one family of flop checks (setup or hold)."""

    check_ids: List[int]     # positions in ``graph.checks``
    data_pin: np.ndarray     # pin index (0 when the pin is untimed)
    data_timed: np.ndarray   # bool: the data pin is a timing pin
    clock_pin: np.ndarray    # pin index of CK (0 when untimed)
    clock_timed: np.ndarray  # bool
    latency: np.ndarray      # useful-skew clock latency of the flop
    tid: np.ndarray          # (checks, 2) constraint table per direction


# ---------------------------------------------------------------------- #
# the kernel


class CompiledKernel:
    """Flat-array form of one (design, constraints, corner batch).

    Compilation happens in ``__init__``; :meth:`run` executes the
    batched forward pass; :meth:`report`/:meth:`reports` produce
    per-corner :class:`TimingReport` objects bit-compatible with the
    reference engine; :meth:`view` exposes a full STA-compatible
    per-corner view for path-level analyses.
    """

    def __init__(
        self,
        design: Design,
        constraints: Constraints,
        corners: List[CornerSpec],
        stack: Optional[BeolStack] = None,
        graph: Optional[TimingGraph] = None,
        parasitics: Optional[ParasiticExtractor] = None,
    ):
        if not corners:
            raise KernelCompileError("a kernel batch needs at least one corner")
        self.design = design
        self.constraints = constraints
        self.corners = corners
        self.stack = stack or default_stack()
        self.valid = True
        self._ran = False
        #: Vectorized batch steps executed by :meth:`run` (one per
        #: non-empty level x edge-kind) — the denominator of the
        #: deterministic work ratio.
        self.batch_ops = 0
        #: Vectorized NLDM table evaluations (4 per cell batch step).
        self.batch_lookups = 0
        # Per-corner extractors, built only for SI and path-level views.
        self._extractors: Dict[int, ParasiticExtractor] = {}
        if parasitics is not None:
            self._extractors[0] = parasitics

        t0 = time.perf_counter()
        with obs_tracing.span(
            "kernel_compile", design=design.name, corners=len(corners),
        ) as span:
            if graph is None:
                design.bind(corners[0].library)
                graph = TimingGraph(design, corners[0].library, constraints)
            self.graph = graph
            self._compile()
            span.set(pins=len(self.pins), levels=self.n_levels,
                     net_expansions=self.n_net_expansions,
                     cell_expansions=self.n_cell_expansions)
        self.compile_s = time.perf_counter() - t0
        obs_metrics.observe("kernel.compile_s", self.compile_s)

        # Per-corner caches filled after run().
        self._arr_late = None
        self._arr_early = None
        self._slew_late = None
        self._slew_early = None
        self._cand_late = None
        self._cand_early = None
        self._pred_rank_cache: Dict[Tuple[int, str], np.ndarray] = {}
        self._view_cache: Dict[int, CornerView] = {}
        self._loads_cache: Dict[int, Dict[PinRef, float]] = {}
        self._rebound_cache: Dict[int, Tuple[dict, dict]] = {}

    # ------------------------------------------------------------------ #
    # compilation

    def _compile(self) -> None:
        with obs_tracing.span("kernel_compile.index"):
            self._index()
        with obs_tracing.span("kernel_compile.tables"):
            self._stack_tables()
        with obs_tracing.span("kernel_compile.statics"):
            self._fill_statics(self._net_geometry())
        self._seed()

    def _index(self) -> None:
        """Pin/node maps, levels, expanded edges and the level schedule
        (all corner-independent)."""
        graph = self.graph
        latency = self.constraints.clock_latency

        # --- pin index maps ------------------------------------------- #
        # node = pin_index * 2 + direction (0 = rise, 1 = fall)
        self.pins: List[PinRef] = list(graph.topo_order)
        self.pin_index: Dict[PinRef, int] = {
            ref: i for i, ref in enumerate(self.pins)
        }
        self.n_nodes = 2 * len(self.pins)
        # (instance, pin) tuples hash in C; PinRef hashes in Python
        pid = {(ref.instance, ref.pin): i for i, ref in enumerate(self.pins)}
        is_clock_pin = np.zeros(len(self.pins), dtype=bool)
        for ref in graph.clock_pins:
            i = pid.get((ref.instance, ref.pin))
            if i is not None:
                is_clock_pin[i] = True
        self._is_clock_pin = is_clock_pin

        # --- levels and expanded edges, in reference offer order ------- #
        # Levels are longest-path levels over the pin graph. Global
        # expansion order = topo pins x in-edge list order x the
        # reference engine's per-edge direction loops; candidate ranks in
        # this order reproduce the reference "strict >" first-setter
        # backpointers.
        pin_lvl = [0] * len(self.pins)
        ne_pins: List[Tuple[int, int]] = []    # per unique net edge
        ce_pins: List[Tuple[int, int]] = []    # per unique cell edge
        ce_skew: List[float] = []
        ce_depth: List[int] = []
        unique_net_edges: List[NetEdge] = []
        unique_cell_edges: List[CellEdge] = []
        net_rows: List[int] = []   # expansion ids of net rows (rise, fall)
        cell_rows: List[int] = []  # expansion ids of cell rows
        cell_uid: List[int] = []   # per cell row: unique cell-edge id
        cell_dirs: List[Tuple[int, int]] = []  # per cell row: (in, out)
        arc_dirs: Dict[int, List[Tuple[int, int]]] = {}
        e_edge: List[object] = []  # NetEdge | CellEdge per expansion
        n_exp = 0
        for dst, ref in enumerate(self.pins):
            edges = graph.in_edges.get(ref)
            if not edges:
                continue
            srcs = []
            lvl = 0
            for edge in edges:
                if type(edge) is NetEdge:
                    drv = edge.driver
                    src = pid[(drv.instance, drv.pin)]
                else:
                    src = pid[(edge.instance, edge.arc.related_pin)]
                srcs.append(src)
                lvl = max(lvl, pin_lvl[src] + 1)
            pin_lvl[dst] = lvl
            depth = None
            for edge, src in zip(edges, srcs):
                if type(edge) is NetEdge:
                    unique_net_edges.append(edge)
                    ne_pins.append((src, dst))
                    net_rows += (n_exp, n_exp + 1)
                    e_edge += (edge, edge)
                    n_exp += 2
                    continue
                arc = edge.arc
                dirs = arc_dirs.get(id(arc))
                if dirs is None:
                    dirs = arc_dirs[id(arc)] = [
                        (in_d, int(out_dir == "fall"))
                        for in_d, in_dir in enumerate(DIRECTIONS)
                        for out_dir in arc.sense.output_directions(in_dir)
                        if out_dir in arc.timing
                    ]
                if depth is None:
                    depth = graph.data_depth.get(ref, 1)
                ce = len(unique_cell_edges)
                unique_cell_edges.append(edge)
                ce_pins.append((src, dst))
                ce_skew.append(
                    latency.get(edge.instance, 0.0)
                    if arc.timing_type is TimingType.RISING_EDGE else 0.0)
                ce_depth.append(depth)
                for in_out in dirs:
                    cell_rows.append(n_exp)
                    cell_uid.append(ce)
                    cell_dirs.append(in_out)
                    e_edge.append(edge)
                    n_exp += 1

        self._pin_lvl = np.asarray(pin_lvl, dtype=np.int64)
        self.n_levels = int(self._pin_lvl.max()) + 1 if pin_lvl else 0
        self.n_net_expansions = len(net_rows)
        self.n_cell_expansions = len(cell_rows)
        self._net_rows = np.asarray(net_rows, dtype=np.int64)
        self._cell_rows = np.asarray(cell_rows, dtype=np.int64)
        self._cell_edge_of = np.asarray(cell_uid, dtype=np.int64)
        self._unique_net_edges = unique_net_edges
        self._unique_cell_edges = unique_cell_edges

        ne_pins_a = np.asarray(ne_pins, dtype=np.int64).reshape(-1, 2)
        self._ne_sink_pin = ne_pins_a[:, 1]
        ce_pins_a = np.asarray(ce_pins, dtype=np.int64).reshape(-1, 2)
        cell_dirs_a = np.asarray(cell_dirs, dtype=np.int64).reshape(-1, 2)
        net_dir = np.tile(np.asarray([0, 1], dtype=np.int64),
                          len(unique_net_edges))
        net_ne = np.repeat(np.arange(len(unique_net_edges)), 2)
        cell_pins = ce_pins_a[self._cell_edge_of]
        self.e_src = np.zeros(n_exp, dtype=np.int64)
        self.e_dst = np.zeros(n_exp, dtype=np.int64)
        self.e_src_dir = np.zeros(n_exp, dtype=np.int64)
        self.e_src[self._net_rows] = 2 * ne_pins_a[net_ne, 0] + net_dir
        self.e_dst[self._net_rows] = 2 * ne_pins_a[net_ne, 1] + net_dir
        self.e_src_dir[self._net_rows] = net_dir
        self.e_src[self._cell_rows] = 2 * cell_pins[:, 0] + cell_dirs_a[:, 0]
        self.e_dst[self._cell_rows] = 2 * cell_pins[:, 1] + cell_dirs_a[:, 1]
        self.e_src_dir[self._cell_rows] = cell_dirs_a[:, 0]
        self.e_edge = e_edge

        self._cell_is_clock = is_clock_pin[cell_pins[:, 0]]
        self._cell_depth = np.asarray(ce_depth,
                                      dtype=np.int64)[self._cell_edge_of]
        self._skew = np.zeros(n_exp)
        self._skew[self._cell_rows] = np.asarray(ce_skew)[self._cell_edge_of]

        # Per-level schedule: net batch then cell batch, like the
        # reference's in-edge interleave (order across kinds within a
        # level is irrelevant: all sources live in earlier levels).
        e_level = self._pin_lvl[self.e_dst >> 1]
        self._schedule: List[Tuple[np.ndarray, np.ndarray]] = list(zip(
            self._split_by_level(self._net_rows, e_level[self._net_rows]),
            self._split_by_level(self._cell_rows, e_level[self._cell_rows]),
        ))
        # Nodes per level >= 1 (level-0 pins have no fanin): the order
        # of the startpoint pass over the backpointers.
        self._level_nodes = self._split_by_level(
            np.arange(self.n_nodes, dtype=np.int64),
            np.repeat(self._pin_lvl, 2))[1:]

    @property
    def pin_level(self) -> Dict[PinRef, int]:
        """Longest-path level of every timing pin."""
        return dict(zip(self.pins, self._pin_lvl.tolist()))

    @property
    def _node_index(self) -> Dict[Tuple[PinRef, str], int]:
        """(pin, direction) -> node id."""
        return {(ref, direction): 2 * i + d
                for i, ref in enumerate(self.pins)
                for d, direction in enumerate(DIRECTIONS)}

    def _split_by_level(self, ids: np.ndarray,
                        levels: np.ndarray) -> List[np.ndarray]:
        """``ids`` grouped by level (0..n_levels-1), order kept within
        each level."""
        order = np.argsort(levels, kind="stable")
        counts = np.bincount(levels, minlength=self.n_levels)
        return np.split(ids[order], np.cumsum(counts)[:-1])

    def _stack_tables(self) -> None:
        """Corner congruence, per-corner checks and the stacked NLDM
        delay/slew/constraint tensors."""
        graph = self.graph
        design = self.design
        n_corners = len(self.corners)

        # --- per-corner arc congruence maps ---------------------------- #
        self._arc_map_cache: Dict[Tuple[int, str], Dict] = {}
        # Corner-swapped CellEdge cache, keyed (corner, id(base edge)) —
        # shared by pred backpointers and rebound adjacency so the same
        # swapped object serves both (PBA walks rely on that).
        self._edge_swap_cache: Dict[int, Dict[int, CellEdge]] = {}
        cell_names = {inst.cell_name for inst in design.instances.values()}
        for ci in range(1, n_corners):
            missing = cell_names.difference(self.corners[ci].library.cells)
            if missing:
                raise KernelCompileError(
                    f"corner {self.corners[ci].name!r} library lacks "
                    f"cell(s) {sorted(missing)}"
                )
        self._corner_checks: List[List[TimingCheck]] = [list(graph.checks)]
        for ci in range(1, n_corners):
            checks_c = []
            for check in graph.checks:
                cell_name = design.instance(check.instance).cell_name
                arc = self._corner_arc(ci, cell_name, check.arc)
                checks_c.append(TimingCheck(
                    instance=check.instance, data_pin=check.data_pin,
                    clock_pin=check.clock_pin, arc=arc,
                ))
            self._corner_checks.append(checks_c)

        # --- stacked table tensors (corner-leading axis) --------------- #
        # tid registry: (cell_name, related, pin, timing_type, which,
        # direction) -> tid; the same cell type shares tables across
        # instances, so T is small even for large designs.
        tid_of: Dict[Tuple, int] = {}
        tid_tables: List[List] = []  # per tid: per-corner LookupTable2D

        def register(key: Tuple, tables: List) -> int:
            tid = tid_of.get(key)
            if tid is None:
                tid = tid_of[key] = len(tid_tables)
                tid_tables.append(tables)
            return tid

        def corner_timing(cell_name: str, arc0: TimingArc, out_dir: str):
            timings = []
            for ci, spec in enumerate(self.corners):
                arc = self._corner_arc(ci, cell_name, arc0)
                timing = arc.timing.get(out_dir)
                if timing is None:
                    raise KernelCompileError(
                        f"corner {spec.name!r}: arc "
                        f"{arc0.related_pin}->{arc0.pin} of {cell_name} "
                        f"lacks timing for {out_dir!r}"
                    )
                timings.append(timing)
            return timings

        def arc_tids(cell_name: str, arc: TimingArc) -> List[List[int]]:
            """[[delay tid, slew tid] per output direction] of one arc."""
            tids = [[0, 0], [0, 0]]
            for fall, out_dir in enumerate(DIRECTIONS):
                if out_dir not in arc.timing:
                    continue
                timings = corner_timing(cell_name, arc, out_dir)
                key = (cell_name, arc.related_pin, arc.pin,
                       arc.timing_type, out_dir)
                tids[fall] = [
                    register(key + ("delay",), [t.delay for t in timings]),
                    register(key + ("slew",), [t.slew for t in timings]),
                ]
            return tids

        # (delay, slew) tids per unique cell edge and output direction;
        # instances of one cell share the library's arc objects
        tids_of_arc: Dict[Tuple[str, int], List[List[int]]] = {}
        edge_tids = []
        for edge in self._unique_cell_edges:
            cell_name = design.instance(edge.instance).cell_name
            key = (cell_name, id(edge.arc))
            tids = tids_of_arc.get(key)
            if tids is None:
                tids = tids_of_arc[key] = arc_tids(cell_name, edge.arc)
            edge_tids.append(tids)
        edge_tids = np.asarray(edge_tids, dtype=np.int64).reshape(-1, 2, 2)

        def constraint_tid(check: TimingCheck, direction: str) -> int:
            cell_name = design.instance(check.instance).cell_name
            arc0 = check.arc
            key = (cell_name, arc0.related_pin, arc0.pin, arc0.timing_type,
                   "constraint", direction)
            tid = tid_of.get(key)
            if tid is not None:
                return tid
            tables = []
            for ci, spec in enumerate(self.corners):
                arc = self._corner_arc(ci, cell_name, arc0)
                table = arc.constraint.get(direction)
                if table is None:
                    raise KernelCompileError(
                        f"corner {spec.name!r}: check arc "
                        f"{arc0.related_pin}->{arc0.pin} of {cell_name} "
                        f"lacks a constraint table for {direction!r}"
                    )
                tables.append(table)
            return register(key, tables)

        self._check_index = {}
        for kind, is_setup in (("setup", True), ("hold", False)):
            ids = [i for i, c in enumerate(graph.checks)
                   if c.is_setup is is_setup]
            self._check_index[kind] = self._index_checks(
                ids, [[constraint_tid(graph.checks[i], d)
                       for d in DIRECTIONS] for i in ids])

        n_tables = len(tid_tables)
        s_max = max((t[0].index_1.size for t in tid_tables), default=2)
        l_max = max((t[0].index_2.size for t in tid_tables), default=2)
        self._grid1 = np.full((n_corners, n_tables, s_max), _INF)
        self._grid2 = np.full((n_corners, n_tables, l_max), _INF)
        self._values = np.zeros((n_corners, n_tables, s_max, l_max))
        self._clamp1 = np.zeros(n_tables, dtype=np.int64)
        self._clamp2 = np.zeros(n_tables, dtype=np.int64)
        for t, tabs in enumerate(tid_tables):
            shape = tabs[0].values.shape
            self._clamp1[t] = shape[0] - 2
            self._clamp2[t] = shape[1] - 2
            for ci, table in enumerate(tabs):
                if table.values.shape != shape:
                    raise KernelCompileError(
                        f"corner {self.corners[ci].name!r}: table shape "
                        f"{table.values.shape} differs from corner 0's "
                        f"{shape}; cannot stack"
                    )
                self._grid1[ci, t, :shape[0]] = table.index_1
                self._grid2[ci, t, :shape[1]] = table.index_2
                self._values[ci, t, :shape[0], :shape[1]] = table.values
        self.n_tables = n_tables

        # Global (n_exp,) arrays; only cell rows are meaningful.
        n_exp = len(self.e_src)
        row_tids = edge_tids[self._cell_edge_of,
                             self.e_dst[self._cell_rows] & 1]
        self._dtid = np.zeros(n_exp, dtype=np.int64)
        self._stid = np.zeros(n_exp, dtype=np.int64)
        self._dtid[self._cell_rows] = row_tids[:, 0]
        self._stid[self._cell_rows] = row_tids[:, 1]

    def _index_checks(self, ids: List[int],
                      tids: List[List[int]]) -> _CheckIndex:
        checks = self.graph.checks
        latency = self.constraints.clock_latency

        def pins_of(refs):
            idx = [self.pin_index.get(ref, -1) for ref in refs]
            arr = np.asarray(idx, dtype=np.int64)
            return np.maximum(arr, 0), arr >= 0

        data_pin, data_timed = pins_of([checks[i].data_pin for i in ids])
        clock_pin, clock_timed = pins_of([checks[i].clock_pin for i in ids])
        return _CheckIndex(
            check_ids=ids,
            data_pin=data_pin, data_timed=data_timed,
            clock_pin=clock_pin, clock_timed=clock_timed,
            latency=np.asarray([latency.get(checks[i].instance, 0.0)
                                for i in ids], dtype=float),
            tid=np.asarray(tids, dtype=np.int64).reshape(len(ids), 2),
        )

    def _net_geometry(self) -> _NetGeometry:
        """Corner-independent geometry of every net the kernel times —
        the inputs :meth:`ParasiticExtractor.extract` scales per corner."""
        design = self.design
        net_id: Dict[str, int] = {}
        nets: List[Net] = []
        pin_key_id: Dict[Optional[Tuple[str, str]], int] = {}
        pin_keys: List[Optional[Tuple[str, str]]] = []

        def net_of(name: str) -> int:
            i = net_id.get(name)
            if i is None:
                i = net_id[name] = len(nets)
                nets.append(design.get_net(name))
            return i

        cell_of = {name: inst.cell_name
                   for name, inst in design.instances.items()}

        def key_of(ref: PinRef) -> int:
            key = (cell_of[ref.instance], ref.pin) if ref.instance else None
            i = pin_key_id.get(key)
            if i is None:
                i = pin_key_id[key] = len(pin_keys)
                pin_keys.append(key)
            return i

        pin_key_of_pin = np.asarray([key_of(ref) for ref in self.pins],
                                    dtype=np.int64)

        sink_net = [net_of(edge.net_name) for edge in self._unique_net_edges]
        load_net = [net_of(design.instance(edge.instance).net_of(edge.arc.pin))
                    for edge in self._unique_cell_edges]
        lengths = [net_length(design, net) for net in nets]

        rule_id: Dict[Tuple[str, bool], int] = {}
        rules: List[Tuple[MetalLayer, bool]] = []
        net_rule = []
        for net, length in zip(nets, lengths):
            layer = self.stack.layer_for_route(length, ndr=net.ndr)
            key = (layer.name, net.ndr)
            if key not in rule_id:
                rule_id[key] = len(rules)
                rules.append((layer, net.ndr))
            net_rule.append(rule_id[key])

        # Star topology, as extracted: a trunk of half the length, then
        # branches of increasing length in sorted-sink order.
        sink_rank: Dict[int, Dict[PinRef, int]] = {}
        sink_path = []
        for edge, n_id in zip(self._unique_net_edges, sink_net):
            net = nets[n_id]
            ranks = sink_rank.get(n_id)
            if ranks is None:
                ranks = sink_rank[n_id] = {
                    sink: k
                    for k, sink in enumerate(sorted(net.loads, key=str))
                }
            length = lengths[n_id]
            trunk = 0.5 * length
            branch_total = length - trunk
            branch = branch_total * (ranks[edge.sink] + 1) / len(net.loads)
            sink_path.append(trunk + branch)

        cols: List[Tuple[List[int], List[int]]] = []
        key_list = pin_key_of_pin.tolist()
        for n_id in sorted(set(load_net)):
            for k, ref in enumerate(nets[n_id].loads):
                if k == len(cols):
                    cols.append(([], []))
                cols[k][0].append(n_id)
                cols[k][1].append(key_list[self.pin_index[ref]])

        return _NetGeometry(
            rules=rules,
            net_rule=np.asarray(net_rule, dtype=np.int64),
            length=np.asarray(lengths, dtype=float),
            extra_cap=np.asarray([net.extra_cap for net in nets],
                                 dtype=float),
            sink_net=np.asarray(sink_net, dtype=np.int64),
            sink_path=np.asarray(sink_path, dtype=float),
            sink_pin=pin_key_of_pin[self._ne_sink_pin],
            load_net=np.asarray(load_net, dtype=np.int64),
            fanout_cols=[(np.asarray(n, dtype=np.int64),
                          np.asarray(k, dtype=np.int64)) for n, k in cols],
            pin_keys=pin_keys,
            pin_key_of_pin=pin_key_of_pin,
        )

    def _fill_statics(self, geo: _NetGeometry) -> None:
        """Every per-corner static as array ops over the geometry, with
        the scalar extractor's float grouping."""
        corners = self.corners
        C = len(corners)
        n_exp = len(self.e_src)

        # per-(rule, corner) R/Cg/Cc per um and per-(pin key, corner)
        # capacitance and max-transition
        rc = np.asarray([
            [layer_rc_per_um(layer, spec.beol_corner, spec.temp_c, ndr)
             for spec in corners]
            for layer, ndr in geo.rules
        ], dtype=float).reshape(len(geo.rules), C, 3)
        pin_cap = np.empty((len(geo.pin_keys), C))
        pin_limit = np.empty((len(geo.pin_keys), C))
        for ci, spec in enumerate(corners):
            lib = spec.library
            default = self.constraints.max_transition or \
                lib.default_max_transition
            for k, key in enumerate(geo.pin_keys):
                if key is None:
                    pin_cap[k, ci] = _PORT_PIN_CAP
                    pin_limit[k, ci] = _INF  # ports are exempt
                    continue
                pin = lib.cell(key[0]).pin(key[1])
                pin_cap[k, ci] = pin.capacitance
                pin_limit[k, ci] = pin.max_transition or default
        self._slew_limit = pin_limit[geo.pin_key_of_pin]

        r = rc[geo.net_rule, :, 0]
        cg = rc[geo.net_rule, :, 1]
        cc = rc[geo.net_rule, :, 2]
        length = geo.length[:, None]
        coupling_cap = cc * length * 0.5
        wire_cap = cg * length + coupling_cap + geo.extra_cap[:, None]

        # driver loads: wire cap plus the sinks' pin caps, summed left to
        # right in net.loads order (column k adds every net's k-th load)
        caps_total = np.zeros((len(geo.length), C))
        for nets_k, keys_k in geo.fanout_cols:
            caps_total[nets_k] += pin_cap[keys_k]
        self._uload = wire_cap[geo.load_net] + caps_total[geo.load_net]
        self._load = np.zeros((n_exp, C))
        if self._cell_rows.size:
            self._load[self._cell_rows] = self._uload[self._cell_edge_of]

        # wire delays per unique net edge, broadcast to rise/fall rows
        ne = geo.sink_net
        path = geo.sink_path[:, None]
        sink_r = r[ne] * path
        sink_c = (cg[ne] + 0.5 * cc[ne]) * path
        base = sink_r * (0.5 * sink_c + pin_cap[geo.sink_pin])
        degrade = 2.0 * base
        delta = np.zeros_like(base)
        self._si_deltas: List[Optional[Dict[str, float]]] = [None] * C
        for ci, spec in enumerate(corners):
            if spec.si_enabled:
                from repro.sta.si import coupling_deltas

                si = coupling_deltas(_SiGraphView(self.design, spec.library),
                                     self._extractor(ci))
                self._si_deltas[ci] = si
                delta[:, ci] = [si.get(edge.net_name, 0.0)
                                for edge in self._unique_net_edges]
        early = np.maximum(base - delta, 0.0)
        rows = self._net_rows
        self._wire_base = np.zeros((n_exp, C))
        self._wire_delta = np.zeros((n_exp, C))
        self._wire_degrade = np.zeros((n_exp, C))
        self._wire_early = np.zeros((n_exp, C))
        self._wire_base[rows] = np.repeat(base, 2, axis=0)
        self._wire_delta[rows] = np.repeat(delta, 2, axis=0)
        self._wire_degrade[rows] = np.repeat(degrade, 2, axis=0)
        self._wire_early[rows] = np.repeat(early, 2, axis=0)

        # derate factors: flat x AOCV (once per distinct depth) x
        # per-instance, in Derates.factor's order
        self._factor_late = np.ones((n_exp, C))
        self._factor_early = np.ones((n_exp, C))
        cell_rows = self._cell_rows
        is_clock = self._cell_is_clock
        depths, depth_of = np.unique(np.maximum(self._cell_depth, 1),
                                     return_inverse=True)
        inst_id: Dict[str, int] = {}
        row_inst = np.asarray([
            inst_id.setdefault(self._unique_cell_edges[ce].instance,
                               len(inst_id))
            for ce in self._cell_edge_of.tolist()
        ], dtype=np.int64)
        for ci, spec in enumerate(corners):
            d = spec.derates
            for mode, out, clock_f, data_f, table in (
                ("late", self._factor_late, d.clock_late, d.data_late,
                 d.instance_late),
                ("early", self._factor_early, d.clock_early, d.data_early,
                 d.instance_early),
            ):
                f = np.where(is_clock, clock_f, data_f)
                if d.aocv is not None:
                    aocv = np.asarray([
                        d.aocv.derate(int(depth), d.aocv_distance, mode)
                        for depth in depths
                    ])
                    f = f * aocv[depth_of]
                if table:
                    per_inst = np.ones(len(inst_id))
                    for name, value in table.items():
                        i = inst_id.get(name)
                        if i is not None:
                            per_inst[i] = value
                    f = f * per_inst[row_inst]
                out[cell_rows, ci] = f

    def _seed(self) -> None:
        """Seeds (corner-independent; exact reference offer replay)."""
        design = self.design
        seed_arr: Dict[int, Arrival] = {}
        for clock in self.constraints.clocks.values():
            pin = self.pin_index.get(PinRef("", clock.port))
            if pin is None:
                continue
            for node in (2 * pin, 2 * pin + 1):
                arr = seed_arr.setdefault(node, Arrival())
                arr.offer_late(clock.source_latency, clock.slew, None)
                arr.offer_early(clock.source_latency, clock.slew, None)
        clock_ports = {c.port for c in self.constraints.clocks.values()}
        for port in design.input_ports():
            if port in clock_ports:
                continue
            delay = self.constraints.input_delays.get(port, 0.0)
            pin = self.pin_index.get(PinRef("", port))
            if pin is None:
                continue
            for node in (2 * pin, 2 * pin + 1):
                arr = seed_arr.setdefault(node, Arrival())
                arr.offer_late(delay, self.constraints.default_input_slew,
                               None)
                arr.offer_early(delay, self.constraints.default_input_slew,
                                None)
        self._seeds = seed_arr

    def _extractor(self, ci: int) -> ParasiticExtractor:
        """Corner ``ci``'s scalar extractor, built on first use (SI and
        path-level views; the batch statics never need one)."""
        para = self._extractors.get(ci)
        if para is None:
            spec = self.corners[ci]
            para = ParasiticExtractor(
                self.design, spec.library, self.stack, spec.beol_corner,
                temp_c=spec.temp_c,
            )
            self._extractors[ci] = para
        return para

    def _corner_arc(self, ci: int, cell_name: str,
                    arc0: TimingArc) -> TimingArc:
        """The corner-``ci`` arc congruent to ``arc0`` (by related pin,
        pin and timing type), or :class:`KernelCompileError`."""
        if ci == 0:
            return arc0
        cache_key = (ci, cell_name)
        arc_map = self._arc_map_cache.get(cache_key)
        if arc_map is None:
            lib = self.corners[ci].library
            try:
                cell = lib.cell(cell_name)
            except LibraryError:
                raise KernelCompileError(
                    f"corner {self.corners[ci].name!r} library lacks "
                    f"cell {cell_name!r}"
                ) from None
            arc_map = {
                (a.related_pin, a.pin, a.timing_type): a for a in cell.arcs
            }
            self._arc_map_cache[cache_key] = arc_map
        arc = arc_map.get((arc0.related_pin, arc0.pin, arc0.timing_type))
        if arc is None:
            raise KernelCompileError(
                f"corner {self.corners[ci].name!r}: cell {cell_name!r} "
                f"lacks arc {arc0.related_pin}->{arc0.pin} "
                f"({arc0.timing_type.value})"
            )
        if arc.sense is not arc0.sense:
            raise KernelCompileError(
                f"corner {self.corners[ci].name!r}: arc "
                f"{arc0.related_pin}->{arc0.pin} of {cell_name!r} changes "
                f"sense ({arc0.sense.value} vs {arc.sense.value})"
            )
        return arc

    # ------------------------------------------------------------------ #
    # the batched forward pass

    def invalidate(self) -> None:
        """Mark the compiled arrays stale (topology/table edit)."""
        self.valid = False

    def run(self) -> None:
        """Propagate every corner simultaneously."""
        if not self.valid:
            raise TimingError("kernel was invalidated; recompile first")
        n_corners = len(self.corners)
        with obs_tracing.span(
            "kernel_batch", design=self.design.name, corners=n_corners,
            levels=self.n_levels,
        ):
            self._run_batch()
        obs_metrics.observe("kernel.batch_corners", n_corners)
        obs_metrics.inc("kernel.batches")
        self._ran = True

    def _run_batch(self) -> None:
        C = len(self.corners)
        N = self.n_nodes
        E = len(self.e_src)
        arr_l = np.full((N, C), -_INF)
        arr_e = np.full((N, C), _INF)
        slew_l = np.zeros((N, C))
        slew_e = np.full((N, C), _INF)
        cand_l = np.full((E, C), -_INF)
        cand_e = np.full((E, C), _INF)
        self.batch_ops = 0
        self.batch_lookups = 0

        for node, arr in self._seeds.items():
            arr_l[node, :] = arr.late
            arr_e[node, :] = arr.early
            slew_l[node, :] = arr.slew_late
            slew_e[node, :] = arr.slew_early

        src, dst = self.e_src, self.e_dst
        for net_ids, cell_ids in self._schedule:
            if net_ids.size:
                e = net_ids
                s, d = src[e], dst[e]
                al = arr_l[s]
                has = al > -_INF
                cl = np.where(has, (al + self._wire_base[e])
                              + self._wire_delta[e], -_INF)
                sl = np.where(has, slew_l[s] + self._wire_degrade[e], 0.0)
                ae = arr_e[s]
                me = has & (ae < _INF)
                ce = np.where(me, ae + self._wire_early[e], _INF)
                se_src = slew_e[s]
                se = np.where(
                    me,
                    np.where(np.isfinite(se_src), se_src, 0.0)
                    + self._wire_degrade[e],
                    _INF,
                )
                cand_l[e] = cl
                cand_e[e] = ce
                np.maximum.at(arr_l, d, cl)
                np.maximum.at(slew_l, d, sl)
                np.minimum.at(arr_e, d, ce)
                np.minimum.at(slew_e, d, se)
                self.batch_ops += 1
            if cell_ids.size:
                e = cell_ids
                s, d = src[e], dst[e]
                al = arr_l[s]
                has = al > -_INF
                in_sl = slew_l[s]
                in_se = slew_e[s]
                in_se = np.where(np.isfinite(in_se), in_se, 0.0)
                load = self._load[e]
                d_l = self._bilinear(self._dtid[e], in_sl, load)
                s_l = self._bilinear(self._stid[e], in_sl, load)
                d_e = self._bilinear(self._dtid[e], in_se, load)
                s_e = self._bilinear(self._stid[e], in_se, load)
                skew = self._skew[e][:, None]
                cl = np.where(has, (al + skew) + d_l * self._factor_late[e],
                              -_INF)
                ae = arr_e[s]
                ae = np.where(np.isfinite(ae), ae, 0.0)
                ce = np.where(has, (ae + skew) + d_e * self._factor_early[e],
                              _INF)
                sl = np.where(has, s_l, 0.0)
                se = np.where(has, s_e, _INF)
                cand_l[e] = cl
                cand_e[e] = ce
                np.maximum.at(arr_l, d, cl)
                np.maximum.at(slew_l, d, sl)
                np.minimum.at(arr_e, d, ce)
                np.minimum.at(slew_e, d, se)
                self.batch_ops += 1
                self.batch_lookups += 4

        self._arr_late = arr_l
        self._arr_early = arr_e
        self._slew_late = slew_l
        self._slew_early = slew_e
        self._cand_late = cand_l
        self._cand_early = cand_e
        self._pred_rank_cache.clear()
        self._view_cache.clear()
        self._loads_cache.clear()

    def _bilinear(self, tid: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                  lanes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Vectorized :meth:`LookupTable2D.lookup` over (row, lane).

        Lanes are all corners unless ``lanes`` picks some. Replicates
        the scalar implementation operation-for-operation:
        searchsorted-right segment selection with edge clamping, then
        the same left-associated bilinear expression.
        """
        if lanes is None:
            lanes = range(len(self.corners))
        cidx = np.asarray(lanes, dtype=np.int64)[None, :]
        t = tid[:, None]
        g1 = self._grid1[cidx, t]          # (rows, lanes, S)
        g2 = self._grid2[cidx, t]          # (rows, lanes, L)
        i = (g1 <= x1[..., None]).sum(axis=-1) - 1
        i = np.clip(i, 0, self._clamp1[tid][:, None])
        j = (g2 <= x2[..., None]).sum(axis=-1) - 1
        j = np.clip(j, 0, self._clamp2[tid][:, None])
        x1a = np.take_along_axis(g1, i[..., None], -1)[..., 0]
        x1b = np.take_along_axis(g1, (i + 1)[..., None], -1)[..., 0]
        x2a = np.take_along_axis(g2, j[..., None], -1)[..., 0]
        x2b = np.take_along_axis(g2, (j + 1)[..., None], -1)[..., 0]
        u = (x1 - x1a) / (x1b - x1a)
        v = (x2 - x2a) / (x2b - x2a)
        V = self._values
        q11 = V[cidx, t, i, j]
        q21 = V[cidx, t, i + 1, j]
        q12 = V[cidx, t, i, j + 1]
        q22 = V[cidx, t, i + 1, j + 1]
        return (q11 * (1 - u) * (1 - v)
                + q21 * u * (1 - v)
                + q12 * (1 - u) * v
                + q22 * u * v)

    # ------------------------------------------------------------------ #
    # result materialization

    def _require_run(self) -> None:
        if not self._ran:
            raise TimingError("call CompiledKernel.run() first")

    def si_delta_for(self, ci: int) -> Optional[Dict[str, float]]:
        """Per-net SI deltas of corner ``ci`` (None when SI is off),
        matching what a reference run would leave on ``sta.si_delta``."""
        delta = self._si_deltas[ci]
        return dict(delta) if delta is not None else None

    def _pred_ranks(self, ci: int, mode: str) -> np.ndarray:
        """Per node: global rank of the first candidate equal to the
        final arrival — exactly the reference first-setter backpointer."""
        key = (ci, mode)
        ranks = self._pred_rank_cache.get(key)
        if ranks is not None:
            return ranks
        if mode == "late":
            match = self._cand_late[:, ci] == self._arr_late[self.e_dst, ci]
        else:
            match = self._cand_early[:, ci] == self._arr_early[self.e_dst, ci]
        ranks = np.full(self.n_nodes, _NO_PRED, dtype=np.int64)
        sel = np.nonzero(match)[0]
        np.minimum.at(ranks, self.e_dst[sel], sel)
        self._pred_rank_cache[key] = ranks
        return ranks

    def _valid_nodes(self, ci: int, mode: str) -> np.ndarray:
        """Nodes whose late (or, for ``"early"``, early) arrival exists —
        the nodes a materialized :class:`Arrival` gives a backpointer."""
        valid = self._arr_late[:, ci] > -_INF
        if mode == "early":
            valid &= self._arr_early[:, ci] < _INF
        return valid

    def _origins(self, ci: int, mode: str) -> np.ndarray:
        """Per node: the startpoint node of its worst late/early path.

        One level-ordered pass, ``origin[node] = origin[src of pred]``;
        equal to walking :meth:`STA._origin` from every node.
        """
        ranks = self._pred_ranks(ci, mode)
        has_pred = self._valid_nodes(ci, mode) & (ranks != _NO_PRED)
        origin = np.arange(self.n_nodes, dtype=np.int64)
        parent = origin.copy()
        parent[has_pred] = self.e_src[ranks[has_pred]]
        for nodes in self._level_nodes:
            origin[nodes] = origin[parent[nodes]]
        return origin

    def _corner_edge(self, ci: int, edge):
        """``edge`` with its arc rebound to corner ``ci``'s library (net
        edges and corner 0 pass through unchanged)."""
        if ci == 0 or isinstance(edge, NetEdge):
            return edge
        swapped = self._edge_swap_cache.setdefault(ci, {})
        out = swapped.get(id(edge))
        if out is None:
            cell_name = self.design.instance(edge.instance).cell_name
            out = CellEdge(
                instance=edge.instance,
                arc=self._corner_arc(ci, cell_name, edge.arc),
            )
            swapped[id(edge)] = out
        return out

    def _loads_dict(self, ci: int) -> Dict[PinRef, float]:
        loads = self._loads_cache.get(ci)
        if loads is None:
            loads = {}
            for edge, load in zip(self._unique_cell_edges,
                                  self._uload[:, ci].tolist()):
                loads[edge.dst] = load
            self._loads_cache[ci] = loads
        return dict(loads)

    def materialize_prop(self, ci: int) -> PropagationResult:
        """A fully-materialized, mutation-safe reference
        :class:`PropagationResult` for corner ``ci`` (path-level views
        read it; the incremental timer's cone updates pop and rebuild
        entries in place)."""
        self._require_run()
        prop = PropagationResult()
        reached = np.nonzero(self._valid_nodes(ci, "late"))[0]
        early = self._arr_early[reached, ci]
        slew_early = self._slew_early[reached, ci]
        slew_early = np.where(slew_early < _INF, slew_early, 0.0)
        pred_early = np.where(early < _INF,
                              self._pred_ranks(ci, "early")[reached],
                              _NO_PRED)

        def pred(rank: int):
            if rank == _NO_PRED:
                return None
            edge = self._corner_edge(ci, self.e_edge[rank])
            return (edge, DIRECTIONS[self.e_src_dir[rank]])

        pins = self.pins
        for node, late, early_v, sl, se, rl, re_ in zip(
            reached.tolist(),
            self._arr_late[reached, ci].tolist(),
            early.tolist(),
            self._slew_late[reached, ci].tolist(),
            slew_early.tolist(),
            self._pred_ranks(ci, "late")[reached].tolist(),
            pred_early.tolist(),
        ):
            prop.arrivals[(pins[node >> 1], DIRECTIONS[node & 1])] = Arrival(
                late=late, early=early_v, slew_late=sl, slew_early=se,
                pred_late=pred(rl), pred_early=pred(re_),
            )
        prop.loads = self._loads_dict(ci)
        return prop

    # ------------------------------------------------------------------ #
    # reports and views

    def view(self, ci: int) -> CornerView:
        """An STA-compatible view of corner ``ci`` for path-level
        analyses (CPPR, PBA); read-only."""
        self._require_run()
        view = self._view_cache.get(ci)
        if view is None:
            view = CornerView(self, ci)
            self._view_cache[ci] = view
        return view

    def report(self, ci: int) -> TimingReport:
        """The corner's timing report, bit-compatible with
        :meth:`STA.run` (scenario field = library name, as there)."""
        self._require_run()
        spec = self.corners[ci]
        with obs_tracing.span("kernel_report", corner=spec.name):
            setup, hold, outputs = [], [], []
            if self.constraints.clocks:
                setup = self._check_endpoints(ci, "setup")
                outputs = self._output_endpoints(ci)
                hold = self._check_endpoints(ci, "hold")
            return TimingReport(
                setup=setup + outputs,
                hold=hold,
                slew_violations=self._slew_violations(ci),
                scenario=spec.library.name,
            )

    def reports(self) -> List[TimingReport]:
        return [self.report(ci) for ci in range(len(self.corners))]

    def _capture_clocks(self, ci: int, idx: _CheckIndex):
        """Per check: the capture clock's (period, setup uncertainty,
        hold uncertainty), resolved like :meth:`STA._clock_of_check`.
        Raises the reference's errors for the first check (in check
        order) whose clock is missing or unresolvable."""
        n = len(idx.check_ids)
        clocks = self.constraints.clocks
        ck_node = 2 * idx.clock_pin
        bad = ~idx.clock_timed | ~(self._arr_late[ck_node, ci] > -_INF)
        if len(clocks) == 1:
            specs = [self.constraints.the_clock()] * n
        else:
            origin = self._origins(ci, "late")[ck_node] >> 1
            by_pin: Dict[int, object] = {}
            specs = []
            for pin in origin.tolist():
                if pin not in by_pin:
                    ref = self.pins[pin]
                    by_pin[pin] = self.constraints.clock_for_port(ref.pin) \
                        if ref.is_port else None
                specs.append(by_pin[pin])
        for i in range(n):
            if bad[i] or specs[i] is None:
                check = self.graph.checks[idx.check_ids[i]]
                if bad[i]:
                    raise TimingError(f"no clock arrival at "
                                      f"{check.clock_pin}; is the clock "
                                      f"tied?")
                raise TimingError(
                    f"cannot resolve the capture clock of {check.data_pin}"
                )
        return (np.asarray([c.period for c in specs], dtype=float),
                np.asarray([c.uncertainty_setup for c in specs], dtype=float),
                np.asarray([c.uncertainty_hold for c in specs], dtype=float))

    def _check_endpoints(self, ci: int, kind: str) -> List[EndpointResult]:
        """Setup or hold endpoints as array ops over the check index,
        equal to :meth:`STA._setup_endpoints`/``_hold_endpoints``."""
        idx = self._check_index[kind]
        if not idx.check_ids:
            return []
        period, unc_setup, unc_hold = self._capture_clocks(ci, idx)
        arr_l = self._arr_late[:, ci]
        arr_e = self._arr_early[:, ci]
        slew_l = self._slew_late[:, ci]
        ck = 2 * idx.clock_pin
        clk_slew = slew_l[ck][:, None]
        if kind == "setup":
            # required = T + clk_early - setup - uncertainty - margin
            clk = arr_e[ck] + idx.latency
            data_arr, data_slew = arr_l, slew_l
        else:
            # required = clk_late + hold + uncertainty + margin
            clk = arr_l[ck] + idx.latency
            slew_e = self._slew_early[:, ci]
            data_arr = arr_e
            data_slew = np.where(slew_e < _INF, slew_e, 0.0)
        nodes, has, slack, required = [], [], [], []
        for d in (0, 1):
            node = 2 * idx.data_pin + d
            value = self._bilinear(idx.tid[:, d], data_slew[node][:, None],
                                   clk_slew, lanes=[ci])[:, 0]
            if kind == "setup":
                req = (period + clk - value - unc_setup
                       - self.constraints.flat_setup_margin)
                slk = req - data_arr[node]
            else:
                req = (clk + value + unc_hold
                       + self.constraints.flat_hold_margin)
                slk = data_arr[node] - req
            nodes.append(node)
            has.append(idx.data_timed & (arr_l[node] > -_INF))
            slack.append(slk)
            required.append(req)
        # rise first; fall only when strictly worse (reference tie rule)
        fall = has[1] & (~has[0] | (slack[1] < slack[0]))
        keep = has[0] | has[1]
        node = np.where(fall, nodes[1], nodes[0])
        origin = self._origins(ci, "late" if kind == "setup" else "early")
        return self._endpoint_results(
            kind, keep, node,
            np.where(fall, slack[1], slack[0]),
            data_arr[node],
            np.where(fall, required[1], required[0]),
            origin[node] >> 1,
            [self._corner_checks[ci][i] for i in idx.check_ids],
        )

    def _output_endpoints(self, ci: int) -> List[EndpointResult]:
        """Output-port endpoints, equal to :meth:`STA._output_endpoints`."""
        clock = self.constraints.primary_clock()
        refs = [PinRef("", p) for p in self.design.output_ports()]
        if not refs:
            return []
        pin = np.asarray([self.pin_index.get(ref, -1) for ref in refs],
                         dtype=np.int64)
        timed = pin >= 0
        pin = np.maximum(pin, 0)
        arr_l = self._arr_late[:, ci]
        late_r, late_f = arr_l[2 * pin], arr_l[2 * pin + 1]
        has_r = timed & (late_r > -_INF)
        has_f = timed & (late_f > -_INF)
        # worst_late: rise first; fall only when strictly later
        fall = has_f & (~has_r | (late_f > late_r))
        node = 2 * pin + fall
        late = arr_l[node]
        required = np.asarray([
            clock.period - self.constraints.output_delays.get(ref.pin, 0.0)
            - clock.uncertainty_setup
            for ref in refs
        ], dtype=float)
        origin = self._origins(ci, "late")
        return self._endpoint_results(
            "output", has_r | has_f, node, required - late, late,
            required, origin[node] >> 1, [None] * len(refs), refs,
        )

    def _endpoint_results(self, kind, keep, node, slack, arrival,
                          required, origin_pin, checks,
                          endpoints=None) -> List[EndpointResult]:
        """:class:`EndpointResult` objects for the kept endpoints, in
        index order (the reference's evaluation order)."""
        pins = self.pins
        is_clock_pin = self._is_clock_pin
        keep_ids = np.nonzero(keep)[0]
        out = []
        for i, n, s, a, r, o in zip(
            keep_ids.tolist(), node[keep_ids].tolist(),
            slack[keep_ids].tolist(), arrival[keep_ids].tolist(),
            required[keep_ids].tolist(), origin_pin[keep_ids].tolist(),
        ):
            check = checks[i]
            out.append(EndpointResult(
                endpoint=(endpoints[i] if endpoints is not None
                          else check.data_pin),
                kind=kind,
                slack=s,
                arrival=a,
                required=r,
                data_direction=DIRECTIONS[n & 1],
                check=check,
                startpoint=pins[o],
                launched_from_clock=bool(is_clock_pin[o]),
            ))
        return out

    def _slew_violations(self, ci: int) -> List[SlewViolation]:
        """Vectorized max-transition sweep, equal to the reference
        per-pin walk (worst reached slew vs per-pin limit)."""
        sl = self._slew_late[:, ci]
        reached = self._arr_late[:, ci] > -_INF
        by_dir = np.where(reached, sl, 0.0).reshape(-1, 2)
        worst = np.maximum(by_dir[:, 0], by_dir[:, 1])
        over = np.nonzero(worst > self._slew_limit[:, ci])[0]
        return [
            SlewViolation(ref=self.pins[i], slew=float(worst[i]),
                          limit=float(self._slew_limit[i, ci]))
            for i in over.tolist()
        ]

    def _rebound_adjacency(self, ci: int) -> Tuple[dict, dict]:
        """Adjacency dicts whose CellEdges carry corner-``ci`` arcs."""
        if ci == 0:
            return self.graph.in_edges, self.graph.out_edges
        cached = self._rebound_cache.get(ci)
        if cached is not None:
            return cached
        in_edges = {ref: [self._corner_edge(ci, e) for e in edges]
                    for ref, edges in self.graph.in_edges.items()}
        out_edges = {ref: [self._corner_edge(ci, e) for e in edges]
                     for ref, edges in self.graph.out_edges.items()}
        self._rebound_cache[ci] = (in_edges, out_edges)
        return in_edges, out_edges

    # ------------------------------------------------------------------ #
    # work accounting

    def stats(self) -> Dict[str, float]:
        """Deterministic work statistics for benchmarks and tests."""
        C = len(self.corners)
        scalar_visits = C * (self.n_net_expansions + self.n_cell_expansions)
        scalar_lookups = 4 * C * self.n_cell_expansions
        return {
            "corners": C,
            "pins": len(self.pins),
            "levels": self.n_levels,
            "net_expansions": self.n_net_expansions,
            "cell_expansions": self.n_cell_expansions,
            "tables": self.n_tables,
            "compile_s": self.compile_s,
            "batch_ops": self.batch_ops,
            "batch_lookups": self.batch_lookups,
            "scalar_edge_visits": scalar_visits,
            "scalar_lookups": scalar_lookups,
        }

    def work_ratio(self) -> float:
        """Reference interpreter edge-visits per vectorized batch step.

        The deterministic analogue of multi-corner throughput: the
        reference engine executes one Python edge-visit per expansion
        per corner, the kernel one numpy batch per (level, edge kind).
        Independent of machine load, unlike wall-clock.
        """
        self._require_run()
        C = len(self.corners)
        scalar = C * (self.n_net_expansions + self.n_cell_expansions)
        return scalar / max(self.batch_ops, 1)
