"""The STA orchestrator.

:class:`STA` wires together graph construction, parasitic extraction,
arrival propagation and the constraint checks, and produces a
:class:`repro.sta.reports.TimingReport`. It also reconstructs worst paths
(for reporting, PBA and the closure loop's fix targeting).

Setup check (rising-edge flop, launch at cycle 0, capture at cycle 1)::

    slack = (T + clk_early(CK)) - setup(dslew, cslew)
            - uncertainty_setup - flat_margin - data_late(D)

Hold check (same-edge)::

    slack = data_early(D) - clk_late(CK) - hold(dslew, cslew)
            - uncertainty_hold - flat_margin
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.beol.corners import BeolCorner, conventional_corners
from repro.beol.stack import BeolStack, default_stack
from repro.errors import TimingError
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef
from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta.algebra import SCALAR, TimingAlgebra
from repro.sta.constraints import Constraints
from repro.sta.graph import CellEdge, NetEdge, TimingCheck, TimingGraph
from repro.sta.propagation import (
    DIRECTIONS,
    Derates,
    PropagationResult,
    propagate,
)
from repro.sta.reports import (
    EndpointResult,
    PathPoint,
    SlewViolation,
    TimingPath,
    TimingReport,
)


class STA:
    """One static timing analysis run (one scenario)."""

    def __init__(
        self,
        design: Design,
        library: Library,
        constraints: Constraints,
        stack: Optional[BeolStack] = None,
        beol_corner: Optional[BeolCorner] = None,
        temp_c: Optional[float] = None,
        derates: Optional[Derates] = None,
        si_enabled: bool = False,
        parasitics: Optional[ParasiticExtractor] = None,
        algebra: Optional[TimingAlgebra] = None,
    ):
        self.design = design
        self.library = library
        self.constraints = constraints
        #: The timing-value algebra arrivals/required/slacks live in.
        #: Scalar floats by default; a statistical algebra turns the same
        #: engine into SSTA (:mod:`repro.sta.ssta`).
        self.algebra = algebra or SCALAR
        self.stack = stack or default_stack()
        self.temp_c = temp_c if temp_c is not None else library.temp_c
        self.beol_corner = beol_corner or conventional_corners(self.stack)["typ"]
        self.derates = derates or Derates()
        self.si_enabled = si_enabled
        design.bind(library)
        self.parasitics = parasitics or ParasiticExtractor(
            design, library, self.stack, self.beol_corner, temp_c=self.temp_c
        )
        self.graph = TimingGraph(design, library, constraints)
        self.prop: Optional[PropagationResult] = None
        #: The report of the last full :meth:`run` (None before the first
        #: run). Consumers that only need the completed run's endpoints —
        #: the ETM extractor, the scenario timer pool — read this instead
        #: of paying a second full analysis.
        self.report: Optional[TimingReport] = None
        #: Per-net coupling deltas of the last :meth:`run` (None when SI
        #: is off). The incremental timer reuses these for nets outside
        #: an edit's electrical neighbourhood instead of dropping them.
        self.si_delta: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #

    def run(self) -> TimingReport:
        """Propagate arrivals and evaluate every check."""
        si_delta = None
        if self.si_enabled:
            from repro.sta.si import coupling_deltas

            si_delta = coupling_deltas(self.graph, self.parasitics)
        self.si_delta = si_delta
        self.prop = propagate(self.graph, self.parasitics, self.derates,
                              si_delta=si_delta, algebra=self.algebra)
        report = TimingReport(
            setup=self._setup_endpoints() + self._output_endpoints(),
            hold=self._hold_endpoints(),
            slew_violations=self._slew_violations(),
            scenario=self.library.name,
        )
        self.report = report
        return report

    # ------------------------------------------------------------------ #
    # checks

    def _clock_at(self, ref: PinRef) -> Tuple[float, float, float]:
        """(early, late, slew) of the rising clock at a CK pin."""
        arr = self.prop.at(ref, "rise")
        if not arr.valid:
            raise TimingError(f"no clock arrival at {ref}; is the clock tied?")
        return arr.early, arr.late, arr.slew_late

    def _origin(self, ref: PinRef, direction: str, mode: str) -> PinRef:
        """Startpoint of the worst late/early path into (ref, direction)."""
        cur, cur_dir = ref, direction
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise TimingError("origin walk did not terminate")
            arr = self.prop.at(cur, cur_dir)
            pred = arr.pred_late if mode == "late" else arr.pred_early
            if pred is None:
                return cur
            edge, src_dir = pred
            cur = edge.driver if isinstance(edge, NetEdge) else edge.src
            cur_dir = src_dir

    def _annotate_origin(self, result: EndpointResult, mode: str) -> None:
        origin = self._origin(result.endpoint, result.data_direction, mode)
        result.startpoint = origin
        result.launched_from_clock = origin in self.graph.clock_pins

    def _clock_of_check(self, check: TimingCheck):
        """The :class:`ClockSpec` governing a check's capture pin.

        Single-clock constraint sets short-circuit to ``the_clock()``
        (no graph walk). With multiple clocks the capture clock is found
        by walking the CK pin's late backpointers to the clock root and
        matching that root against the defined clock ports. Returns None
        when the root is not a constrained clock port. Deliberately
        stateless: :class:`~repro.sta.kernel.CornerView` inherits it
        without running ``STA.__init__``.
        """
        clocks = self.constraints.clocks
        if len(clocks) == 1:
            return self.constraints.the_clock()
        origin = self._origin(check.clock_pin, "rise", "late")
        if not origin.is_port:
            return None
        return self.constraints.clock_for_port(origin.pin)

    def _setup_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        for check in self.graph.setup_checks():
            clk_early, _, clk_slew = self._clock_at(check.clock_pin)
            clock = self._clock_of_check(check)
            if clock is None:
                raise TimingError(
                    f"cannot resolve the capture clock of {check.data_pin}"
                )
            clk_early += self.constraints.clock_latency.get(check.instance, 0.0)
            best: Optional[EndpointResult] = None
            for direction in DIRECTIONS:
                if not self.prop.has(check.data_pin, direction):
                    continue
                arr = self.prop.at(check.data_pin, direction)
                setup = check.arc.constraint_value(
                    direction, arr.slew_late, clk_slew
                )
                required = (
                    clock.period
                    + clk_early
                    - setup
                    - clock.uncertainty_setup
                    - self.constraints.flat_setup_margin
                )
                slack = required - arr.late
                if best is None or slack < best.slack:
                    best = EndpointResult(
                        endpoint=check.data_pin,
                        kind="setup",
                        slack=slack,
                        arrival=arr.late,
                        required=required,
                        data_direction=direction,
                        check=check,
                    )
            if best is not None:
                self._annotate_origin(best, "late")
                out.append(best)
        return out

    def _hold_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        for check in self.graph.hold_checks():
            _, clk_late, clk_slew = self._clock_at(check.clock_pin)
            clock = self._clock_of_check(check)
            if clock is None:
                raise TimingError(
                    f"cannot resolve the capture clock of {check.data_pin}"
                )
            clk_late += self.constraints.clock_latency.get(check.instance, 0.0)
            best: Optional[EndpointResult] = None
            for direction in DIRECTIONS:
                if not self.prop.has(check.data_pin, direction):
                    continue
                arr = self.prop.at(check.data_pin, direction)
                hold = check.arc.constraint_value(
                    direction, arr.slew_early, clk_slew
                )
                required = (
                    clk_late
                    + hold
                    + clock.uncertainty_hold
                    + self.constraints.flat_hold_margin
                )
                slack = arr.early - required
                if best is None or slack < best.slack:
                    best = EndpointResult(
                        endpoint=check.data_pin,
                        kind="hold",
                        slack=slack,
                        arrival=arr.early,
                        required=required,
                        data_direction=direction,
                        check=check,
                    )
            if best is not None:
                self._annotate_origin(best, "early")
                out.append(best)
        return out

    def _output_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        clock = self.constraints.primary_clock()
        for ref in self.graph.output_port_refs():
            direction, late = self.prop.worst_late(ref)
            if direction is None:
                continue
            required = (
                clock.period
                - self.constraints.output_delays.get(ref.pin, 0.0)
                - clock.uncertainty_setup
            )
            result = EndpointResult(
                endpoint=ref,
                kind="output",
                slack=required - late,
                arrival=late,
                required=required,
                data_direction=direction,
            )
            self._annotate_origin(result, "late")
            out.append(result)
        return out

    def _slew_violations(self) -> List[SlewViolation]:
        default = self.constraints.max_transition or \
            self.library.default_max_transition
        out = []
        for ref in self.graph.topo_order:
            if ref.is_port:
                continue
            pin = self.graph.cell_of(ref).pin(ref.pin)
            limit = pin.max_transition or default
            worst = 0.0
            for direction in DIRECTIONS:
                if self.prop.has(ref, direction):
                    worst = max(worst, self.prop.at(ref, direction).slew_late)
            if worst > limit:
                out.append(SlewViolation(ref=ref, slew=worst, limit=limit))
        return out

    # ------------------------------------------------------------------ #
    # path reconstruction

    def worst_path(self, endpoint: EndpointResult) -> TimingPath:
        """Reconstruct the worst path into an endpoint via backpointers."""
        if self.prop is None:
            raise TimingError("run() must be called before worst_path()")
        mode = "hold" if endpoint.kind == "hold" else "setup"
        return self.path_to(endpoint.endpoint, endpoint.data_direction, mode)

    def path_to(self, ref: PinRef, direction: str, mode: str) -> TimingPath:
        """The worst late (setup) or early (hold) path into (ref, dir)."""
        if self.prop is None:
            raise TimingError("run() must be called before path_to()")
        chain: List[Tuple[PinRef, str]] = []
        edges: List[Optional[object]] = []
        cur, cur_dir = ref, direction
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise TimingError("path reconstruction did not terminate")
            arr = self.prop.at(cur, cur_dir)
            pred = arr.pred_late if mode == "setup" else arr.pred_early
            chain.append((cur, cur_dir))
            edges.append(pred)
            if pred is None:
                break
            edge, src_dir = pred
            cur = edge.driver if isinstance(edge, NetEdge) else edge.src
            cur_dir = src_dir
        chain.reverse()
        edges.reverse()

        points: List[PathPoint] = []
        prev_time: Optional[float] = None
        for (node, node_dir), pred in zip(chain, edges[1:] + [None]):
            arr = self.prop.at(node, node_dir)
            time = arr.late if mode == "setup" else arr.early
            slew = arr.slew_late if mode == "setup" else arr.slew_early
            incr = 0.0 if prev_time is None else time - prev_time
            incoming = None
            if points:
                incoming = edges[len(points)]
            kind = "start"
            if incoming is not None:
                kind = "net" if isinstance(incoming[0], NetEdge) else "cell"
            points.append(
                PathPoint(ref=node, direction=node_dir, arrival=time,
                          slew=slew, increment=incr, kind=kind)
            )
            prev_time = time
        return TimingPath(points=points, mode=mode)
