"""Unit tests for the kernel's graph flattening and table stacking.

The equivalence suite (:mod:`tests.sta.test_kernel_equivalence`) gates
the kernel end to end; these tests pin the *compile* invariants the
batched pass silently depends on — levelized scheduling (every source
strictly precedes its sink), dense pin/node index maps that round-trip,
and stacked NLDM tensors whose vectorized bilinear lookup reproduces
:meth:`repro.liberty.tables.LookupTable2D.lookup` point-for-point,
including linear extrapolation outside the characterized grid. The
failure modes get the same treatment: corners whose libraries disagree
on arc sets or table shapes must refuse to compile with
:class:`~repro.sta.kernel.KernelCompileError`, because a silently
mis-stacked tensor would time the wrong cell.
"""

import copy
import math

import numpy as np
import pytest

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.errors import TimingError
from repro.liberty import make_library
from repro.liberty.aocv import AocvTable
from repro.liberty.stdcells import LibraryCondition
from repro.liberty.tables import LookupTable2D
from repro.netlist.generators import random_logic
from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta import STA, Constraints
from repro.sta.graph import NetEdge
from repro.sta.kernel import (
    ENGINES,
    CornerSpec,
    KernelCompileError,
    compile_kernel,
)
from repro.sta.propagation import DIRECTIONS, Derates


@pytest.fixture(scope="module")
def stack():
    return default_stack()


@pytest.fixture(scope="module")
def libs():
    return {
        "tt": make_library(),
        "ss": make_library(
            LibraryCondition(process="ssg", vdd=0.72, temp_c=125.0)
        ),
    }


@pytest.fixture(scope="module")
def compiled(libs, stack):
    design = random_logic(n_inputs=6, n_outputs=6, n_gates=80,
                          n_levels=5, seed=21)
    constraints = Constraints.single_clock(500.0)
    corners = conventional_corners(stack)
    specs = [
        CornerSpec(name="tt_typ", library=libs["tt"],
                   beol_corner=corners["typ"], temp_c=25.0),
        CornerSpec(name="ss_cw", library=libs["ss"],
                   beol_corner=corners["cw"], temp_c=125.0),
    ]
    kernel = compile_kernel(design, constraints, specs, stack=stack)
    return design, kernel


class TestIndexMaps:
    def test_pins_follow_reference_topo_order(self, compiled):
        _, kernel = compiled
        assert kernel.pins == list(kernel.graph.topo_order)
        for i, ref in enumerate(kernel.pins):
            assert kernel.pin_index[ref] == i

    def test_node_index_round_trip(self, compiled):
        _, kernel = compiled
        seen = set()
        for ref in kernel.pins:
            for direction in DIRECTIONS:
                node = kernel._node_index[(ref, direction)]
                seen.add(node)
                # node = pin_index * 2 + dir decodes back losslessly.
                assert kernel.pins[node >> 1] == ref
                assert DIRECTIONS[node & 1] == direction
        assert seen == set(range(kernel.n_nodes))


class TestLevelization:
    def test_sources_strictly_precede_sinks(self, compiled):
        _, kernel = compiled
        level = kernel.pin_level
        for e in range(len(kernel.e_src)):
            src = kernel.pins[int(kernel.e_src[e]) >> 1]
            dst = kernel.pins[int(kernel.e_dst[e]) >> 1]
            assert level[src] < level[dst]

    def test_schedule_partitions_every_expansion_once(self, compiled):
        _, kernel = compiled
        level = kernel.pin_level
        net_seen, cell_seen = [], []
        for lvl, (net_ids, cell_ids) in enumerate(kernel._schedule):
            for e in net_ids:
                assert level[kernel.pins[int(kernel.e_dst[e]) >> 1]] == lvl
            for e in cell_ids:
                assert level[kernel.pins[int(kernel.e_dst[e]) >> 1]] == lvl
            net_seen.extend(int(e) for e in net_ids)
            cell_seen.extend(int(e) for e in cell_ids)
        assert sorted(net_seen) == sorted(int(e) for e in kernel._net_rows)
        assert sorted(cell_seen) == sorted(int(e) for e in kernel._cell_rows)
        assert len(net_seen) == len(set(net_seen))
        assert len(cell_seen) == len(set(cell_seen))

    def test_levels_are_longest_paths(self, compiled):
        _, kernel = compiled
        graph, level = kernel.graph, kernel.pin_level
        for ref in kernel.pins:
            fanin = [
                edge.driver if isinstance(edge, NetEdge) else edge.src
                for edge in graph.in_edges.get(ref, [])
            ]
            want = max((level[src] + 1 for src in fanin), default=0)
            assert level[ref] == want


class TestTableStacking:
    #: Sample points inside the NLDM grid and beyond both edges — the
    #: scalar lookup extrapolates linearly outside, and the stacked
    #: tensors must reproduce that too.
    SAMPLES = [(12.0, 1.5), (45.0, 6.0), (95.0, 14.0),
               (0.5, 0.05), (400.0, 80.0)]

    def _corner_table(self, design, kernel, e, ci, which):
        """The scalar LookupTable2D a cell expansion row stacks at a
        corner, resolved straight from that corner's library."""
        edge = kernel.e_edge[e]
        cell_name = design.instance(edge.instance).cell_name
        cell = kernel.corners[ci].library.cell(cell_name)
        key = (edge.arc.related_pin, edge.arc.pin, edge.arc.timing_type)
        arc = next(
            a for a in cell.arcs
            if (a.related_pin, a.pin, a.timing_type) == key
        )
        out_dir = DIRECTIONS[int(kernel.e_dst[e]) & 1]
        timing = arc.timing[out_dir]
        return timing.delay if which == "delay" else timing.slew

    def test_stacked_lookup_matches_scalar(self, compiled):
        design, kernel = compiled
        n_corners = len(kernel.corners)
        # Every distinct (delay, slew) table pair reached through the
        # first ~40 cell rows, at every sample point and corner.
        rows = [int(e) for e in kernel._cell_rows[:40]]
        for e in rows:
            for which, tid_arr in (("delay", kernel._dtid),
                                   ("slew", kernel._stid)):
                tid = np.asarray([tid_arr[e]])
                for slew, load in self.SAMPLES:
                    got = kernel._bilinear(
                        tid,
                        np.full((1, n_corners), slew),
                        np.full((1, n_corners), load),
                    )
                    for ci in range(n_corners):
                        table = self._corner_table(design, kernel, e, ci,
                                                   which)
                        assert got[0, ci] == pytest.approx(
                            table.lookup(slew, load), abs=1e-12
                        )

    def test_tables_deduplicated_across_instances(self, compiled):
        _, kernel = compiled
        # Table count scales with cell *types*, not instances: far
        # fewer stacked tables than cell expansion rows.
        assert kernel.n_tables < kernel.n_cell_expansions


class TestCompileFailures:
    def _base(self, libs, stack):
        design = random_logic(n_inputs=4, n_outputs=4, n_gates=30,
                              n_levels=3, seed=5)
        constraints = Constraints.single_clock(500.0)
        corners = conventional_corners(stack)
        used = design.combinational_instances(libs["tt"])[0].cell_name
        return design, constraints, corners, used

    def test_missing_arc_refuses_to_compile(self, libs, stack):
        design, constraints, corners, used = self._base(libs, stack)
        broken = copy.deepcopy(libs["tt"])
        broken.cell(used).arcs = []
        specs = [
            CornerSpec(name="tt", library=libs["tt"],
                       beol_corner=corners["typ"], temp_c=25.0),
            CornerSpec(name="broken", library=broken,
                       beol_corner=corners["cw"], temp_c=25.0),
        ]
        with pytest.raises(KernelCompileError):
            compile_kernel(design, constraints, specs, stack=stack)

    def test_table_shape_mismatch_refuses_to_compile(self, libs, stack):
        design, constraints, corners, used = self._base(libs, stack)
        broken = copy.deepcopy(libs["tt"])
        arc = broken.cell(used).delay_arcs()[0]
        for timing in arc.timing.values():
            t = timing.delay
            timing.delay = LookupTable2D(
                t.index_1[:-1], t.index_2, t.values[:-1, :]
            )
        specs = [
            CornerSpec(name="tt", library=libs["tt"],
                       beol_corner=corners["typ"], temp_c=25.0),
            CornerSpec(name="broken", library=broken,
                       beol_corner=corners["cw"], temp_c=25.0),
        ]
        with pytest.raises(KernelCompileError):
            compile_kernel(design, constraints, specs, stack=stack)

    def test_empty_corner_list_refuses_to_compile(self, libs, stack):
        design, constraints, _, _ = self._base(libs, stack)
        with pytest.raises(TimingError):
            compile_kernel(design, constraints, [], stack=stack)


class TestLifecycle:
    def test_results_require_run(self, compiled):
        design, _ = compiled
        # A freshly compiled kernel (never run) refuses to report.
        corners = conventional_corners(default_stack())
        spec = CornerSpec(name="tt", library=make_library(),
                          beol_corner=corners["typ"], temp_c=25.0)
        small = random_logic(n_inputs=3, n_outputs=3, n_gates=12,
                             n_levels=2, seed=2)
        kernel = compile_kernel(small, Constraints.single_clock(500.0),
                                [spec])
        with pytest.raises(TimingError):
            kernel.report(0)
        kernel.run()
        assert kernel.report(0).endpoints("setup")

    def test_engines_registry(self):
        assert ENGINES == ("reference", "vector")

    def test_work_ratio_counts_scalar_vs_batch(self, compiled):
        _, kernel = compiled
        kernel.run()
        stats = kernel.stats()
        # Two corners over the same graph: the scalar engines would
        # visit every expansion once per corner; the kernel visits each
        # level once regardless of corner count.
        assert stats["scalar_edge_visits"] == \
            2 * (kernel.n_net_expansions + kernel.n_cell_expansions)
        assert stats["batch_ops"] <= 2 * kernel.n_levels
        assert kernel.work_ratio() > 1.0


# ---------------------------------------------------------------------- #
# per-corner statics against the scalar code paths


@pytest.fixture(scope="module")
def statics_batch(libs, stack):
    """A design with NDR nets, optimization-added cap and unplaced
    instances, compiled over corners that exercise AOCV, per-instance
    derates, flat derates and SI."""
    design = random_logic(n_inputs=6, n_outputs=6, n_gates=80,
                          n_levels=5, seed=33)
    design.bind(libs["tt"])  # driver/load lists
    nets = sorted(name for name, net in design.nets.items()
                  if net.driver is not None and net.loads)
    for name in nets[::4]:
        design.nets[name].ndr = True
    for k, name in enumerate(nets[1::6]):
        design.nets[name].extra_cap = 0.3 + 0.2 * k
    gates = sorted(inst.name for inst in
                   design.combinational_instances(libs["tt"]))
    for name in gates[::9]:
        design.instance(name).location = None
    constraints = Constraints.single_clock(500.0)
    constraints.input_delays = {f"in{i}": 30.0 for i in range(6)}
    corners = conventional_corners(stack)
    inst_late = {name: 1.0 + 0.01 * k for k, name in enumerate(gates[:7])}
    inst_early = {name: 1.0 - 0.01 * k
                  for k, name in enumerate(gates[3:9])}
    specs = [
        CornerSpec(name="tt_typ", library=libs["tt"],
                   beol_corner=corners["typ"], temp_c=25.0),
        CornerSpec(name="ss_cw_aocv", library=libs["ss"],
                   beol_corner=corners["cw"], temp_c=125.0,
                   derates=Derates(
                       data_late=1.03, clock_early=0.98,
                       aocv=AocvTable.from_reference_sigma(0.05),
                       aocv_distance=60.0,
                       instance_late=inst_late,
                       instance_early=inst_early,
                   )),
        CornerSpec(name="tt_rcw_si", library=libs["tt"],
                   beol_corner=corners["rcw"], temp_c=-40.0,
                   derates=Derates(data_late=1.05, clock_late=1.02),
                   si_enabled=True),
    ]
    kernel = compile_kernel(design, constraints, specs, stack=stack)
    kernel.run()
    extractors = [
        ParasiticExtractor(design, s.library, stack, s.beol_corner,
                           temp_c=s.temp_c)
        for s in specs
    ]
    return design, constraints, kernel, extractors


def _pin_cap(library, design, ref):
    if ref.is_port:
        return 2.0
    cell = library.cell(design.instance(ref.instance).cell_name)
    return cell.pin(ref.pin).capacitance


class TestCompiledStatics:
    """Every per-corner static equals the scalar value exactly (==):
    the array fill keeps the extractor's and derates' float grouping."""

    def test_fixture_covers_the_special_cases(self, statics_batch):
        design, _, kernel, extractors = statics_batch
        edges = kernel._unique_net_edges
        assert any(design.get_net(e.net_name).ndr for e in edges)
        assert any(design.get_net(e.net_name).extra_cap for e in edges)
        assert any(e.sink.is_port for e in edges)
        assert any(
            design.net_hpwl(e.net_name) == 0.0 for e in edges
        ), "fixture should include an unplaced (fanout-floor) net"

    def test_wire_statics_match_extractor(self, statics_batch):
        design, _, kernel, extractors = statics_batch
        for ci, para in enumerate(extractors):
            lib = kernel.corners[ci].library
            si = kernel.si_delta_for(ci) or {}
            for ne, edge in enumerate(kernel._unique_net_edges):
                np_ = para.extract(edge.net_name)
                pin_cap = _pin_cap(lib, design, edge.sink)
                base = np_.wire_delay(edge.sink, pin_cap)
                degrade = np_.slew_degradation(edge.sink, pin_cap)
                delta = si.get(edge.net_name, 0.0)
                for d in (0, 1):
                    e = kernel._net_rows[2 * ne + d]
                    assert kernel._wire_base[e, ci] == base
                    assert kernel._wire_degrade[e, ci] == degrade
                    assert kernel._wire_delta[e, ci] == delta
                    assert kernel._wire_early[e, ci] == max(base - delta,
                                                            0.0)
        assert kernel.si_delta_for(2), "SI corner should see coupling"

    def test_loads_match_extractor(self, statics_batch):
        design, _, kernel, extractors = statics_batch
        for ci, para in enumerate(extractors):
            for ce, edge in enumerate(kernel._unique_cell_edges):
                net_name = design.instance(edge.instance).net_of(
                    edge.arc.pin)
                want = para.extract(net_name).driver_load(
                    para.pin_caps_total(net_name))
                assert kernel._uload[ce, ci] == want
            rows = kernel._cell_rows
            assert np.array_equal(kernel._load[rows, ci],
                                  kernel._uload[kernel._cell_edge_of, ci])

    def test_slew_limits_match_library(self, statics_batch):
        design, constraints, kernel, _ = statics_batch
        for ci, spec in enumerate(kernel.corners):
            lib = spec.library
            default = constraints.max_transition or \
                lib.default_max_transition
            for i, ref in enumerate(kernel.pins):
                if ref.is_port:
                    assert kernel._slew_limit[i, ci] == math.inf
                    continue
                cell = lib.cell(design.instance(ref.instance).cell_name)
                want = cell.pin(ref.pin).max_transition or default
                assert kernel._slew_limit[i, ci] == want

    def test_derate_factors_match_scalar(self, statics_batch):
        _, _, kernel, _ = statics_batch
        graph = kernel.graph
        for ci, spec in enumerate(kernel.corners):
            for e in kernel._cell_rows:
                edge = kernel.e_edge[e]
                is_clock = edge.src in graph.clock_pins
                depth = graph.data_depth.get(edge.dst, 1)
                for mode, arr in (("late", kernel._factor_late),
                                  ("early", kernel._factor_early)):
                    want = spec.derates.factor(is_clock, mode, depth,
                                               edge.instance)
                    assert arr[e, ci] == want
            assert np.all(kernel._factor_late[kernel._net_rows, ci] == 1.0)

    def test_startpoints_match_origin_walk(self, statics_batch, stack):
        design, constraints, kernel, _ = statics_batch
        for ci, spec in enumerate(kernel.corners):
            ref_sta = STA(
                copy.deepcopy(design), spec.library,
                copy.deepcopy(constraints), stack=stack,
                beol_corner=spec.beol_corner, temp_c=spec.temp_c,
                derates=spec.derates, si_enabled=spec.si_enabled,
            )
            ref_sta.run()
            report = kernel.report(ci)
            kinds = set()
            for e in report.setup + report.hold:
                mode = "early" if e.kind == "hold" else "late"
                origin = ref_sta._origin(e.endpoint, e.data_direction, mode)
                assert e.startpoint == origin
                assert e.launched_from_clock == \
                    (origin in ref_sta.graph.clock_pins)
                kinds.add(e.kind)
            assert kinds == {"setup", "hold", "output"}
