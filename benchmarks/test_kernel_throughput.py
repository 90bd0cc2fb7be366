"""Multi-corner signoff throughput of the compiled vector kernel.

The paper's Section 2.3 corner super-explosion makes signoff cost scale
with corner count: the reference engine walks the full object graph once
per corner. The compiled kernel (:mod:`repro.sta.kernel`) flattens the
graph once and propagates *every* corner of a mode as lanes of one
batched numpy pass, so its per-level work is corner-count-invariant.

This benchmark times both engines over the same heterogeneous corner
sets at growing corner counts. Both sides of the wall-clock ratio time
the same product: a reference run is one full ``STA`` build + run
(reports included); the kernel side is compile + batch + per-corner
reports. Two gates: the deterministic work ratio — scalar edge visits
the reference engines would perform (corners x expanded edges) over the
batched level ops the kernel actually issued — which a loaded CI runner
cannot flake, and a relative wall gate measured in the same process: at
8 corners the vector kernel must beat the summed reference wall. The
oracle suite (``tests/sta/test_kernel_equivalence``) separately pins
that the batched answers are bit-compatible.
"""

import time

from conftest import once

from repro.beol.corners import conventional_corners
from repro.obs import format_table
from repro.beol.stack import default_stack
from repro.liberty.aocv import AocvTable
from repro.netlist.generators import aes_like
from repro.sta import Constraints
from repro.sta.analysis import STA
from repro.sta.kernel import CornerSpec, compile_kernel
from repro.sta.propagation import Derates

N_SBOXES = 12
SBOX_GATES = 60
PERIOD_PS = 1100.0
CORNER_COUNTS = (2, 4, 8)
MIN_WORK_RATIO = 10.0
#: Corner count of the relative wall gate.
WALL_GATE_CORNERS = 8


def _scenario():
    design = aes_like(n_sboxes=N_SBOXES, sbox_gates=SBOX_GATES, seed=77)
    constraints = Constraints.single_clock(PERIOD_PS)
    constraints.input_delays = {
        f"in_{s}_{b}": 120.0 for s in range(N_SBOXES) for b in range(8)
    }
    constraints.max_transition = 300.0
    return design, constraints


def _corner_specs(lib_factory, stack):
    """Eight heterogeneous corners: three PVT libraries x BEOL corners
    x derate styles, the shape of a real signoff matrix."""
    corners = conventional_corners(stack)
    tt = lib_factory("tt", 0.80, 25.0)
    ss = lib_factory("ssg", 0.72, 125.0)
    ff = lib_factory("ffg", 0.88, -40.0)
    flat = Derates(data_late=1.05, clock_early=0.97)
    aocv = Derates(data_late=1.03,
                   aocv=AocvTable.from_reference_sigma(0.05),
                   aocv_distance=40.0)
    return [
        CornerSpec("tt_typ", tt, corners["typ"], 25.0),
        CornerSpec("ss_cw", ss, corners["cw"], 125.0, derates=flat),
        CornerSpec("ff_cb", ff, corners["cb"], -40.0, derates=flat),
        CornerSpec("tt_rcw", tt, corners["rcw"], 25.0, derates=aocv),
        CornerSpec("ss_rcw", ss, corners["rcw"], 125.0, derates=aocv),
        CornerSpec("ff_rcb", ff, corners["rcb"], -40.0),
        CornerSpec("ss_cb", ss, corners["cb"], 125.0),
        CornerSpec("tt_cw", tt, corners["cw"], 0.0, derates=flat),
    ]


def test_vector_kernel_multicorner_throughput(benchmark, lib_factory,
                                              record_table):
    def run():
        stack = default_stack()
        design, constraints = _scenario()
        specs = _corner_specs(lib_factory, stack)

        # Reference cost per corner: one full object-graph STA each.
        ref_wall = []
        for spec in specs:
            t0 = time.perf_counter()
            sta = STA(design, spec.library, constraints, stack=stack,
                      beol_corner=spec.beol_corner, temp_c=spec.temp_c,
                      derates=spec.derates)
            sta.report = sta.run()
            ref_wall.append(time.perf_counter() - t0)

        rows = []
        for count in CORNER_COUNTS:
            t0 = time.perf_counter()
            kernel = compile_kernel(design, constraints, specs[:count],
                                    stack=stack)
            t_compile = time.perf_counter() - t0
            t0 = time.perf_counter()
            kernel.run()
            t_batch = time.perf_counter() - t0
            t0 = time.perf_counter()
            kernel.reports()
            t_reports = time.perf_counter() - t0
            rows.append((count, sum(ref_wall[:count]), t_compile,
                         t_batch, t_reports, kernel.work_ratio(),
                         kernel.stats()))
        return rows

    rows = once(benchmark, run)

    stats = rows[-1][-1]
    record_table("kernel_throughput", format_table(
        ["corners", "ref wall (s)", "compile (s)", "batch (s)",
         "reports (s)", "wall x", "work x"],
        [[count, t_ref, t_compile, t_batch, t_reports,
          f"{t_ref / max(t_compile + t_batch + t_reports, 1e-9):.1f}x",
          f"{work:.1f}x"]
         for count, t_ref, t_compile, t_batch, t_reports, work, _
         in rows],
        title=(
            f"workload: aes_like {N_SBOXES}x{SBOX_GATES} "
            f"({stats['pins']} timing pins, {stats['levels']} levels, "
            f"{int(stats['net_expansions'] + stats['cell_expansions'])} "
            f"expanded edges) @ {PERIOD_PS:.0f} ps"
        ),
        notes=[
            "wall x = reference STA build+run wall over kernel "
            "compile + batch + reports;",
            "work x = scalar edge visits the reference engines would "
            "make (corners x expansions)",
            f"over batched level ops issued (asserted >= "
            f"{MIN_WORK_RATIO:.0f}x); at {WALL_GATE_CORNERS} corners "
            "wall x must exceed 1.",
        ],
        precision=3,
    ))

    # The asserted throughput gate: >= 10x multi-corner signoff work
    # reduction at every batched corner count, deterministically.
    for count, _, _, _, _, work, row_stats in rows:
        assert work >= MIN_WORK_RATIO, (
            f"{count}-corner batch work ratio {work:.1f}x below "
            f"{MIN_WORK_RATIO:.0f}x"
        )
        # The batch really covered every corner lane...
        assert row_stats["corners"] == count
        # ...in one pass per level per edge kind, not one per corner.
        assert row_stats["batch_ops"] <= 2 * row_stats["levels"]

    # The relative wall gate, same process and same product on both
    # sides: compiling, batching and reporting 8 corners beats 8
    # reference runs.
    count, t_ref, t_compile, t_batch, t_reports, _, _ = next(
        row for row in rows if row[0] == WALL_GATE_CORNERS)
    t_vector = t_compile + t_batch + t_reports
    assert t_vector < t_ref, (
        f"{count}-corner vector kernel {t_vector:.3f} s not faster than "
        f"the summed reference wall {t_ref:.3f} s"
    )
