"""The title claim — "new game, new goal posts" (and footnote 7).

Paper: the game is new (slacks at a confidence tail, approximate
statistical analysis) but the goal post is old (absolute slack at a
corner, not yield loss), partly because "sigmas are unstable, and
committed sigmas are difficult to obtain from the silicon provider".

Reproduction: sweep the clock period and judge the same design by both
goal posts — flat-derated corner WNS >= 0 (old) vs parametric yield >=
99% from SSTA (new) — including the +/-20% sigma-error band that makes
the new post wobble.
"""

from conftest import once

from repro.core.yieldmodel import goalpost_sweep, minimum_passing_period
from repro.netlist.generators import random_logic
from repro.sta import Constraints


def test_title_old_vs_new_goalposts(benchmark, lib, record_table):
    def run():
        design = random_logic(n_gates=200, n_levels=8, seed=11)

        def mk(period):
            c = Constraints.single_clock(period)
            c.input_delays = {f"in{i}": 60.0 for i in range(32)}
            return c

        periods = [480.0 + 10.0 * i for i in range(11)]
        return goalpost_sweep(design, lib, mk, periods)

    comparisons = once(benchmark, run)

    lines = [
        f"{'period':>7} {'corner WNS':>11} {'old post':>9} "
        f"{'yield':>8} {'sigma +/-20%':>18} {'new post':>9}"
    ]
    for c in comparisons:
        lines.append(
            f"{c.period:7.0f} {c.corner_wns:11.2f} "
            f"{'PASS' if c.corner_passes else 'fail':>9} "
            f"{c.yield_estimate:8.4f} "
            f"[{c.yield_low_sigma:7.4f},{c.yield_high_sigma:7.4f}] "
            f"{'PASS' if c.yield_passes else 'fail':>9}"
        )
    corner_period = minimum_passing_period(comparisons, "corner")
    yield_period = minimum_passing_period(comparisons, "yield")
    lines += [
        "",
        f"old goal post signs off at  {corner_period:.0f} ps",
        f"new goal post signs off at  {yield_period:.0f} ps "
        f"({100 * (corner_period / yield_period - 1):.1f}% frequency left "
        "on the table by the old post)",
    ]
    wobble = [
        c for c in comparisons
        if c.yield_low_sigma < 0.99 <= c.yield_high_sigma
    ]
    if wobble:
        lines.append(
            f"sigma instability: at {wobble[0].period:.0f} ps a 20% sigma "
            "error flips the yield verdict — footnote 7's reason the old "
            "post survives"
        )
    record_table("title_goalposts", "\n".join(lines))

    # Paper shape: the statistical goal post is no more conservative, and
    # the sigma band actually straddles the threshold somewhere.
    assert yield_period <= corner_period
    assert wobble, "expected a period where sigma error flips the verdict"
