"""Parametric timing yield: the "old goal post" vs the new game.

Footnote 7 (Lutkemeyer): "while the game is indeed new (slacks now
reported at a confidence tail of the slack distribution, affording an
approximate statistical analysis), the goalposts are actually 'old' in
that STA tools and timing closure still center on absolute slack
violations (as opposed to yield losses). Unfortunately, sigmas are
unstable..."

This module computes what the new goal post *would* be: parametric
timing yield read off the canonical SSTA engine's sampled slack matrix
(:class:`repro.sta.ssta.SstaRun`), plus the sensitivity of that yield to
sigma error — the instability that keeps the old goal post alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class GoalpostComparison:
    """Old goal post (corner slack) vs new goal post (yield) at one
    operating point."""

    period: float
    corner_wns: float  # derated deterministic WNS
    yield_estimate: float
    yield_low_sigma: float  # yield if sigmas are 20% larger than believed
    yield_high_sigma: float  # ... 20% smaller

    @property
    def corner_passes(self) -> bool:
        return self.corner_wns >= 0.0

    @property
    def yield_passes(self) -> bool:
        return self.yield_estimate >= 0.99


def goalpost_sweep(
    design,
    library,
    make_constraints,
    periods: List[float],
    derate_percent: float = 0.08,
) -> List[GoalpostComparison]:
    """Compare the two goal posts across a clock-period sweep.

    ``make_constraints(period)`` must return a constraint set. The old
    goal post runs deterministic STA with a flat OCV derate at every
    period; the new one runs canonical SSTA once and reads the design
    yield at each period off its sampled slack matrix (setup slack is
    linear in the period), bracketing it with +/-20% sigma error (the
    instability that keeps the old post standing).

    Raises :class:`~repro.errors.SignoffError` when the design has no
    setup endpoints.
    """
    from repro.sta.analysis import STA
    from repro.sta.ssta import run_ssta
    from repro.variation.derate import flat_ocv_derates

    if not periods:
        return []
    run = run_ssta(design, library, make_constraints(periods[0]))
    out: List[GoalpostComparison] = []
    for period in periods:
        corner_sta = STA(design, library, make_constraints(period),
                         derates=flat_ocv_derates(derate_percent))
        out.append(
            GoalpostComparison(
                period=period,
                corner_wns=corner_sta.run().wns("setup"),
                yield_estimate=run.timing_yield(period),
                yield_low_sigma=run.timing_yield(period, sigma_scale=1.2),
                yield_high_sigma=run.timing_yield(period, sigma_scale=0.8),
            )
        )
    return out


def minimum_passing_period(comparisons: List[GoalpostComparison],
                           goalpost: str) -> Optional[float]:
    """Smallest period each methodology signs off."""
    passing = [
        c.period for c in comparisons
        if (c.corner_passes if goalpost == "corner" else c.yield_passes)
    ]
    return min(passing) if passing else None
