"""The timing-closure methodology layer.

Everything below this package is substrate (simulator, libraries,
parasitics, STA, optimizations); this package is the paper's subject
matter itself:

- :mod:`repro.core.closure` — the Fig 1 iterative closure loop with the
  MacDonald fix ordering (Vt-swap, sizing, buffering, NDR, useful skew);
- :mod:`repro.core.fixes` — the individual fix engines;
- :mod:`repro.core.signoff` — the signoff-criteria engine (scenario
  matrices, flat margins, signoff-at-typical with AVS);
- :mod:`repro.core.tbc` — tightened BEOL corners and the Fig 8 alpha
  pessimism metric;
- :mod:`repro.core.margins` — the flat-margin stackup and its recovery;
- :mod:`repro.core.history` — the Fig 2 old-vs-new matrix and Fig 3
  care-abouts timeline as queryable data.
"""

from repro.core.closure import ClosureConfig, ClosureEngine, ClosureReport
from repro.core.margins import MarginStackup
from repro.core.signoff import SignoffPolicy, evaluate_signoff
from repro.core.yieldmodel import goalpost_sweep

__all__ = [
    "ClosureConfig",
    "ClosureEngine",
    "ClosureReport",
    "MarginStackup",
    "SignoffPolicy",
    "evaluate_signoff",
    "goalpost_sweep",
]
