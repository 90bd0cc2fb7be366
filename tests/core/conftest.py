"""Shared fixtures for the core methodology suites."""

import numpy as np
import pytest

from repro.sta.ssta import SstaRun


@pytest.fixture
def synthetic_run():
    """Factory for an :class:`SstaRun` that carries only sampled slack
    matrices — the part yield and resilience read — so a test can pin
    exact per-die slacks without running the engine.

    ``setup`` (and optional ``hold``) are (dies, endpoints) arrays.
    """

    def make(setup, hold=None, period=500.0):
        run = SstaRun.__new__(SstaRun)
        run.period = period
        run.setup_slacks = np.asarray(setup, dtype=float)
        run.n_samples = run.setup_slacks.shape[0]
        run.hold_slacks = (np.zeros((run.n_samples, 0)) if hold is None
                           else np.asarray(hold, dtype=float))
        return run

    return make

