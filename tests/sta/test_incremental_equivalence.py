"""Property test: incremental updates are equivalent to from-scratch STA.

The closure loop's whole premise is that a cone-limited update after a
footprint-preserving edit produces *the same answer* a fresh
:meth:`STA.run` would. This suite drives randomized Vt-swap/resize
sequences — multiple edits per step, multiple steps per run, SI on and
off, on both timing engines — and requires WNS, TNS and every endpoint
slack to agree within 1e-9 ps after every step and after the closing
full update. The tolerance is that tight on purpose: the update
re-propagates the cone with the same graph, the same topological order
and the same stored boundary arrivals, so the float operations are
identical and the agreement should be exact, not approximate. On the
vector engine the stored arrivals are the ones the kernel materialized,
and the full update recompiles the kernel.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.netlist.transforms import downsize, swap_vt, upsize
from repro.obs import metrics as obs_metrics
from repro.sta import STA, Constraints
from repro.sta.incremental import IncrementalTimer
from repro.sta.kernel import ENGINES, run_sta

VT_FLAVORS = ("svt", "lvt", "ulvt")


@pytest.fixture(scope="module")
def lib():
    return make_library()


def _setup(lib, seed, si_enabled, engine):
    design = random_logic(n_gates=220, n_levels=8, seed=seed)
    constraints = Constraints.single_clock(520.0)
    constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
    sta = STA(design, lib, constraints, si_enabled=si_enabled)
    _without_fallback(run_sta, sta, engine, "tt")
    return design, sta


def _without_fallback(fn, *args):
    """``fn(*args)``, checking that no vector run fell back to the
    reference engine."""
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use(registry):
        result = fn(*args)
    assert registry.get("kernel.fallbacks") is None
    return result


def _apply(design, lib, name, action, flavor):
    if action == "vt":
        return swap_vt(design, lib, name, flavor)
    if action == "up":
        return upsize(design, lib, name)
    return downsize(design, lib, name)


def _assert_equivalent(incremental, reference):
    assert incremental.wns("setup") == \
        pytest.approx(reference.wns("setup"), abs=1e-9)
    assert incremental.tns("setup") == \
        pytest.approx(reference.tns("setup"), abs=1e-9)
    assert incremental.wns("hold") == \
        pytest.approx(reference.wns("hold"), abs=1e-9)
    for mode in ("setup", "hold"):
        ref = {e.endpoint: e.slack for e in reference.endpoints(mode)}
        inc = {e.endpoint: e.slack for e in incremental.endpoints(mode)}
        assert set(inc) == set(ref)
        for endpoint, slack in ref.items():
            assert inc[endpoint] == pytest.approx(slack, abs=1e-9)


@pytest.mark.parametrize("si_enabled", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_eco_sequences_match_fresh_sta(lib, engine, si_enabled,
                                              data):
    seed = data.draw(st.integers(min_value=1, max_value=4), label="seed")
    design, sta = _setup(lib, seed, si_enabled, engine)
    timer = IncrementalTimer(sta, engine=engine)
    candidates = [
        inst.name for inst in design.combinational_instances(lib)
    ]
    n_steps = data.draw(st.integers(min_value=1, max_value=3),
                        label="steps")
    for _ in range(n_steps):
        picks = data.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=5,
                     unique=True),
            label="instances",
        )
        edited = []
        for name in picks:
            action = data.draw(
                st.sampled_from(("vt", "up", "down")), label="action")
            flavor = data.draw(
                st.sampled_from(VT_FLAVORS), label="flavor")
            if _apply(design, lib, name, action, flavor):
                edited.append(name)
        incremental = timer.update_cells(edited)
        reference = STA(design, lib, sta.constraints,
                        si_enabled=si_enabled).run()
        _assert_equivalent(incremental, reference)
    assert timer.incremental_updates <= n_steps
    full = _without_fallback(timer.full_update)
    reference = STA(design, lib, sta.constraints,
                    si_enabled=si_enabled).run()
    _assert_equivalent(full, reference)
