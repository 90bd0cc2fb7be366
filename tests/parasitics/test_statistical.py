"""Statistical interconnect: per-layer R/C sigmas from SADP patterning,
the SSPEF-lite round trip, and the shared lookup SSTA's wire hook uses."""

import pytest

from repro.beol.stack import default_stack
from repro.errors import CornerError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.parasitics.statistical import (
    RcSigmas,
    StatisticalAnnotator,
    layer_rc_sigmas,
    net_rc_sigmas,
    parse_statistical_spef,
    write_statistical_spef,
)
from repro.sta import STA, Constraints


@pytest.fixture(scope="module")
def sta():
    d = random_logic(n_gates=200, n_levels=8, seed=11)
    return STA(d, make_library(), Constraints.single_clock(500.0))


@pytest.fixture(scope="module")
def annotator(sta):
    return StatisticalAnnotator(sta.parasitics, default_stack())


class TestStatisticalInterconnect:
    def test_sadp_layer_noisier_than_single(self):
        stack = default_stack()
        sadp = layer_rc_sigmas(stack.layer("M2"))
        single = layer_rc_sigmas(stack.layer("M6"))
        assert sadp.wire_delay_rel > single.wire_delay_rel

    def test_wire_sigma_positive(self, annotator):
        sigmas = annotator.all_wire_sigmas()
        assert sigmas
        assert all(v >= 0.0 for v in sigmas.values())

    def test_annotator_reads_the_shared_net_lookup(self, sta, annotator):
        """SSTA's wire hook and the SSPEF payload come from one lookup."""
        stack = default_stack()
        for net_name in list(sta.design.nets)[:20]:
            para = sta.parasitics.extract(net_name)
            assert annotator.net_sigmas(net_name) == \
                net_rc_sigmas(para, stack)

    def test_rc_sigma_delay_combination(self):
        s = RcSigmas(r_rel=0.03, c_rel=0.04)
        assert s.wire_delay_rel == pytest.approx(0.05)


class TestSspefRoundTrip:
    def test_sspef_round_trip(self, annotator):
        text = write_statistical_spef("rand", annotator)
        parsed = parse_statistical_spef(text)
        assert parsed
        some_net = next(iter(parsed))
        assert parsed[some_net].r_rel == pytest.approx(
            annotator.net_sigmas(some_net).r_rel
        )

    def test_sspef_malformed_rejected(self):
        with pytest.raises(CornerError):
            parse_statistical_spef("*X_NET n 1 2\n")

    def test_sspef_short_line_rejected(self):
        with pytest.raises(CornerError, match="malformed"):
            parse_statistical_spef("*S_NET n 0.1\n")
