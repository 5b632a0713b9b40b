"""Validation of fault plans, and their filters applied by the injector."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule, LinkFlap, NicStall
from repro.network.message import Packet, PacketKind

pytestmark = pytest.mark.faults


def _pkt(src=0, dst=1, kind=PacketKind.EAGER):
    return Packet(kind=kind, src_node=src, dst_node=dst, payload_size=1024)


def _drops(rule, packet, now):
    """Does a fresh injector of the one-rule plan drop ``packet`` at ``now``?
    With ``rate=1.0`` a DROP rule fires on every packet its filters accept."""
    return not FaultInjector(FaultPlan(rules=[rule])).decide(packet, now).deliver


# ------------------------------------------------------------------ FaultRule


def test_unknown_action_rejected():
    with pytest.raises(ConfigError, match="unknown fault action"):
        FaultRule("explode", rate=0.5)


@pytest.mark.parametrize("rate", (-0.1, 1.5))
def test_rate_out_of_range_rejected(rate):
    with pytest.raises(ConfigError, match="rate"):
        FaultRule(FaultAction.DROP, rate=rate)


def test_negative_every_nth_rejected():
    with pytest.raises(ConfigError, match="every_nth"):
        FaultRule(FaultAction.DROP, every_nth=-1)


def test_negative_delay_rejected():
    with pytest.raises(ConfigError, match="delay_us"):
        FaultRule(FaultAction.DELAY, rate=0.1, delay_us=-1.0)


def test_window_must_be_ordered():
    with pytest.raises(ConfigError, match="until_us"):
        FaultRule(FaultAction.DROP, rate=0.1, after_us=100.0, until_us=50.0)


def test_max_count_must_be_positive():
    with pytest.raises(ConfigError, match="max_count"):
        FaultRule(FaultAction.DROP, rate=0.1, max_count=0)


def test_matches_filters_endpoints_kinds_and_window():
    rule = FaultRule(
        FaultAction.DROP,
        rate=1.0,
        src_node=0,
        dst_node=1,
        kinds=(PacketKind.EAGER,),
        after_us=100.0,
        until_us=200.0,
    )
    assert _drops(rule, _pkt(), 150.0)
    assert _drops(rule, _pkt(), 100.0)  # window start is inclusive
    assert not _drops(rule, _pkt(), 99.0)  # before the window
    assert not _drops(rule, _pkt(), 200.0)  # window end is exclusive
    assert not _drops(rule, _pkt(src=1, dst=0), 150.0)  # wrong direction
    assert not _drops(rule, _pkt(kind=PacketKind.RTS), 150.0)  # wrong kind


# ------------------------------------------------------------------- LinkFlap


def test_flap_window_validation():
    with pytest.raises(ConfigError, match="up_at"):
        LinkFlap(down_at=10.0, up_at=10.0)
    with pytest.raises(ConfigError, match="period_us shorter"):
        LinkFlap(down_at=0.0, up_at=50.0, period_us=20.0)


def test_flap_one_shot_window():
    flap = LinkFlap(down_at=100.0, up_at=200.0, src_node=0)
    assert not flap.is_down(_pkt(), 50.0)
    assert flap.is_down(_pkt(), 150.0)
    assert not flap.is_down(_pkt(), 250.0)
    assert not flap.is_down(_pkt(src=1, dst=0), 150.0)


def test_flap_periodic_repeats():
    flap = LinkFlap(down_at=0.0, up_at=10.0, period_us=100.0)
    for base in (0.0, 100.0, 700.0):
        assert flap.is_down(_pkt(), base + 5.0)
        assert not flap.is_down(_pkt(), base + 50.0)


# ------------------------------------------------------------------- NicStall


def test_stall_validation():
    with pytest.raises(ConfigError, match="end"):
        NicStall(start=5.0, end=5.0)


def test_stall_delay_holds_until_window_end():
    stall = NicStall(start=100.0, end=160.0, node=1)
    assert stall.stall_delay(_pkt(), 130.0) == pytest.approx(30.0)
    assert stall.stall_delay(_pkt(), 99.0) == 0.0
    assert stall.stall_delay(_pkt(), 160.0) == 0.0
    assert stall.stall_delay(_pkt(src=2, dst=3), 130.0) == 0.0  # other nodes


# ------------------------------------------------------------------- FaultPlan


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        FaultPlan(seed=-1)


def test_uniform_drop_constructor():
    plan = FaultPlan.uniform_drop(0.25, seed=3)
    assert len(plan.rules) == 1
    assert plan.rules[0].action == FaultAction.DROP
    assert plan.rules[0].rate == 0.25
    assert plan.seed == 3
    assert not plan.is_quiet()


def test_lossy_constructor_skips_zero_rates():
    plan = FaultPlan.lossy(drop=0.1, duplicate=0.05)
    assert sorted(r.action for r in plan.rules) == [FaultAction.DROP, FaultAction.DUPLICATE]


def test_quiet_plan_detection():
    assert FaultPlan().is_quiet()
    assert FaultPlan.uniform_drop(0.0).is_quiet()
    assert not FaultPlan.uniform_drop(0.0, every_nth=5).is_quiet()
    assert not FaultPlan(flaps=[LinkFlap(down_at=0.0, up_at=1.0)]).is_quiet()
    assert not FaultPlan(stalls=[NicStall(start=0.0, end=1.0)]).is_quiet()


def test_rule_defaults_cover_open_window():
    rule = FaultRule(FaultAction.DROP, rate=1.0)
    assert rule.until_us == math.inf
    assert _drops(rule, _pkt(), 1e9)
