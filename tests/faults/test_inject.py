"""Decision semantics and determinism of the fault injector."""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule, LinkFlap, NicStall
from repro.faults import inject
from repro.faults.inject import PASS
from repro.network.message import Packet, PacketKind

pytestmark = pytest.mark.faults


def _pkt(src=0, dst=1, kind=PacketKind.EAGER):
    return Packet(kind=kind, src_node=src, dst_node=dst, payload_size=512)


def test_certain_drop():
    inj = FaultInjector(FaultPlan.uniform_drop(1.0))
    d = inj.decide(_pkt(), 0.0)
    assert not d.deliver and d.cause == "drop"
    assert inj.stats()["drops"] == 1


def test_every_nth_fires_periodically():
    plan = FaultPlan(rules=[FaultRule(FaultAction.DROP, every_nth=3)])
    inj = FaultInjector(plan)
    # the counter is of *matching* packets; the rule fires when count % 3 == 0,
    # i.e. on the 3rd, 6th, ... match (counter incremented before the test)
    outcomes = [inj.decide(_pkt(), 0.0).deliver for _ in range(9)]
    assert outcomes == [True, True, False] * 3


def test_max_count_caps_firings():
    plan = FaultPlan(rules=[FaultRule(FaultAction.DROP, rate=1.0, max_count=2)])
    inj = FaultInjector(plan)
    outcomes = [inj.decide(_pkt(), 0.0).deliver for _ in range(5)]
    assert outcomes == [False, False, True, True, True]


def test_corrupt_delay_duplicate_compose():
    plan = FaultPlan(
        rules=[
            FaultRule(FaultAction.CORRUPT, rate=1.0),
            FaultRule(FaultAction.DELAY, rate=1.0, delay_us=40.0),
            FaultRule(FaultAction.DUPLICATE, rate=1.0),
        ]
    )
    d = FaultInjector(plan).decide(_pkt(), 0.0)
    assert d.deliver and d.corrupt
    assert d.extra_delay_us == pytest.approx(40.0)
    assert d.duplicates == 1


def test_flap_short_circuits_rules():
    plan = FaultPlan(
        rules=[FaultRule(FaultAction.CORRUPT, rate=1.0)],
        flaps=[LinkFlap(down_at=0.0, up_at=100.0)],
    )
    inj = FaultInjector(plan)
    d = inj.decide(_pkt(), 50.0)
    assert not d.deliver and d.cause == "flap"
    assert inj.stats()["flap_drops"] == 1
    assert inj.stats()["corruptions"] == 0  # never consulted during outage


def test_stall_adds_delay():
    plan = FaultPlan(stalls=[NicStall(start=10.0, end=70.0, node=1)])
    d = FaultInjector(plan).decide(_pkt(), 30.0)
    assert d.deliver
    assert d.extra_delay_us == pytest.approx(40.0)
    assert d.cause == "stall"


def test_same_seed_replays_identically():
    def run(seed):
        inj = FaultInjector(FaultPlan.lossy(drop=0.3, corrupt=0.2, duplicate=0.2, seed=seed))
        return [
            (d.deliver, d.corrupt, d.duplicates)
            for d in (inj.decide(_pkt(), float(t)) for t in range(200))
        ]

    assert run(42) == run(42)
    assert run(42) != run(43)  # and the seed actually matters


def test_adding_a_rule_never_perturbs_existing_draws():
    """Each probabilistic rule draws from its own substream: extending a
    plan with new rules must not shift the decisions of rule 0."""
    base = FaultInjector(FaultPlan(rules=[FaultRule(FaultAction.DROP, rate=0.3)], seed=9))
    extended = FaultInjector(
        FaultPlan(
            rules=[
                FaultRule(FaultAction.DROP, rate=0.3),
                FaultRule(FaultAction.DELAY, rate=0.5, delay_us=5.0),
            ],
            seed=9,
        )
    )
    base_drops = [not base.decide(_pkt(), float(t)).deliver for t in range(300)]
    ext_drops = [not extended.decide(_pkt(), float(t)).deliver for t in range(300)]
    assert base_drops == ext_drops


def test_stats_counts_every_packet():
    inj = FaultInjector(FaultPlan.uniform_drop(0.5, seed=1))
    for t in range(50):
        inj.decide(_pkt(), float(t))
    s = inj.stats()
    assert s["packets_seen"] == 50
    assert 0 < s["drops"] < 50  # probabilistic, but certainly not degenerate


def test_untouched_packet_gets_the_shared_pass_decision():
    inj = FaultInjector(FaultPlan.uniform_drop(0.0))
    first, second = inj.decide(_pkt(), 0.0), inj.decide(_pkt(), 1.0)
    assert first is second is PASS
    assert first.deliver and not first.corrupt and first.duplicates == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.deliver = False  # shared: nobody may change it


def _count_draws(monkeypatch) -> list[int]:
    """Wrap every rule's draw of the next injector built in a counter;
    returns the per-rule draw counts, filled in as it runs."""
    counts: list[int] = []
    real = inject.substream_draws

    def counting(seed, names):
        draws = real(seed, names)
        counts[:] = [0] * len(draws)

        def wrap(i, draw):
            def counted():
                counts[i] += 1
                return draw()

            return counted

        return [wrap(i, draw) for i, draw in enumerate(draws)]

    monkeypatch.setattr(inject, "substream_draws", counting)
    return counts


def test_draws_only_for_matching_uncapped_unperiodic_packets(monkeypatch):
    counts = _count_draws(monkeypatch)
    plan = FaultPlan(
        rules=[
            # never matches an eager packet: never draws
            FaultRule(FaultAction.DROP, rate=0.5, kinds=(PacketKind.RTS,)),
            # fires on its first two draws, then is capped: draws no more
            FaultRule(FaultAction.CORRUPT, rate=1.0, max_count=2),
            # fires on every 2nd match without a draw; draws on the others
            FaultRule(FaultAction.DUPLICATE, rate=0.5, every_nth=2),
            # drops everything inside [10, 20)
            FaultRule(FaultAction.DROP, rate=1.0, after_us=10.0, until_us=20.0),
            # after the drop above: draws only for packets it let through
            FaultRule(FaultAction.DELAY, rate=0.5, delay_us=1.0),
        ]
    )
    inj = FaultInjector(plan)
    delivered = [inj.decide(_pkt(), float(t)).deliver for t in range(15)]
    assert delivered == [True] * 10 + [False] * 5
    assert counts == [0, 2, 8, 5, 10]

