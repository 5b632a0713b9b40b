"""End-to-end recovery: the reliability layer restores the lossless
contract the NewMadeleine protocols assume, for every fault flavour."""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.faults import FaultAction, FaultPlan, FaultRule, LinkFlap, NicStall
from repro.harness.runner import ClusterRuntime
from repro.network.message import PacketKind
from repro.units import KiB

pytestmark = pytest.mark.faults

ENGINES = (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)


def _pingpong(rt: ClusterRuntime, n: int, size: int):
    """Spawn an n-round ping-pong; returns the list origin received."""
    got: list = []

    def origin(ctx):
        nm = ctx.env["nm"]
        for i in range(n):
            yield from nm.send(ctx, 1, i, size, payload=i)
            req = yield from nm.recv(ctx, 1, 1000 + i, size)
            got.append(req.data)
        yield from nm.drain(ctx)

    def echo(ctx):
        nm = ctx.env["nm"]
        for i in range(n):
            req = yield from nm.recv(ctx, 0, i, size)
            yield from nm.send(ctx, 0, 1000 + i, size, payload=req.data)
        yield from nm.drain(ctx)

    rt.spawn(0, origin, name="S")
    rt.spawn(1, echo, name="R")
    return got


@pytest.mark.parametrize("engine", ENGINES)
def test_eager_drop_recovery(engine):
    rt = ClusterRuntime.build(engine=engine, faults=FaultPlan.uniform_drop(0.25, seed=5))
    got = _pingpong(rt, n=6, size=KiB(4))
    rt.run()
    rec = rt.recovery_stats()
    assert got == list(range(6))
    assert rt.fault_injector.stats()["drops"] > 0
    assert rec["retransmits"] > 0
    assert rec["acks_received"] > 0
    rt.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_pio_drop_recovery(engine):
    """Tiny messages ride the PIO submission path; its retransmits too."""
    rt = ClusterRuntime.build(engine=engine, faults=FaultPlan.uniform_drop(0.3, seed=11))
    got = _pingpong(rt, n=5, size=64)
    rt.run()
    assert got == list(range(5))
    assert rt.recovery_stats()["retransmits"] > 0
    rt.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_rendezvous_drop_recovery(engine):
    """RTS/CTS/DATA frames all carry wire sequences: a lossy wire heals.

    ``gave_up`` may be nonzero for the sequential engine only: once its
    threads exit ``drain()`` the node stops acknowledging, so the peer's
    final in-flight frame can exhaust its retries — a bounded tail effect
    (the data was delivered; its ACK was not), impossible under pioman
    because idle cores keep the receive side acking autonomously.
    """
    rt = ClusterRuntime.build(engine=engine, faults=FaultPlan.uniform_drop(0.2, seed=3))
    got = _pingpong(rt, n=2, size=KiB(96))
    rt.run()
    rec = rt.recovery_stats()
    assert got == [0, 1]
    assert rec["retransmits"] + rec["rts_retries"] > 0
    if engine == EngineKind.PIOMAN:
        assert rec["gave_up"] == 0
    else:
        assert rec["gave_up"] <= 2
    rt.close()


def test_corruption_degenerates_to_loss():
    """Corrupted frames are discarded without an ACK; the sender's timeout
    retransmits them like drops."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, faults=FaultPlan.lossy(corrupt=0.3, seed=2)
    )
    got = _pingpong(rt, n=6, size=KiB(4))
    rt.run()
    rec = rt.recovery_stats()
    assert got == list(range(6))
    assert rec["corrupt_drops"] > 0
    assert rec["retransmits"] > 0
    rt.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_corrupted_ack_is_dropped_not_accepted(engine):
    """Regression: a corrupted ACK must not count as an acknowledgement.

    ``on_rx`` once dispatched on ``PacketKind.ACK`` before checking the
    ``corrupted`` header, so a fault-injected bogus ACK cancelled the
    retransmit timer. With the check ordered first, the corrupted ACK is
    discarded (``corrupt_drops``) and the sender's timeout retransmits the
    payload — the old ordering makes this test fail with zero retransmits.
    """
    plan = FaultPlan(
        rules=[
            FaultRule(
                FaultAction.CORRUPT, rate=1.0, kinds=(PacketKind.ACK,), max_count=3
            )
        ]
    )
    rt = ClusterRuntime.build(engine=engine, faults=plan)
    got = _pingpong(rt, n=4, size=KiB(4))
    rt.run()
    rec = rt.recovery_stats()
    assert got == list(range(4))
    assert rec["corrupt_drops"] > 0  # the bogus ACKs were discarded...
    assert rec["retransmits"] > 0  # ...so their payloads were re-sent
    rt.close()


def test_duplicates_are_swallowed_and_reacked():
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, faults=FaultPlan.lossy(duplicate=0.5, seed=4)
    )
    got = _pingpong(rt, n=6, size=KiB(4))
    rt.run()
    rec = rt.recovery_stats()
    assert got == list(range(6))  # exactly once each, in order
    assert rt.fault_injector.stats()["duplicates"] > 0
    assert rec["dup_drops"] > 0
    rt.close()


def test_every_nth_drop_is_deterministic_and_healed():
    def run():
        plan = FaultPlan(rules=[FaultRule(FaultAction.DROP, every_nth=4)])
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, faults=plan)
        got = _pingpong(rt, n=6, size=KiB(2))
        end = rt.run()
        stats = (rt.fault_injector.stats(), rt.recovery_stats())
        rt.close()
        return got, end, stats

    first = run()
    assert first[0] == list(range(6))
    assert first[2][0]["drops"] > 0
    assert run() == first  # periodic rules replay exactly


def test_link_flap_outage_is_ridden_out():
    """All traffic during the outage is lost; backoff retries land after
    the link comes back and the run completes."""
    plan = FaultPlan(flaps=[LinkFlap(down_at=0.0, up_at=400.0)])
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, faults=plan)
    got = _pingpong(rt, n=3, size=KiB(4))
    rt.run()
    assert got == [0, 1, 2]
    assert rt.fault_injector.stats()["flap_drops"] > 0
    assert rt.recovery_stats()["gave_up"] == 0
    rt.close()


def test_nic_stall_delays_but_never_loses():
    plan = FaultPlan(stalls=[NicStall(start=0.0, end=80.0, node=1)])
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, faults=plan)
    got = _pingpong(rt, n=3, size=KiB(4))
    rt.run()
    assert got == [0, 1, 2]
    assert rt.fault_injector.stats()["stall_delays"] > 0
    rt.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_degraded_link_reroutes_to_alternate_rail(engine):
    """A rail whose link black-holes every packet is marked degraded after
    ``degraded_threshold`` consecutive timeouts; retransmissions and new
    submissions reroute to the healthy rail and the run completes."""
    rt = ClusterRuntime.build(
        engine=engine, rails=2, faults=FaultPlan.uniform_drop(1.0), recover=True
    )
    # the builder installs the injector on every fabric; confine the black
    # hole to rail 0 so rail 1 stays healthy
    rail1_fabric = rt.node(0).nics[1].fabric
    rail1_fabric.set_injector(None)
    got = _pingpong(rt, n=2, size=KiB(4))
    rt.run()
    rec = rt.recovery_stats()
    assert got == [0, 1]
    assert rec["degraded_events"] > 0
    assert rec["gave_up"] == 0
    # the healthy rail actually carried traffic after the reroute
    assert rt.node(0).nics[1].tx_packets > 0
    rt.close()


def test_rail_timeout_count_decays_after_quiet_window():
    """Sporadic timeouts spread over a long run must not accumulate into a
    spurious degraded-link event: the consecutive-timeout count restarts
    when the rail sits quiet past the decay window, and a delivery (ACK)
    forgets it entirely."""
    from types import SimpleNamespace

    rt = ClusterRuntime.build(
        engine=EngineKind.SEQUENTIAL, faults=FaultPlan.uniform_drop(0.0), recover=True
    )
    rel = rt.node(0).session.reliability
    window = rel.decay_window_us
    entry = SimpleNamespace(
        gate=SimpleNamespace(peer=1, rails=(None, None)), rail_index=0, timer=None
    )
    sim = rt.sim
    # two timeouts in quick succession accumulate...
    sim.schedule_at(10.0, rel._note_rail_timeout, entry)
    sim.schedule_at(20.0, rel._note_rail_timeout, entry)
    sim.run(until=30.0)
    assert rel._rail_timeouts[(1, 0)][0] == 2
    # ...but after a quiet stretch longer than the window the next timeout
    # starts a fresh streak instead of reaching the threshold (3)
    sim.schedule_at(20.0 + window + 1.0, rel._note_rail_timeout, entry)
    sim.run(until=20.0 + window + 2.0)
    assert rel._rail_timeouts[(1, 0)][0] == 1
    assert rel.degraded_links() == []
    # a delivery on the rail clears the count outright
    rel._acked(entry)
    assert (1, 0) not in rel._rail_timeouts
    rt.close()


def test_dead_link_still_trips_threshold_despite_decay():
    """The decay window must span exponential-backoff gaps: a black-holed
    rail still degrades (guards against an over-eager decay)."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN,
        rails=2,
        faults=FaultPlan.uniform_drop(1.0),
        recover=True,
    )
    rt.node(0).nics[1].fabric.set_injector(None)
    got = _pingpong(rt, n=2, size=KiB(4))
    rt.run()
    assert got == [0, 1]
    assert rt.recovery_stats()["degraded_events"] > 0
    rt.close()


def test_recovery_state_quiesces_after_drain():
    """drain() returns only when every reliable frame is acknowledged:
    no pending retransmit state may survive the run."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, faults=FaultPlan.uniform_drop(0.25, seed=8)
    )
    _pingpong(rt, n=5, size=KiB(4))
    rt.run()
    for nrt in rt.nodes:
        assert nrt.session.reliability is not None
        assert nrt.session.reliability.pending_count() == 0
    rt.close()


def test_recover_false_leaves_protocols_naive():
    """recover=False installs the injector but no reliability layer."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, faults=FaultPlan.uniform_drop(0.0), recover=False
    )
    assert rt.fault_injector is not None
    for nrt in rt.nodes:
        assert nrt.session.reliability is None
    rt.close()
