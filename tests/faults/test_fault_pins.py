"""Pins of the fault path: every plan feature, end to end and per packet.

One plan uses every feature of :mod:`repro.faults`: drop, corrupt, delay
and duplicate rates, an ``every_nth`` rule with a ``max_count`` cap,
``src_node``/``dst_node``/``kinds`` filters, an ``after_us``/``until_us``
window, a periodic :class:`LinkFlap` and a :class:`NicStall`. It runs a
storm of small isends plus one rendezvous per round on two aggregating
rails with recovery on, under both engines; the end time, the trace
digest, the injector's counters and the recovery counters are pinned.
The same plan's :meth:`FaultInjector.decide` is also pinned over a fixed
stream of synthetic packets of mixed kinds, directions and send times.

The pins were captured before the per-packet fault path was rewritten as
one pass over flattened rules; any change to the draw order, a filter or
a counter moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineKind
from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule, LinkFlap, NicStall
from repro.harness.runner import ClusterRuntime
from repro.network.message import Packet, PacketKind
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.faults

SEQ, PIOM = EngineKind.SEQUENTIAL, EngineKind.PIOMAN
ROUNDS = 8
BURST = 12


def _plan(seed: int = 5) -> FaultPlan:
    return FaultPlan(
        rules=[
            FaultRule(FaultAction.DROP, rate=0.03),
            FaultRule(FaultAction.CORRUPT, rate=0.04, kinds=(PacketKind.EAGER, PacketKind.PIO)),
            FaultRule(
                FaultAction.DELAY, rate=0.1, delay_us=7.5, src_node=0,
                after_us=40.0, until_us=1500.0,
            ),
            FaultRule(FaultAction.DUPLICATE, rate=0.05, dst_node=0),
            FaultRule(FaultAction.DROP, every_nth=7, max_count=4, kinds=(PacketKind.ACK,)),
        ],
        flaps=[LinkFlap(down_at=100.0, up_at=112.0, src_node=0, period_us=300.0)],
        stalls=[NicStall(start=250.0, end=290.0, node=1)],
        seed=seed,
    )


def _run(engine: str) -> tuple[float, str, dict[str, int], dict[str, int]]:
    tracer = Tracer()
    rt = ClusterRuntime.build(
        engine=engine,
        rails=2,
        strategy="aggreg",
        strategy_kwargs={"flush_window_us": 5.0},
        faults=_plan(),
        recover=True,
        tracer=tracer,
    )

    def sender(ctx):
        nm = ctx.env["nm"]
        for r in range(ROUNDS):
            reqs = []
            for i in range(BURST):
                req = yield from nm.isend(ctx, 1, i, KiB(1), payload=(r, i))
                reqs.append(req)
            req = yield from nm.isend(ctx, 1, BURST, KiB(64), payload=r)
            reqs.append(req)
            yield from nm.wait_all(ctx, reqs)
        yield from nm.drain(ctx)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in range(ROUNDS):
            reqs = []
            for i in range(BURST):
                req = yield from nm.irecv(ctx, 0, i, KiB(1))
                reqs.append(req)
            req = yield from nm.irecv(ctx, 0, BURST, KiB(64))
            reqs.append(req)
            yield from nm.wait_all(ctx, reqs)
        yield from nm.drain(ctx)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    digest = hashlib.sha256(repr(tracer.signature()).encode()).hexdigest()
    out = (round(end, 4), digest, rt.fault_injector.stats(), rt.recovery_stats())
    rt.close()
    return out


#: engine -> (end time rounded to 0.1 ns, SHA-256 of the trace signature,
#: injector counters, recovery counters)
RUN_PINS = {
    SEQ: (
        63375.4413,
        "5f6bc1a19cc7d5010fe3d756eb3099a402d66f0a80c9d097dba829a7def029ac",
        {"packets_seen": 265, "drops": 6, "corruptions": 5, "delays": 23,
         "duplicates": 6, "flap_drops": 0, "stall_delays": 2},
        {"retransmits": 16, "rts_retries": 2, "timeouts": 19, "acks_sent": 127,
         "acks_received": 119, "dup_drops": 7, "corrupt_drops": 5, "gave_up": 1,
         "degraded_events": 1},
    ),
    PIOM: (
        1215.428,
        "5dde51b4dbfd01f201fe4439b59bf1582e8c2d2830c573a4fdb5ab4a8a795b03",
        {"packets_seen": 108, "drops": 5, "corruptions": 1, "delays": 8,
         "duplicates": 3, "flap_drops": 1, "stall_delays": 1},
        {"retransmits": 4, "rts_retries": 3, "timeouts": 7, "acks_sent": 53,
         "acks_received": 48, "dup_drops": 5, "corrupt_drops": 1, "gave_up": 0,
         "degraded_events": 0},
    ),
}


@pytest.mark.parametrize("engine", [SEQ, PIOM])
def test_fault_run_is_pinned(engine):
    assert _run(engine) == RUN_PINS[engine]


def _packets(n: int = 500) -> list[tuple[Packet, float]]:
    """A fixed stream of packets of every kind, in both directions, at
    increasing send times that cross every window of :func:`_plan`."""
    kinds = PacketKind.ALL
    out = []
    t = 0.0
    for i in range(n):
        kind = kinds[(i * 7) % len(kinds)]
        src = (i // 3) % 2
        t += 0.5 + (i * 13) % 5
        out.append((Packet(kind, src, 1 - src, 0 if kind in ("rts", "cts", "ack") else 512), t))
    return out


#: SHA-256 of the (deliver, corrupt, extra_delay_us, duplicates) sequence
DECIDE_PIN = "2054a7244a3fe054f7f725e46a5b57a7eb384c761cb53d334c885bdc979dc334"
#: the injector's counters after that sequence
DECIDE_STATS = {
    "packets_seen": 500, "drops": 19, "corruptions": 6, "delays": 31,
    "duplicates": 12, "flap_drops": 8, "stall_delays": 17,
}


def test_decide_sequence_is_pinned():
    inj = FaultInjector(_plan())
    seq = []
    for packet, now in _packets():
        d = inj.decide(packet, now)
        seq.append((d.deliver, d.corrupt, d.extra_delay_us, d.duplicates))
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == DECIDE_PIN
    assert inj.stats() == DECIDE_STATS
