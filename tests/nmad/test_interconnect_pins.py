"""End times and trace digests of short runs over every interconnect.

One isend of each protocol size (PIO/eager, eager or rendezvous depending
on the NIC model, rendezvous) on the MX, IB and TCP drivers under both
engines, a two-rail ``split`` run on IB, and a TCP rendezvous that loses
every second frame and recovers through retransmits (TCP retransmits
re-post eager frames with no copy and send control frames by DMA). The
pins were captured before the MX and IB drivers were folded into one
class; any change to a driver's costs moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineKind
from repro.faults import FaultPlan, FaultRule
from repro.harness.runner import ClusterRuntime
from repro.sim.tracing import Tracer
from repro.units import KiB

SEQ, PIOM = EngineKind.SEQUENTIAL, EngineKind.PIOMAN
SIZES = (64, KiB(16), KiB(128))


def _run(engine: str, interconnect: str, size: int, **build) -> tuple[float, str]:
    """(end time, trace digest) of isend + compute(20) + swait + drain
    against a receiver posting irecv + rwait + drain."""
    return _run_rt(engine, interconnect, size, **build)[0]


def _run_rt(
    engine: str, interconnect: str, size: int, **build
) -> tuple[tuple[float, str], ClusterRuntime]:
    tracer = Tracer()
    rt = ClusterRuntime.build(engine=engine, interconnect=interconnect, tracer=tracer, **build)

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, size, payload=1, buffer_id="b")
        yield ctx.compute(20.0)
        yield from nm.swait(ctx, req)
        yield from nm.drain(ctx)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, size, buffer_id="r")
        yield from nm.rwait(ctx, req)
        yield from nm.drain(ctx)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    digest = hashlib.blake2b(repr((end, tracer.signature())).encode(), digest_size=16)
    return (round(end, 4), digest.hexdigest()), rt


#: (interconnect, engine, size) -> (end time rounded to 0.1 ns, trace digest)
PINS = {
    ("mx", SEQ, 64): (21.932, "3e7f4f92bd4bd9b27c3612b168802b74"),
    ("mx", SEQ, KiB(16)): (42.1951, "18e915b4c8afcc83f78678e727a804dc"),
    ("mx", SEQ, KiB(128)): (187.8296, "7f84d36c7551193c85a09359cf06b4e8"),
    ("mx", PIOM, 64): (20.2, "083194e141198270931406009fbb1fc7"),
    ("mx", PIOM, KiB(16)): (42.1111, "357263c1ea13178ccf1b8b57b0a5edaf"),
    ("mx", PIOM, KiB(128)): (190.0296, "f594d15194f6595f03c13df26fea420f"),
    ("ib", SEQ, 64): (21.266, "36078bb97531c7a692576ee65d4fc1aa"),
    ("ib", SEQ, KiB(16)): (41.8451, "0f29d24a5387d4911e6c5575e3b1c242"),
    ("ib", SEQ, KiB(128)): (176.46, "0905cccf5f73558a4b17c21ead165609"),
    ("ib", PIOM, 64): (20.2, "03670157a9de4c6817d755461609f083"),
    ("ib", PIOM, KiB(16)): (36.5908, "d34260529726215f0c2eda49661c1ac7"),
    ("ib", PIOM, KiB(128)): (178.66, "d75630fd4a652925542f2737213b57c3"),
    ("tcp", SEQ, 64): (31.6684, "bd05499c232ed891c27ae6a8ece3c5fb"),
    ("tcp", SEQ, KiB(16)): (191.4211, "6d7c3c613640031302f5155edc30fc1b"),
    ("tcp", SEQ, KiB(128)): (1372.9198, "a691fc42eae57abef9f70d5b4ff33109"),
    ("tcp", PIOM, 64): (33.7884, "fadb867734fcbe0608d90fff34577924"),
    ("tcp", PIOM, KiB(16)): (193.5411, "fdbc7a1be4a11eb70312c9e49662ed22"),
    ("tcp", PIOM, KiB(128)): (1375.1198, "6d73ed06e210a040815d117cc194e2df"),
}

#: two rails on IB, the 16 KiB eager message split across both
SPLIT_PINS = {
    SEQ: (42.9951, "fe52d08d3a653d0e646ef0288a20999d"),
    PIOM: (23.2087, "8731208c841b50f6ca16856598c5dd9f"),
}

#: TCP 128 KiB rendezvous with recovery on, keyed by the drop period:
#: dropping every second frame retries the handshake (control frames) until
#: the sender gives up; dropping every third retransmits the DATA frame
#: (an eager re-post) once
TCP_LOSSY_PINS = {
    2: ((153918.3097, "4039916b24740c0ce9808064e8a1e4eb"), "rts_retries"),
    3: ((4078.5916, "74eff5aace1e68395b06545d58ae7c5c"), "retransmits"),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_interconnect_run_is_pinned(key):
    interconnect, engine, size = key
    assert _run(engine, interconnect, size) == PINS[key]


@pytest.mark.parametrize("engine", [SEQ, PIOM])
def test_ib_two_rail_split_is_pinned(engine):
    pin, rt = _run_rt(engine, "ib", KiB(16), rails=2, strategy="split")
    assert pin == SPLIT_PINS[engine]
    assert [d.stats()["eager_sends"] for d in rt.nodes[0].drivers[:2]] == [1, 1]


@pytest.mark.parametrize("every_nth", sorted(TCP_LOSSY_PINS))
def test_tcp_lossy_rendezvous_is_pinned(every_nth):
    plan = FaultPlan(rules=(FaultRule("drop", every_nth=every_nth),))
    pin, rt = _run_rt(PIOM, "tcp", KiB(128), faults=plan)
    expected, resent = TCP_LOSSY_PINS[every_nth]
    assert pin == expected
    assert rt.nodes[0].session.stats[resent] > 0
