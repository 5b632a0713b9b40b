"""Completion records carry one of two events.

``CompletionRecord`` does not check its event: its producers, the NIC and
the shared-memory channel, pass the module constants ``TX_DONE`` and
``RX``. These runs record every completion the two devices queue — eager
and rendezvous traffic, inter- and intra-node, both engines, a lossy wire
with retransmits — and find only those two.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.apps.convolution import ConvolutionConfig, run_convolution
from repro.config import EngineKind
from repro.faults.plan import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.network import RX, TX_DONE, nic, shm
from repro.network.message import CompletionRecord
from repro.units import KiB


def _exchange(engine: str) -> None:
    rt = ClusterRuntime.build(
        engine=engine, seed=3, faults=FaultPlan.lossy(drop=0.1, seed=3),
    )

    def body(ctx):
        nm = ctx.env["nm"]
        peer = 1 - ctx.env["node"]
        for tag, size in enumerate((64, KiB(4), KiB(128))):
            req = yield from nm.isend(ctx, peer, tag, size, payload=tag)
            yield from nm.recv(ctx, peer, tag, size)
            yield from nm.swait(ctx, req)

    for node in (0, 1):
        rt.spawn(node, body, name=f"x{node}")
    rt.run()
    rt.close()


@pytest.mark.parametrize("engine", (EngineKind.SEQUENTIAL, EngineKind.PIOMAN))
def test_devices_queue_only_tx_done_and_rx(engine):
    seen: dict[str, set[str]] = {"nic": set(), "shm": set()}

    def recording(device: str):
        class Recorded(CompletionRecord):
            __slots__ = ()

            def __init__(self, event, packet, time):
                seen[device].add(event)
                super().__init__(event, packet, time)

        return Recorded

    with mock.patch.object(nic, "CompletionRecord", recording("nic")), mock.patch.object(
        shm, "CompletionRecord", recording("shm")
    ):
        run_convolution(ConvolutionConfig(engine=engine))
        _exchange(engine)
    assert seen == {"nic": {TX_DONE, RX}, "shm": {TX_DONE, RX}}
