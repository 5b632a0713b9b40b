"""Unit tests for the intra-node shared-memory channel."""

from __future__ import annotations

import pytest

from repro.config import ShmModel
from repro.errors import NetworkError
from repro.network.message import Packet, PacketKind
from repro.network.shm import ShmChannel


@pytest.fixture
def shm(sim):
    return ShmChannel(sim, node_index=0, model=ShmModel())


def _pkt(size=4096):
    return Packet(PacketKind.EAGER, src_node=0, dst_node=0, payload_size=size)


def test_local_tx_done_immediate(sim, shm):
    shm.submit(_pkt())
    assert [r.event for r in shm.cq] == ["tx_done"]


def test_rx_after_latency(sim, shm):
    p = _pkt()
    arrivals = []
    shm.add_activity_listener(lambda: arrivals.append(sim.now))
    shm.submit(p)
    sim.run()
    # first notification: tx_done at 0; second: rx at latency
    assert arrivals == [0.0, pytest.approx(shm.model.latency_us)]
    assert {r.event for r in shm.cq} == {"tx_done", "rx"}


def test_copy_done_delay_shifts_arrival(sim, shm):
    shm.submit(_pkt(), copy_done_delay=5.0)
    sim.run()
    rx = [r for r in shm.cq if r.event == "rx"]
    assert rx[0].time == pytest.approx(5.0 + shm.model.latency_us)


def test_cross_node_packet_rejected(sim, shm):
    with pytest.raises(NetworkError, match="stay on node"):
        shm.submit(Packet(PacketKind.EAGER, src_node=0, dst_node=1, payload_size=10))


def test_fifo_delivery(sim, shm):
    p1, p2 = _pkt(10), _pkt(20)
    shm.submit(p1)
    shm.submit(p2)
    sim.run()
    rx = [r.packet for r in shm.cq if r.event == "rx"]
    assert rx == [p1, p2]


def test_statistics(sim, shm):
    shm.submit(_pkt())
    assert shm.tx_packets == 1
