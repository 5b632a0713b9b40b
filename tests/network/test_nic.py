"""Unit tests for the NIC model and the fabric."""

from __future__ import annotations

import pytest

from repro.config import NicModel
from repro.errors import NetworkError, RouteError
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic


@pytest.fixture
def net(sim):
    fabric = Fabric(sim)
    n0 = Nic(sim, 0, NicModel(), fabric)
    n1 = Nic(sim, 1, NicModel(), fabric)
    fabric.attach(n0)
    fabric.attach(n1)
    return fabric, n0, n1


def _pkt(src=0, dst=1, size=1024, kind=PacketKind.EAGER):
    return Packet(kind=kind, src_node=src, dst_node=dst, payload_size=size)


class TestTx:
    def test_pio_delivers(self, sim, net):
        _fabric, n0, n1 = net
        p = _pkt(size=64, kind=PacketKind.PIO)
        n0.submit_pio(p)
        sim.run()
        recs = list(n1.cq)
        assert [r.event for r in recs] == ["rx"]
        assert recs[0].packet is p
        # PIO produces an immediate local tx_done too
        assert any(r.event == "tx_done" for r in n0.cq)

    def test_pio_cpu_cost_scales_with_size(self, net):
        _f, n0, _n1 = net
        small = n0.pio_cpu_us(_pkt(size=16, kind=PacketKind.PIO))
        big = n0.pio_cpu_us(_pkt(size=128, kind=PacketKind.PIO))
        assert big > small

    def test_dma_tx_done_at_wire_drain(self, sim, net):
        _f, n0, _n1 = net
        p = _pkt(size=32768)
        done_at = n0.submit_dma(p)
        expected = p.wire_size / n0.model.wire_bw
        assert done_at == pytest.approx(expected)
        sim.run()
        assert any(r.event == "tx_done" for r in n0.cq)

    def test_dma_serialization(self, sim, net):
        """A single TX engine: the second packet waits for the first."""
        _f, n0, _n1 = net
        d1 = n0.submit_dma(_pkt(size=32768))
        d2 = n0.submit_dma(_pkt(size=1024))
        assert d2 > d1
        sim.run()

    def test_wrong_source_rejected(self, net):
        _f, n0, _n1 = net
        with pytest.raises(NetworkError, match="not this node"):
            n0.submit_dma(_pkt(src=1, dst=0))


class TestRx:
    def test_delivery_time_includes_latency_and_bandwidth(self, sim, net):
        _f, n0, n1 = net
        p = _pkt(size=10240)
        n0.submit_dma(p)
        arrivals = []
        n1.add_activity_listener(lambda: arrivals.append(sim.now))
        sim.run()
        model = n0.model
        expected = model.wire_latency_us + p.wire_size / model.wire_bw
        assert arrivals[0] == pytest.approx(expected)

    def test_wrong_destination_rejected(self, net):
        _f, _n0, n1 = net
        with pytest.raises(NetworkError, match="delivered here"):
            n1.deliver(_pkt(src=0, dst=0))

    def test_poll_drains_in_order(self, sim, net):
        _f, n0, n1 = net
        p1, p2 = _pkt(size=100), _pkt(size=200)
        n0.submit_dma(p1)
        n0.submit_dma(p2)
        sim.run()
        recs = [r for r in n1.cq if r.event == "rx"]
        assert [r.packet for r in recs] == [p1, p2]


class TestFabric:
    def test_duplicate_attach_rejected(self, sim):
        fabric = Fabric(sim)
        fabric.attach(Nic(sim, 0, NicModel(), fabric))
        with pytest.raises(RouteError, match="already"):
            fabric.attach(Nic(sim, 0, NicModel(), fabric))

    def test_unknown_destination_rejected(self, sim, net):
        _f, n0, _n1 = net
        with pytest.raises(RouteError, match="no NIC"):
            n0.submit_dma(_pkt(dst=7))

    def test_loopback_rejected(self, sim, net):
        fabric, n0, _n1 = net
        with pytest.raises(RouteError, match="shared-memory"):
            fabric.transmit(n0, _pkt(src=0, dst=0), tx_time=0.0)

    def test_traffic_statistics(self, sim, net):
        fabric, n0, _n1 = net
        p = _pkt(size=1000)
        n0.submit_dma(p)
        sim.run()
        assert fabric.packets_carried == 1
        assert fabric.bytes_carried == p.wire_size


class TestPacket:
    def test_control_packets_fixed_wire_size(self):
        rts = Packet(PacketKind.RTS, 0, 1, 0)
        cts = Packet(PacketKind.CTS, 1, 0, 0)
        assert rts.wire_size == cts.wire_size == 64

    def test_payload_packets_add_header(self):
        p = _pkt(size=1000)
        assert p.wire_size == 1000 + 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError):
            Packet("warp", 0, 1, 0)

    def test_negative_size_rejected(self):
        with pytest.raises(NetworkError):
            _pkt(size=-1)

    def test_unique_ids(self):
        # a packet is its own identity: equal fields never make two equal
        a, b = _pkt(), _pkt()
        assert a != b and a == a
