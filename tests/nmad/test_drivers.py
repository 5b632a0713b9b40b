"""Unit tests for the transfer-layer drivers (one NIC driver over the MX
and IB models, TCP, SHM) and the execution context they charge."""

from __future__ import annotations

import pytest

from repro.config import HostModel, NicModel, ShmModel, ib_nic_model, tcp_nic_model
from repro.errors import SchedulerError
from repro.network.fabric import Fabric
from repro.network.message import Packet, PacketKind
from repro.network.nic import Nic
from repro.network.shm import ShmChannel
from repro.nmad.drivers.base import ExecContext
from repro.nmad.drivers import NicDriver, ShmDriver, TcpDriver
from repro.units import KiB


@pytest.fixture
def host():
    return HostModel()


@pytest.fixture
def mx(sim, host):
    fabric = Fabric(sim)
    n0 = Nic(sim, 0, NicModel(), fabric)
    n1 = Nic(sim, 1, NicModel(), fabric)
    fabric.attach(n0)
    fabric.attach(n1)
    return NicDriver(n0, host), NicDriver(n1, host)


def _ctx(sim, core=0):
    return ExecContext(sim, core, sim.now)


def _pkt(kind=PacketKind.EAGER, size=1024, src=0, dst=1):
    return Packet(kind, src, dst, size)


class TestExecContext:
    def test_charge_accumulates(self, sim):
        ctx = ExecContext(sim, 0, start=10.0)
        ctx.charge(2.0)
        ctx.charge(3.0)
        assert ctx.cpu_us == 5.0
        assert ctx.end == 15.0

    def test_negative_charge_rejected(self, sim):
        ctx = ExecContext(sim, 0, start=0.0)
        with pytest.raises(SchedulerError):
            ctx.charge(-1.0)

    def test_schedule_after_lands_at_charged_end(self, sim):
        fired = []
        ctx = ExecContext(sim, 0, start=0.0)
        ctx.charge(4.0)
        ctx.schedule_after(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]


class TestMxDriver:
    def test_thresholds_from_model(self, mx):
        drv, _ = mx
        assert drv.name == "mx"
        assert drv.pio_threshold == 128
        assert drv.rdv_threshold == KiB(32)
        assert drv.wire_bw == NicModel().wire_bw
        assert drv.rx_consume_us == NicModel().rx_consume_us
        assert drv.supports_zero_copy

    def test_eager_charges_copy_plus_setup(self, sim, mx, host):
        drv, peer = mx
        ctx = _ctx(sim)
        drv.submit_eager(ctx, _pkt(size=KiB(8)), copy_bytes=KiB(8))
        expected = (
            drv.model.tx_setup_us + host.memcpy_us(KiB(8)) + drv.model.dma_setup_us
        )
        assert ctx.cpu_us == pytest.approx(expected)
        sim.run()
        assert peer.hw_cq

    def test_numa_factor_scales_copy(self, sim, mx, host):
        drv, _ = mx
        c1, c2 = _ctx(sim), _ctx(sim)
        drv.submit_eager(c1, _pkt(size=KiB(8)), KiB(8), numa_factor=1.0)
        drv.submit_eager(c2, _pkt(size=KiB(8)), KiB(8), numa_factor=1.4)
        assert c2.cpu_us > c1.cpu_us

    def test_pio_charges_per_byte(self, sim, mx):
        drv, _ = mx
        small, big = _ctx(sim), _ctx(sim)
        drv.submit_pio(small, _pkt(PacketKind.PIO, size=16))
        drv.submit_pio(big, _pkt(PacketKind.PIO, size=128))
        assert big.cpu_us > small.cpu_us

    def test_zero_copy_charges_no_memcpy(self, sim, mx, host):
        drv, _ = mx
        ctx = _ctx(sim)
        drv.submit_zero_copy(ctx, _pkt(PacketKind.DATA, size=KiB(256)))
        # descriptor-only cost: far below the copy cost
        assert ctx.cpu_us < host.memcpy_us(KiB(256)) / 10

    def test_control_rejects_payload_packets(self, sim, mx):
        drv, _ = mx
        with pytest.raises(ValueError, match="not a control packet"):
            drv.submit_control(_ctx(sim), _pkt(PacketKind.EAGER))

    def test_control_frames_accepted(self, sim, mx):
        drv, peer = mx
        for kind in (PacketKind.RTS, PacketKind.CTS, PacketKind.ACK):
            drv.submit_control(_ctx(sim), _pkt(kind, size=0))
        sim.run()
        recs = [r for r in peer.hw_cq if r.event == "rx"]
        assert len(recs) == 3

    def test_statistics(self, sim, mx):
        drv, _ = mx
        drv.submit_eager(_ctx(sim), _pkt(size=KiB(1)), KiB(1))
        drv.submit_pio(_ctx(sim), _pkt(PacketKind.PIO, size=64))
        drv.submit_control(_ctx(sim), _pkt(PacketKind.RTS, size=0))
        assert (drv.eager_sends, drv.pio_sends, drv.control_sends) == (1, 1, 1)


class TestShmDriver:
    @pytest.fixture
    def shm_driver(self, sim, host):
        return ShmDriver(ShmChannel(sim, 0, ShmModel()), host)

    def test_no_rendezvous_on_shared_memory(self, shm_driver):
        assert shm_driver.rdv_threshold > 1 << 40
        assert shm_driver.pio_threshold == 0
        assert not shm_driver.supports_zero_copy

    def test_eager_charges_copy(self, sim, shm_driver, host):
        ctx = _ctx(sim)
        shm_driver.submit_eager(ctx, _pkt(size=KiB(8), src=0, dst=0), KiB(8))
        assert ctx.cpu_us >= host.memcpy_us(KiB(8))
        sim.run()
        assert shm_driver.hw_cq

    def test_control_is_cheap(self, sim, shm_driver):
        ctx = _ctx(sim)
        shm_driver.submit_control(ctx, _pkt(PacketKind.RTS, size=0, src=0, dst=0))
        assert ctx.cpu_us <= 1.0


class TestTcpDriver:
    @pytest.fixture
    def tcp(self, sim, host):
        fabric = Fabric(sim)
        model = tcp_nic_model()
        n0 = Nic(sim, 0, model, fabric)
        n1 = Nic(sim, 1, model, fabric)
        fabric.attach(n0)
        fabric.attach(n1)
        return TcpDriver(n0, host), TcpDriver(n1, host)

    def test_no_pio_no_zero_copy(self, tcp):
        drv, _ = tcp
        assert drv.name == "tcp"
        assert drv.pio_threshold == 0
        assert not drv.supports_zero_copy

    def test_every_send_pays_syscall(self, sim, tcp, host):
        drv, _ = tcp
        ctx = _ctx(sim)
        drv.submit_eager(ctx, _pkt(size=64), 64)
        assert ctx.cpu_us >= host.syscall_us

    def test_zero_copy_degenerates_to_copy(self):
        """With no zero-copy, the rendezvous DATA leg is an eager socket
        send that copies the whole payload."""
        from repro.harness.runner import ClusterRuntime

        rt = ClusterRuntime.build(engine="pioman", interconnect="tcp")

        def sender(ctx):
            req = yield from ctx.env["nm"].isend(ctx, 1, 0, KiB(128), payload="x")
            yield from ctx.env["nm"].swait(ctx, req)

        def receiver(ctx):
            yield from ctx.env["nm"].recv(ctx, 0, 0, KiB(128))

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        drv = rt.nodes[0].drivers[0]
        assert rt.nodes[0].session.stats["rdv_sends"] == 1
        assert rt.nodes[0].session.stats["copies_bytes"] == KiB(128)
        assert (drv.eager_sends, drv.zero_copy_sends) == (1, 0)

    def test_control_frames_are_socket_writes(self, sim, tcp, host):
        drv, peer = tcp
        ctx = _ctx(sim)
        drv.submit_control(ctx, _pkt(PacketKind.RTS, size=0))
        assert ctx.cpu_us == pytest.approx(host.syscall_us + drv.model.tx_setup_us)
        sim.run()
        assert [r.event for r in peer.hw_cq] == ["rx"]
        assert (drv.control_sends, drv.eager_sends) == (1, 0)

    def test_latency_much_higher_than_mx(self, tcp):
        drv, _ = tcp
        assert drv.model.wire_latency_us > NicModel().wire_latency_us * 5

    def test_rx_consume_includes_syscall(self, tcp, host):
        drv, _ = tcp
        assert drv.rx_consume_us == drv.model.rx_consume_us + host.syscall_us


class TestIbDriver:
    @pytest.fixture
    def ib(self, sim, host):
        fabric = Fabric(sim)
        model = ib_nic_model()
        n0 = Nic(sim, 0, model, fabric)
        n1 = Nic(sim, 1, model, fabric)
        fabric.attach(n0)
        fabric.attach(n1)
        return NicDriver(n0, host), NicDriver(n1, host)

    def test_verbs_thresholds(self, ib):
        drv, _ = ib
        assert drv.name == "ib"
        assert drv.pio_threshold == 64  # max inline data
        assert drv.rdv_threshold == KiB(16)  # earlier RDMA switch than MX
        assert drv.supports_zero_copy

    def test_latency_lower_than_mx(self, ib):
        drv, _ = ib
        assert drv.model.wire_latency_us < NicModel().wire_latency_us

    def test_inline_send_delivers(self, sim, ib):
        drv, peer = ib
        ctx = _ctx(sim)
        drv.submit_pio(ctx, _pkt(PacketKind.PIO, size=32))
        assert ctx.cpu_us < 2.0
        sim.run()
        assert any(r.event == "rx" for r in peer.hw_cq)
        assert drv.pio_sends == 1

    def test_rdma_write_is_descriptor_only(self, sim, ib, host):
        drv, _ = ib
        ctx = _ctx(sim)
        drv.submit_zero_copy(ctx, _pkt(PacketKind.DATA, size=KiB(256)))
        assert ctx.cpu_us < 1.0
        assert drv.zero_copy_sends == 1

    def test_registration_pricier_than_mx(self, ib):
        drv, _ = ib
        assert drv.model.reg_setup_us > NicModel().reg_setup_us

    def test_control_rejects_payload(self, sim, ib):
        drv, _ = ib
        with pytest.raises(ValueError, match="not a control packet"):
            drv.submit_control(_ctx(sim), _pkt(PacketKind.EAGER))

    def test_end_to_end_over_ib(self):
        from repro.harness.runner import ClusterRuntime

        rt = ClusterRuntime.build(engine="pioman", interconnect="ib")
        out = {}

        def sender(ctx):
            nm = ctx.env["nm"]
            # 32K exceeds IB's 16K threshold: rendezvous via RDMA write
            req = yield from nm.isend(ctx, 1, 0, KiB(32), payload="rdma")
            out["req"] = req
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, KiB(32))
            out["data"] = req.data

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        assert out["data"] == "rdma"
        assert out["req"].protocol == "rdv"
