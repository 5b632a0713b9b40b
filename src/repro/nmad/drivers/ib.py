"""InfiniBand Verbs-like driver.

§3.1 lists "Verbs/InfiniBand" among NewMadeleine's networks. The Verbs
cost profile differs from MX in three ways that matter to the engine:

* **inline sends** — payloads up to ~64 B travel inside the work-queue
  entry itself: one CPU write burst, no registration, lowest latency
  (maps onto the PIO path);
* **registration is mandatory** — even eager traffic flows through
  pre-registered bounce buffers (the copy is the same as MX's; the
  *rendezvous* path is RDMA-write and benefits most from the cache);
* **lower latency / higher bandwidth** — DDR-era Verbs: ≈1.3 µs one-way,
  ≈1.4 GiB/s.

The driver reuses the generic NIC/wire machinery with an IB-flavoured
:class:`~repro.config.NicModel` (:func:`ib_nic_model`).
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel, NicModel
from ...network.message import Packet, PacketKind
from ...network.nic import Nic
from ...units import GiB_per_s, KiB
from .base import Driver, ExecContext

__all__ = ["IbDriver", "ib_nic_model"]


def ib_nic_model(
    wire_latency_us: float = 1.3,
    wire_bw: float = GiB_per_s(1.4),
    rdv_threshold: int = KiB(16),
) -> NicModel:
    """A DDR InfiniBand-flavoured :class:`NicModel`.

    Verbs stacks switch to the rendezvous (RDMA write) earlier than MX —
    16 KiB is a common default — because registration-cache hits make the
    zero-copy path cheap.
    """
    return NicModel(
        name="ib",
        pio_threshold=64,  # max inline data
        rdv_threshold=rdv_threshold,
        wire_latency_us=wire_latency_us,
        wire_bw=wire_bw,
        pio_byte_us=0.004,  # inline WQE writes
        tx_setup_us=0.3,  # post_send() is cheap
        dma_setup_us=0.3,
        rx_consume_us=0.4,
        poll_us=0.2,  # CQ polling is a cheap memory read
        interrupt_us=8.0,  # event-channel wakeups are pricier than MX
        reg_setup_us=1.5,  # ibv_reg_mr is heavier than MX registration
        reg_byte_us=0.0003,
    )


class IbDriver(Driver):
    name = "ib"
    supports_zero_copy = True

    def __init__(self, nic: Nic, host: HostModel) -> None:
        self.nic = nic
        self.hw_cq = nic.cq
        self.host = host
        self.model: NicModel = nic.model
        self.poll_us = self.model.poll_us
        self.inline_sends = 0
        self.eager_sends = 0
        self.rdma_writes = 0
        self.control_sends = 0

    def pio_threshold(self) -> int:
        return self.model.pio_threshold

    def rdv_threshold(self) -> int:
        return self.model.rdv_threshold

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        self._check_ctx(ctx)
        if mode == "pio":
            ctx.charge(self.nic.pio_cpu_us(packet))
            self.inline_sends += 1
            return lambda: self.nic.submit_pio(packet)
        cost = (
            self.model.tx_setup_us
            + self.host.memcpy_us(copy_bytes) * numa_factor
            + self.model.dma_setup_us
        )
        ctx.charge(cost)
        self.eager_sends += 1
        return lambda: self.nic.submit_dma(packet)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        self._check_ctx(ctx)
        if packet.kind not in (PacketKind.RTS, PacketKind.CTS, PacketKind.ACK):
            raise ValueError(f"not a control packet: {packet!r}")
        ctx.charge(self.nic.pio_cpu_us(packet))
        self.control_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_pio, packet)

    def submit_zero_copy(self, ctx: ExecContext, packet: Packet) -> None:
        """RDMA write from the (registered) application buffer."""
        self._check_ctx(ctx)
        ctx.charge(self.model.tx_setup_us + self.model.dma_setup_us)
        self.rdma_writes += 1
        ctx.schedule_after(0.0, self.nic.submit_dma, packet)

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        self.nic.add_activity_listener(cb)

    def rx_consume_us(self) -> float:
        return self.model.rx_consume_us

    def wire_bandwidth(self) -> float:
        return self.model.wire_bw

    def __repr__(self) -> str:  # pragma: no cover
        return f"<IbDriver {self.nic.name}>"
