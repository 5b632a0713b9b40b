"""TCP/Ethernet-like driver.

NewMadeleine also runs over TCP (§3.1). The TCP driver reuses the NIC/wire
machinery with a different cost profile: no PIO path, kernel socket calls
on every submission (syscall cost), payloads always copied through kernel
socket buffers, and no zero-copy — rendezvous still limits unexpected
buffering, but the DATA leg pays the copy.
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel, NicModel
from ...network.message import CompletionRecord, Packet
from ...network.nic import Nic
from .base import Driver, ExecContext

__all__ = ["TcpDriver", "tcp_nic_model"]


def tcp_nic_model(
    wire_latency_us: float = 25.0,
    wire_bw_bytes_per_us: float = 117.0,  # ≈ 1 Gb/s
    rdv_threshold: int = 64 * 1024,
) -> NicModel:
    """A gigabit-Ethernet-flavoured :class:`NicModel`."""
    return NicModel(
        name="tcp",
        pio_threshold=0,
        rdv_threshold=rdv_threshold,
        wire_latency_us=wire_latency_us,
        wire_bw=wire_bw_bytes_per_us,
        pio_byte_us=0.0,
        tx_setup_us=1.0,
        dma_setup_us=0.5,
        rx_consume_us=1.2,
        poll_us=0.4,
        interrupt_us=12.0,
        reg_setup_us=0.0,
        reg_byte_us=0.0,
    )


class TcpDriver(Driver):
    name = "tcp"
    supports_zero_copy = False

    def __init__(self, nic: Nic, host: HostModel) -> None:
        self.nic = nic
        self.host = host
        self.model: NicModel = nic.model
        self.eager_sends = 0
        self.control_sends = 0

    def pio_threshold(self) -> int:
        return 0

    def rdv_threshold(self) -> int:
        return self.model.rdv_threshold

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        self._check_ctx(ctx)
        if mode == "pio":
            # no PIO on TCP: a PIO submission degrades to a plain socket
            # send of the whole payload at the local-copy rate
            copy_bytes, numa_factor = packet.payload_size, 1.0
        cost = (
            self.host.syscall_us
            + self.model.tx_setup_us
            + self.host.memcpy_us(copy_bytes) * numa_factor
        )
        ctx.charge(cost)
        self.eager_sends += 1
        return lambda: self.nic.submit_dma(packet)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        self._check_ctx(ctx)
        ctx.charge(self.host.syscall_us + self.model.tx_setup_us)
        self.control_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_dma, packet)

    def submit_zero_copy(self, ctx: ExecContext, packet: Packet) -> None:
        # TCP cannot DMA from user buffers: the "zero-copy" leg of the
        # rendezvous degenerates to a kernel-buffer copy send.
        self.submit_eager(ctx, packet, packet.payload_size)

    def poll_cpu_us(self) -> float:
        return self.model.poll_us

    def poll(self, max_events: int = 16) -> list[CompletionRecord]:
        return self._record_poll(self.nic.poll(max_events))

    def has_completions(self) -> bool:
        return self.nic.has_completions()

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        self.nic.add_activity_listener(cb)

    def remove_activity_listener(self, cb: Callable[[], None]) -> None:
        self.nic.remove_activity_listener(cb)

    def rx_consume_us(self) -> float:
        return self.model.rx_consume_us + self.host.syscall_us

    def wire_bandwidth(self) -> float:
        return self.model.wire_bw

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TcpDriver {self.nic.name}>"
