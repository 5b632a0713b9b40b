"""MX/Myrinet-like driver over the NIC model.

Cost structure per §2.2:

* **PIO** (≤ ``pio_threshold``, MX: 128 B): the CPU writes the frame to the
  NIC — `tx_setup + wire_size × pio_byte_us` of CPU, packet on the wire
  immediately after.
* **Eager** (≤ ``rdv_threshold``, MX: 32 KiB): the CPU copies the payload
  into a registered region (host memcpy, scaled by the NUMA factor when
  the submitting core is not the producing core), builds a DMA descriptor,
  and the NIC streams it out.
* **Zero-copy** (rendezvous DATA): descriptor build only; the buffer was
  registered by the protocol layer.
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel, NicModel
from ...network.message import CompletionRecord, Packet, PacketKind
from ...network.nic import Nic
from .base import Driver, ExecContext

__all__ = ["MxDriver"]


class MxDriver(Driver):
    name = "mx"
    supports_zero_copy = True

    def __init__(self, nic: Nic, host: HostModel) -> None:
        self.nic = nic
        self.host = host
        self.model: NicModel = nic.model
        # statistics
        self.pio_sends = 0
        self.eager_sends = 0
        self.zero_copy_sends = 0
        self.control_sends = 0

    # -- thresholds --------------------------------------------------------------

    def pio_threshold(self) -> int:
        return self.model.pio_threshold

    def rdv_threshold(self) -> int:
        return self.model.rdv_threshold

    # -- TX ----------------------------------------------------------------------

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        self._check_ctx(ctx)
        if mode == "pio":
            ctx.charge(self.nic.pio_cpu_us(packet))
            self.pio_sends += 1
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
            # control path is for control frames only
            raise ValueError(f"not a control packet: {packet!r}")
        ctx.charge(self.nic.pio_cpu_us(packet))
        self.control_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_pio, packet)

    def submit_zero_copy(self, ctx: ExecContext, packet: Packet) -> None:
        self._check_ctx(ctx)
        ctx.charge(self.model.tx_setup_us + self.model.dma_setup_us)
        self.zero_copy_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_dma, packet)

    # -- completion discovery -------------------------------------------------------

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
        return self.model.rx_consume_us

    def wire_bandwidth(self) -> float:
        return self.model.wire_bw

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MxDriver {self.nic.name}>"
