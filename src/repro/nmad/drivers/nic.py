"""The driver for every NIC-backed interconnect (MX, InfiniBand, TCP).

§3.1: NewMadeleine runs over "a large spectrum of network technologies"
behind one driver layer; only the cost constants differ. One class serves
them all, priced by its :class:`~repro.config.NicModel` (MX by default,
:func:`~repro.config.ib_nic_model` for Verbs/InfiniBand). Cost structure
per §2.2:

* **PIO** (≤ ``pio_threshold``; MX 128 B, IB 64 B inline): the CPU writes
  the frame to the NIC — `tx_setup + wire_size × pio_byte_us` of CPU,
  packet on the wire immediately after.
* **Eager** (≤ ``rdv_threshold``; MX 32 KiB, IB 16 KiB): the CPU copies the
  payload into a registered region (host memcpy, scaled by the NUMA factor
  when the submitting core is not the producing core), builds a DMA
  descriptor, and the NIC streams it out.
* **Zero-copy** (rendezvous DATA; an RDMA write on IB): descriptor build
  only; the buffer was registered by the protocol layer.

TCP overrides only its socket costs (:class:`repro.nmad.drivers.TcpDriver`).
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel, NicModel
from ...network.message import Packet, PacketKind
from ...network.nic import Nic
from .base import Driver, ExecContext

__all__ = ["NicDriver"]


class NicDriver(Driver):
    supports_zero_copy = True

    def __init__(self, nic: Nic, host: HostModel) -> None:
        self.nic = self.device = nic
        self.hw_cq = nic.cq
        self.host = host
        self.model: NicModel = nic.model
        self.name = self.model.name
        self.poll_us = self.model.poll_us
        self.pio_threshold = self.model.pio_threshold
        self.rdv_threshold = self.model.rdv_threshold
        self.wire_bw = self.model.wire_bw
        self.rx_consume_us = self.model.rx_consume_us
        # statistics
        self.pio_sends = 0
        self.eager_sends = 0
        self.zero_copy_sends = 0
        self.control_sends = 0

    # -- TX ----------------------------------------------------------------------

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        # every cost below is a sum of the model's non-negative constants:
        # it goes to ctx.cpu_us directly
        if mode == "pio":
            ctx.cpu_us += self.nic.pio_cpu_us(packet)
            self.pio_sends += 1
            return lambda: self.nic.submit_pio(packet)
        cost = (
            self.model.tx_setup_us
            + self.host.memcpy_us(copy_bytes) * numa_factor
            + self.model.dma_setup_us
        )
        ctx.cpu_us += cost
        self.eager_sends += 1
        return lambda: self.nic.submit_dma(packet)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        if packet.kind not in (PacketKind.RTS, PacketKind.CTS, PacketKind.ACK):
            # control path is for control frames only
            raise ValueError(f"not a control packet: {packet!r}")
        ctx.cpu_us += self.nic.pio_cpu_us(packet)
        self.control_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_pio, packet)

    def submit_zero_copy(self, ctx: ExecContext, packet: Packet) -> None:
        ctx.charge(self.model.tx_setup_us + self.model.dma_setup_us)
        self.zero_copy_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_dma, packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.nic.name}>"
