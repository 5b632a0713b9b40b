"""TCP/Ethernet-like driver.

NewMadeleine also runs over TCP (§3.1). The wire and NIC constants are
:func:`~repro.config.tcp_nic_model`'s; this driver adds only what a socket
changes: a kernel call on every submission and on every arrival, payloads
always copied through kernel socket buffers, control frames sent like any
other socket write, and no zero-copy — rendezvous still limits unexpected
buffering, but the DATA leg pays the copy.
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel
from ...network.message import Packet
from ...network.nic import Nic
from .base import ExecContext
from .nic import NicDriver

__all__ = ["TcpDriver"]


class TcpDriver(NicDriver):
    supports_zero_copy = False

    def __init__(self, nic: Nic, host: HostModel) -> None:
        super().__init__(nic, host)
        self.rx_consume_us = self.model.rx_consume_us + host.syscall_us

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
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
        ctx.charge(self.host.syscall_us + self.model.tx_setup_us)
        self.control_sends += 1
        ctx.schedule_after(0.0, self.nic.submit_dma, packet)
