"""Shared-memory driver for intra-node communication (§4.3).

All transfer cost is CPU copy cost: the sender copies into the shared
segment (charged at submit), the receiver copies out (charged through
``rx_consume_us`` plus the session-level unexpected/expected copy logic).
There is no rendezvous on this channel: the "wire" is memory, so everything
up to any size goes the eager way (one copy in, one copy out).
"""

from __future__ import annotations

from typing import Callable

from ...config import HostModel, ShmModel
from ...network.message import Packet
from ...network.shm import ShmChannel
from .base import Driver, ExecContext

__all__ = ["ShmDriver"]


class ShmDriver(Driver):
    name = "shm"
    supports_zero_copy = False

    def __init__(self, channel: ShmChannel, host: HostModel) -> None:
        self.channel = self.device = channel
        self.hw_cq = channel.cq
        self.host = host
        self.model: ShmModel = channel.model
        self.poll_us = self.model.ring_op_us
        self.pio_threshold = 0  # no PIO notion on shared memory
        # everything is "eager" through the shared segment
        self.rdv_threshold = 1 << 62
        self.wire_bw = self.model.bw
        self.rx_consume_us = self.model.ring_op_us
        self.eager_sends = 0
        self.control_sends = 0

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        if mode == "pio":
            # no PIO notion on shared memory: same copy as the eager path
            copy_bytes, numa_factor = packet.payload_size, 1.0
        ctx.charge(self.model.ring_op_us + self.host.memcpy_us(copy_bytes) * numa_factor)
        self.eager_sends += 1
        return lambda: self.channel.submit(packet, 0.0)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        ctx.charge(self.model.ring_op_us)
        self.control_sends += 1
        ctx.schedule_after(0.0, self.channel.submit, packet, 0.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShmDriver {self.channel.name}>"
