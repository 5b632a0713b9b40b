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
from ...network.message import CompletionRecord, Packet
from ...network.shm import ShmChannel
from .base import Driver, ExecContext

__all__ = ["ShmDriver"]


class ShmDriver(Driver):
    name = "shm"
    supports_zero_copy = False

    def __init__(self, channel: ShmChannel, host: HostModel) -> None:
        self.channel = channel
        self.host = host
        self.model: ShmModel = channel.model
        self.eager_sends = 0
        self.pio_sends = 0
        self.control_sends = 0

    def pio_threshold(self) -> int:
        return 0  # no PIO notion on shared memory

    def rdv_threshold(self) -> int:
        # everything is "eager" through the shared segment
        return 1 << 62

    def plan_submit(
        self, ctx: ExecContext, packet: Packet, mode: str, copy_bytes: int, numa_factor: float = 1.0
    ) -> Callable[[], None]:
        self._check_ctx(ctx)
        if mode == "pio":
            # no PIO notion on shared memory: same copy as the eager path
            copy_bytes, numa_factor = packet.payload_size, 1.0
        ctx.charge(self.model.ring_op_us + self.host.memcpy_us(copy_bytes) * numa_factor)
        self.eager_sends += 1
        return lambda: self.channel.submit(packet, 0.0)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        self._check_ctx(ctx)
        ctx.charge(self.model.ring_op_us)
        self.control_sends += 1
        ctx.schedule_after(0.0, self.channel.submit, packet, 0.0)

    def poll_cpu_us(self) -> float:
        return self.model.ring_op_us

    def poll(self, max_events: int = 16) -> list[CompletionRecord]:
        return self._record_poll(self.channel.poll(max_events))

    def has_completions(self) -> bool:
        return self.channel.has_completions()

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        self.channel.add_activity_listener(cb)

    def remove_activity_listener(self, cb: Callable[[], None]) -> None:
        self.channel.remove_activity_listener(cb)

    def rx_consume_us(self) -> float:
        return self.model.ring_op_us

    def wire_bandwidth(self) -> float:
        return self.model.bw

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShmDriver {self.channel.name}>"
