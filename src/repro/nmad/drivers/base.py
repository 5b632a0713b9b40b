"""Driver interface.

Every method that consumes CPU takes an execution context ``ctx``
satisfying :class:`ExecContext` — ``charge(us)`` /
``schedule_after(extra, fn, *args)`` / ``end``
(:class:`repro.marcel.tasklet.TaskletContext` instances are used both for
tasklet execution and for inline execution on application threads). The
driver charges the CPU cost of the operation to ``ctx`` and schedules the
hardware side effect at the point the charged work completes — so the
virtual-time sequence matches a real submission (copy first, doorbell
after).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Protocol, runtime_checkable

from ...errors import NetworkError
from ...network.message import CompletionRecord, Packet
from ..progress import CompletionQueue, WireCompletion

__all__ = ["ExecContext", "Driver"]

#: process-wide monotonic driver numbering — serials are never reused, so
#: they are safe identity keys across engine rebuilds (unlike ``id()``,
#: which the allocator recycles after garbage collection)
_driver_serials = itertools.count(1)


@runtime_checkable
class ExecContext(Protocol):
    """What drivers and protocol engines need from an execution context."""

    #: CPU already charged to this context (µs)
    cpu_us: float

    @property
    def end(self) -> float:
        """Virtual time at which the charged work completes."""

    def charge(self, us: float) -> None:
        """Account ``us`` microseconds of CPU work to this context."""

    def schedule_after(self, extra: float, fn: Callable[..., Any], *args: Any) -> Any:
        """Schedule ``fn(*args)`` ``extra`` µs after the charged work ends."""


class Driver:
    """Abstract transfer driver."""

    #: driver short name ("mx", "shm", "tcp")
    name: str = "base"
    #: whether the hardware can DMA from/to registered app buffers
    supports_zero_copy: bool = False

    #: canonical statistic attributes reported by :meth:`stats`. Subclasses
    #: shadow (as instance attributes) only the ones their paths increment;
    #: the rest read 0 from these class defaults.
    _STAT_ATTRS = (
        "pio_sends",
        "eager_sends",
        "zero_copy_sends",
        "inline_sends",
        "rdma_writes",
        "control_sends",
        "polls",
        "rx_completions",
    )
    pio_sends = 0
    eager_sends = 0
    zero_copy_sends = 0
    inline_sends = 0
    rdma_writes = 0
    control_sends = 0
    polls = 0
    rx_completions = 0

    def stats(self) -> dict[str, int]:
        """Flat submit/poll/rx counters (consumed by ``repro.obs``)."""
        return {key: getattr(self, key) for key in self._STAT_ATTRS}

    def _record_poll(self, records: list[CompletionRecord]) -> list[CompletionRecord]:
        """Count one completion-queue poll and its harvested records;
        subclasses wrap their ``poll()`` return value with this."""
        self.polls += 1
        if records:
            self.rx_completions += len(records)
        return records

    def serial(self) -> int:
        """Monotonic process-unique identity of this driver instance."""
        s: int | None = getattr(self, "_serial", None)
        if s is None:
            s = self._serial = next(_driver_serials)
        return s

    # -- thresholds --------------------------------------------------------------

    def pio_threshold(self) -> int:
        """Max payload for the PIO path (0 = never PIO)."""
        raise NotImplementedError

    def rdv_threshold(self) -> int:
        """Payloads strictly above this use the rendezvous protocol."""
        raise NotImplementedError

    # -- TX ----------------------------------------------------------------------

    def plan_submit(
        self,
        ctx: ExecContext,
        packet: Packet,
        mode: str,
        copy_bytes: int,
        numa_factor: float = 1.0,
    ) -> Callable[[], None]:
        """Eager/PIO submission, split at the CPU/hardware boundary.

        Charges the CPU cost of submitting ``packet`` in ``mode``
        (``"pio"``/``"eager"``; ``copy_bytes`` and ``numa_factor`` price
        the eager copy), bumps the send counter, and returns the hardware
        doorbell as a thunk for the caller to schedule. This is the one
        place each driver states its submit cost.
        """
        raise NotImplementedError

    def submit_pio(self, ctx: ExecContext, packet: Packet) -> None:
        """CPU-driven submission of a tiny packet."""
        doorbell = self.plan_submit(ctx, packet, "pio", packet.payload_size)
        ctx.schedule_after(0.0, doorbell)

    def submit_eager(
        self, ctx: ExecContext, packet: Packet, copy_bytes: int, numa_factor: float = 1.0
    ) -> None:
        """Copy ``copy_bytes`` into the registered region and DMA out."""
        doorbell = self.plan_submit(ctx, packet, "eager", copy_bytes, numa_factor)
        ctx.schedule_after(0.0, doorbell)

    def submit_control(self, ctx: ExecContext, packet: Packet) -> None:
        """Send a small control frame (RTS/CTS/ACK)."""
        raise NotImplementedError

    def submit_zero_copy(self, ctx: ExecContext, packet: Packet) -> None:
        """DMA directly from a (pre-registered) application buffer."""
        raise NotImplementedError(f"driver {self.name} does not support zero-copy")

    # -- completion discovery -------------------------------------------------------

    def poll_cpu_us(self) -> float:
        """CPU cost of one poll of this driver's completion queue."""
        raise NotImplementedError

    def poll(self, max_events: int = 16) -> list[CompletionRecord]:
        raise NotImplementedError

    def poll_into(self, ctx: ExecContext, cq: CompletionQueue, max_events: int = 16) -> int:
        """Poll once and push each harvested record into the session's
        unified completion queue as a typed
        :class:`repro.nmad.progress.WireCompletion`.

        Charges the poll cost unconditionally (polling an empty queue is
        not free) and returns the number of records pushed. The session
        core drains the queue through its dispatch table right after.
        """
        ctx.charge(self.poll_cpu_us())
        count = 0
        for rec in self.poll(max_events):
            cq.push_wire(
                WireCompletion(driver=self, event=rec.event, packet=rec.packet, time=rec.time)
            )
            count += 1
        return count

    def has_completions(self) -> bool:
        raise NotImplementedError

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        raise NotImplementedError

    def remove_activity_listener(self, cb: Callable[[], None]) -> None:
        """Deregister ``cb``; a no-op if it was never (or already) removed,
        so teardown paths can call it unconditionally."""
        raise NotImplementedError

    # -- receive-side costs -----------------------------------------------------------

    def rx_consume_us(self) -> float:
        """CPU cost to consume one arrived message descriptor."""
        raise NotImplementedError

    def wire_bandwidth(self) -> float:
        """Nominal bandwidth (bytes/µs) — used by the multirail splitter."""
        raise NotImplementedError

    def rdv_chunk_bytes(self) -> int:
        """Driver-preferred pipeline chunk size for the RDV data phase.

        0 (the default) means no preference: the planner sizes chunks from
        :class:`repro.config.RdvConfig` and this driver's bandwidth instead.
        Drivers whose hardware has a natural MTU/pipeline depth override.
        """
        return 0

    # -- common validation ----------------------------------------------------------

    @staticmethod
    def _check_ctx(ctx: object) -> None:
        if not hasattr(ctx, "charge") or not hasattr(ctx, "schedule_after"):
            raise NetworkError(
                f"driver operation needs an execution context, got {type(ctx).__name__}"
            )
