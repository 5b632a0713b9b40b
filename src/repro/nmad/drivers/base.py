"""Driver interface.

Every method that consumes CPU takes an :class:`ExecContext` ``ctx`` —
``charge(us)`` / ``schedule_after(extra, fn, *args)`` / ``end``. One
class serves every place work runs: PIOMan's triggers and its kernel
detection, and inline progression on application threads. The driver
charges the CPU cost of the operation to ``ctx`` and schedules the
hardware side effect at the point the charged work completes — so the
virtual-time sequence matches a real submission (copy first, doorbell
after).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ...errors import SchedulerError
from ...network.message import CompletionRecord, Packet
from ...network.nic import Nic
from ...network.shm import ShmChannel
from ...sim.events import Priority
from ...sim.kernel import Simulator

__all__ = ["ExecContext", "Driver"]


class ExecContext:
    """Where a unit of communication work runs: a core and a start instant.

    The work charges its CPU with :meth:`charge`; side effects that happen
    once the charged work is done go through :meth:`schedule_after`. A
    constant the configuration already checked to be non-negative (the
    spinlock, a rail's ``poll_us``) is added to ``cpu_us`` directly.
    """

    __slots__ = ("sim", "core_index", "start", "cpu_us", "idle_steal")

    def __init__(self, sim: Simulator, core_index: int, start: float) -> None:
        self.sim = sim
        self.core_index = core_index
        self.start = start
        #: CPU already charged to this context (µs)
        self.cpu_us = 0.0
        #: work run here was stolen by an idle core (nbc metrics)
        self.idle_steal = False

    @property
    def end(self) -> float:
        """Virtual time at which the charged work completes."""
        return self.start + self.cpu_us

    def charge(self, us: float) -> None:
        """Account ``us`` microseconds of CPU work to this context."""
        if us < 0:
            raise SchedulerError(f"negative charge: {us}")
        self.cpu_us += us

    def schedule_after(
        self, extra: float, fn: Callable[..., Any], *args: Any, priority: int = Priority.NORMAL
    ) -> None:
        """Schedule ``fn(*args)`` ``extra`` µs after the charged work ends."""
        # self.end, inlined
        self.sim.schedule_at(self.start + self.cpu_us + extra, fn, *args, priority=priority)


class Driver:
    """Abstract transfer driver.

    Every driver sets the attributes below once in ``__init__``, from its
    frozen model: the protocol layers read them on every message.
    """

    #: driver short name ("mx", "ib", "tcp", "shm"); metric keys use it
    name: str
    #: whether the hardware can DMA from/to registered app buffers
    supports_zero_copy: bool = False
    #: the hardware the driver submits to (a NIC or a shared-memory
    #: channel); the session registers its activity listener on it
    device: Nic | ShmChannel
    #: the hardware completion queue. The session's poll loop
    #: (:meth:`repro.nmad.core.NmSession.poll_completions`) takes records
    #: straight off it and tests it for emptiness.
    hw_cq: "deque[CompletionRecord]"
    #: CPU cost (µs) of one poll of :attr:`hw_cq`, charged by every poll,
    #: empty or not
    poll_us: float
    #: max payload for the PIO path (0 = never PIO)
    pio_threshold: int
    #: payloads strictly above this use the rendezvous protocol
    rdv_threshold: int
    #: nominal bandwidth (bytes/µs): the multirail splitter, the adaptive
    #: rendezvous chunker and the retransmit timeout read it
    wire_bw: float
    #: CPU cost (µs) to consume one arrived message descriptor
    rx_consume_us: float

    #: canonical statistic attributes reported by :meth:`stats`. Subclasses
    #: shadow (as instance attributes) only the ones their paths increment;
    #: the rest read 0 from these class defaults.
    _STAT_ATTRS = (
        "pio_sends",
        "eager_sends",
        "zero_copy_sends",
        "control_sends",
        "polls",
        "rx_completions",
    )
    pio_sends = 0
    eager_sends = 0
    zero_copy_sends = 0
    control_sends = 0
    polls = 0
    rx_completions = 0

    def stats(self) -> dict[str, int]:
        """Flat submit/poll/rx counters (consumed by ``repro.obs``); the
        session's poll loop counts ``polls`` and ``rx_completions``."""
        return {key: getattr(self, key) for key in self._STAT_ATTRS}

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
        """DMA directly from a (pre-registered) application buffer; called
        only when :attr:`supports_zero_copy` is true."""
        raise NotImplementedError(f"driver {self.name} does not support zero-copy")
