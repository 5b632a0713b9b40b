"""Event-queue entries for the discrete-event kernel.

Events and timers are ordered by ``(time, priority, sequence)``. The sequence number
makes ordering total and therefore the whole simulation deterministic:
two events scheduled for the same instant at the same priority fire in
scheduling order (FIFO).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Priority", "EventHandle"]


class Priority:
    """Priority levels for same-instant event ordering (lower fires first).

    ``INTERRUPT`` models hardware events (wire arrivals, timer expiry) that
    logically precede software reactions scheduled for the same instant.
    ``TASKLET`` mirrors Marcel's "very high priority" deferred work.
    """

    INTERRUPT = 0
    TASKLET = 1
    NORMAL = 2
    LOW = 3
    IDLE = 4


class EventHandle:
    """A timer: a scheduled callback that can be cancelled.

    Only :meth:`~repro.sim.kernel.Simulator.timer` builds one; an
    ordinary event is a bare heap entry with no handle. Cancellation is lazy: the
    entry stays in the heap but is skipped when it surfaces. ``fired`` is
    True once the callback ran. Handles are never compared: the heap
    orders ``(time, priority, seq, handle, None)`` tuples and ``seq`` is
    unique.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "_fn",
        "_args",
        "cancelled",
        "fired",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        queue: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        #: the :class:`~repro.sim.queues.HeapQueue` storing this handle;
        #: lets cancel() report lazily-cancelled entries so the queue can
        #: compact when they pile up.
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the callback from running; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and not self.fired

    def _fire(self) -> None:
        self.fired = True
        self._fn(*self._args)
        # Release references so long simulations do not retain closures.
        self._fn = _noop
        self._args = ()

    def sort_key(self) -> tuple[float, int, int]:
        """The ``(time, priority, seq)`` key the kernel orders events by."""
        return (self.time, self.priority, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        fn = getattr(self._fn, "__qualname__", repr(self._fn))
        return f"<EventHandle t={self.time:.3f} p={self.priority} {fn} {state}>"


def _noop(*_args: Any) -> None:  # pragma: no cover - placeholder
    return None
