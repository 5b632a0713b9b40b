"""Thread-level synchronization primitives.

These block *Marcel threads* (not sim processes): blocking releases the
core, and a wake re-enqueues the thread on its affinity core's runqueue.

* :class:`ThreadEvent` — one-shot event with value (completion
  notifications: request done, thread join).
* :class:`ThreadFlag` — level-triggered flag (NIC activity signalling for
  poll loops: ``clear → poll → wait``).
* :class:`ThreadMutex` (the sequential engine's library-wide lock) and
  :class:`ThreadBarrier` — classic primitives.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional, TYPE_CHECKING

from ..errors import SchedulerError
from .effects import WaitFlag, WaitTEvent
from .thread import MarcelThread

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import MarcelScheduler

__all__ = [
    "ThreadEvent",
    "ThreadFlag",
    "ThreadMutex",
    "ThreadBarrier",
]


class ThreadEvent:
    """One-shot event carrying a value; waiters are Marcel threads."""

    def __init__(self, scheduler: "MarcelScheduler", name: str = "tevent") -> None:
        self.scheduler = scheduler
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: list[MarcelThread] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SchedulerError(f"thread event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for thread in waiters:
            self.scheduler.wake(thread, value)

    def add_blocked(self, thread: MarcelThread) -> bool:
        """Scheduler-internal: register a blocked thread. Returns False if
        the event already fired (the thread must not block)."""
        if self.triggered:
            return False
        self._waiters.append(thread)
        return True

    def wait(self) -> WaitTEvent:
        """Effect: ``value = yield ev.wait()``."""
        return WaitTEvent(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "set" if self.triggered else f"{len(self._waiters)}w"
        return f"<ThreadEvent {self.name} {state}>"


class ThreadFlag:
    """Level-triggered flag for poll loops.

    Typical use (inside a thread generator)::

        while not request.done:
            flag.clear()
            drive_progress()          # may complete the request
            if request.done:
                break
            yield WaitFlag(flag)      # sleep until new activity

    ``set()`` wakes *all* current waiters and leaves the flag set, so a
    waiter arriving after the set proceeds immediately.
    """

    def __init__(self, scheduler: "MarcelScheduler", name: str = "tflag") -> None:
        self.scheduler = scheduler
        self.name = name
        self.is_set = False
        self._waiters: list[MarcelThread] = []
        #: number of set() calls (activity counter, used in tests)
        self.set_count = 0

    def set(self) -> None:
        self.set_count += 1
        self.is_set = True
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for thread in waiters:
                self.scheduler.wake(thread, None)

    def clear(self) -> None:
        self.is_set = False

    def add_blocked(self, thread: MarcelThread) -> bool:
        """Scheduler-internal. False if the flag is set (do not block)."""
        if self.is_set:
            return False
        self._waiters.append(thread)
        return True

    def wait(self) -> WaitFlag:
        return WaitFlag(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ThreadFlag {self.name} {'set' if self.is_set else 'clear'}>"


class ThreadMutex:
    """FIFO mutex for Marcel threads; ownership handoff on release."""

    def __init__(self, scheduler: "MarcelScheduler", name: str = "tmutex") -> None:
        self.scheduler = scheduler
        self.name = name
        self.owner: Optional[MarcelThread] = None
        self._queue: deque[ThreadEvent] = deque()
        self.contended_acquires = 0

    def acquire(self) -> tuple[WaitTEvent, ...]:
        """``yield from mutex.acquire()``. No generator runs: a free lock is
        taken here and the call returns an empty tuple; a held one queues
        the caller and returns the one effect that waits for the handoff
        (``release()`` makes the woken thread the owner and triggers the
        gate with None, the value ``yield from`` passes on)."""
        me = self.scheduler.current_thread_required()
        if self.owner is None:
            self.owner = me
            return ()
        if self.owner is me:
            raise SchedulerError(f"thread {me.name} re-acquiring mutex {self.name}")
        self.contended_acquires += 1
        gate = ThreadEvent(self.scheduler, name=f"{self.name}.gate")
        gate.requester = me  # type: ignore[attr-defined]
        self._queue.append(gate)
        return (WaitTEvent(gate),)

    def release(self) -> None:
        me = self.scheduler.current_thread_required()
        if self.owner is not me:
            raise SchedulerError(
                f"thread {me.name} releasing mutex {self.name} owned by "
                f"{self.owner.name if self.owner else 'nobody'}"
            )
        if self._queue:
            gate = self._queue.popleft()
            # ownership handoff: the woken thread owns the lock on resume
            self.owner = gate.requester  # type: ignore[attr-defined]
            gate.trigger(None)
        else:
            self.owner = None


class ThreadBarrier:
    """Reusable barrier for a fixed party count."""

    def __init__(self, scheduler: "MarcelScheduler", parties: int, name: str = "tbarrier") -> None:
        if parties <= 0:
            raise SchedulerError(f"parties must be > 0, got {parties}")
        self.scheduler = scheduler
        self.name = name
        self.parties = parties
        self._arrived = 0
        self._generation = 0
        self._gate = ThreadEvent(scheduler, name=f"{name}.gen0")

    def wait(self) -> Generator[Any, Any, int]:
        """``gen = yield from barrier.wait()`` — returns the generation."""
        gen_index = self._generation
        self._arrived += 1
        if self._arrived == self.parties:
            gate = self._gate
            self._generation += 1
            self._arrived = 0
            self._gate = ThreadEvent(self.scheduler, name=f"{self.name}.gen{self._generation}")
            gate.trigger(gen_index)
            return gen_index
        gate = self._gate
        yield WaitTEvent(gate)
        return gen_index
