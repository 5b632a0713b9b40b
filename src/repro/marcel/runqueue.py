"""Per-core runqueues with priority levels.

Each core owns one :class:`RunQueue`; within a priority level the order is
FIFO, which — together with the kernel's deterministic event ordering —
makes scheduling decisions reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from ..errors import SchedulerError
from .thread import MarcelThread, Priority, ThreadState

__all__ = ["QueuedCount", "RunQueue"]


class QueuedCount:
    """Threads queued over one node's runqueues (a steal scan needs one)."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class RunQueue:
    """FIFO-per-priority ready queue for one core; ``total`` is the node's."""

    def __init__(self, core_name: str, total: QueuedCount | None = None) -> None:
        self.core_name = core_name
        self._levels: tuple[deque[MarcelThread], ...] = tuple(
            deque() for _ in range(Priority.LEVELS)
        )
        #: threads queued over all levels (``len`` is on the hot path)
        self._count = 0
        self.total = QueuedCount() if total is None else total

    def push(self, thread: MarcelThread) -> None:
        if thread.state != ThreadState.READY:
            raise SchedulerError(
                f"cannot enqueue {thread.name} in state {thread.state}"
            )
        self._levels[thread.priority].append(thread)
        self._count += 1
        self.total.n += 1

    def push_front(self, thread: MarcelThread) -> None:
        """Re-queue a preempted thread at the head of its level (it keeps
        its turn; preemption should not cost it its position)."""
        if thread.state != ThreadState.READY:
            raise SchedulerError(
                f"cannot enqueue {thread.name} in state {thread.state}"
            )
        self._levels[thread.priority].appendleft(thread)
        self._count += 1
        self.total.n += 1

    def pop(self) -> Optional[MarcelThread]:
        """Take the highest-priority ready thread, or None."""
        for level in self._levels:
            if level:
                self._count -= 1
                self.total.n -= 1
                return level.popleft()
        return None

    def peek_priority(self) -> Optional[int]:
        """Priority of the best ready thread, or None if empty."""
        if not self._count:
            return None
        for prio, level in enumerate(self._levels):
            if level:
                return prio
        return None

    def steal(self) -> Optional[MarcelThread]:
        """Take the *lowest*-priority migratable thread from the tail.

        Work stealing removes from the opposite end from :meth:`pop` to
        minimise interference with the victim core's own scheduling.
        """
        for level in reversed(self._levels):
            for i in range(len(level) - 1, -1, -1):
                if level[i].migratable:
                    thread = level[i]
                    del level[i]
                    self._count -= 1
                    self.total.n -= 1
                    return thread
        return None

    def remove(self, thread: MarcelThread) -> bool:
        """Remove a specific thread (e.g. on cancellation). True if found."""
        level = self._levels[thread.priority]
        try:
            level.remove(thread)
        except ValueError:
            return False
        self._count -= 1
        self.total.n -= 1
        return True

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[MarcelThread]:
        for level in self._levels:
            yield from level

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RunQueue {self.core_name} n={len(self)}>"
