"""The kernel's event queue: a binary heap of five-field tuples.

Events surface in strict ``(time, priority, seq)`` order. The heap holds
two kinds of entry, both tuples, so every comparison :mod:`heapq` makes
runs in C; ``seq`` is unique, so two entries never tie on the first three
fields and the last two are never compared:

* an **event** ``(time, priority, seq, fn, args)`` — what
  :meth:`~repro.sim.kernel.Simulator.schedule` pushes: no object besides
  the tuple, and nothing to cancel;
* a **timer** ``(time, priority, seq, handle, None)`` — what
  :meth:`~repro.sim.kernel.Simulator.timer` pushes: the
  :class:`~repro.sim.events.EventHandle` it returns can be cancelled.
  ``None`` in the last field marks the kind.

:meth:`repro.sim.kernel.Simulator.schedule` pushes onto ``_heap`` inline
and the run loop pops from it through an alias, so the list object must
never be replaced: compaction rewrites it in place.

Cancellation is lazy — a cancelled timer stays in the heap until it
surfaces — and compaction drops cancelled timers once they outnumber
live entries (with a floor so small queues never bother). Without it, every
ACK-cancelled retransmit timer would ride the heap until its timestamp
came up.
"""

from __future__ import annotations

import heapq
from typing import Any

__all__ = ["HeapQueue"]

#: compaction is considered only once this many cancelled entries linger.
#: Below the floor, lazy deletion is the right tool — near-term cancelled
#: timers (retransmits killed by their ACK a few µs later) surface and
#: drop on their own, and rebuilding for them is pure thrash. Above it,
#: a rebuild removes at least half the stored entries (the trigger needs
#: cancelled > live), so the cost is O(1) amortized per cancellation and
#: the queue can never bloat past ``2 × max(live, _COMPACT_MIN)``.
_COMPACT_MIN = 1024


class HeapQueue:
    """Binary heap of event and timer entries (see the module docstring).

    ``_heap`` is the heap list and ``_cancelled`` counts cancelled
    entries still inside it. ``len(q)`` counts *stored* entries,
    lazily-cancelled ones included, which is what the bloat guards watch.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        self._cancelled = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def peek(self) -> "tuple[float, int, int, Any, Any] | None":
        """The next live entry without removing it, or None when drained."""
        heap = self._heap
        while heap and heap[0][4] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def peek_time(self) -> float | None:
        """Time of the next live entry, or None when drained."""
        entry = self.peek()
        return None if entry is None else entry[0]

    def pop_next(self) -> "tuple[float, int, int, Any, Any] | None":
        """Remove and return the next live entry (None when drained)."""
        entry = self.peek()
        if entry is None:
            return None
        heapq.heappop(self._heap)
        return entry

    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` on a stored handle."""
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and (self._cancelled << 1) > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[4] is not None or not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._heap),
            "cancelled": self._cancelled,
            "compactions": self.compactions,
        }

    def pending_count(self) -> int:
        """Number of stored entries but cancelled timers (O(n); for tests)."""
        return sum(
            1 for entry in self._heap if entry[4] is not None or not entry[3].cancelled
        )
