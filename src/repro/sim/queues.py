"""Pluggable event queues for the discrete-event kernel.

Two implementations share one contract — events surface in strict
``(time, priority, seq)`` order, identical between implementations, so a
run produces byte-identical per-seed traces whichever queue it selects
(``tests/property/test_prop_queues.py`` pins this with random schedules):

* :class:`HeapQueue` — the classic binary heap (:mod:`heapq`). O(log n)
  push/pop. The reference ordering, kept as the test oracle.
* :class:`CalendarQueue` — a calendar queue keyed on the microsecond
  virtual clock: O(1) amortized push/pop with lazy bucket resizing,
  batch extraction of whole bucket-visits (sorted once, fired without
  re-entering the bucket search), and cancelled-entry compaction so
  abandoned timers (e.g. retransmit timers cancelled by ACKs) cannot
  bloat the queue without bound.

Both queues compact lazily-cancelled entries once they outnumber live
ones (with a small floor so tiny queues never bother), which fixes the
historical heap behaviour of carrying every cancelled timer until its
timestamp surfaced.

The kernel's fast loop (:meth:`repro.sim.kernel.Simulator.run`) reaches
into the calendar queue's internals (``_batch``/``_batch_i``,
``_count``/``_cancelled``) to avoid per-event method calls; that
contract is private to ``repro.sim`` and documented on the class. Every
other queue — the heap and third-party :class:`EventQueue` subclasses —
only needs the public methods: the kernel runs them through a generic
``peek``/``pop`` loop.

Bucket mapping
--------------
The calendar queue maps an event to the absolute bucket index
``int(time * (1 / width))`` (stored on the handle as ``_bidx``) and to
the physical bucket ``_bidx & (nbuckets - 1)``. Membership in the
current bucket-visit is decided by integer equality on ``_bidx`` — never
by comparing times against a computed bucket boundary — so floating
point rounding at bucket edges cannot misfile an event: ``int(t * inv)``
is monotone in ``t``, which is all the ordering proof needs.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Union

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventHandle

__all__ = ["EventQueue", "HeapQueue", "CalendarQueue", "QUEUE_KINDS", "make_queue"]

_SORT_KEY = attrgetter("_key")

#: compaction is considered only once this many cancelled entries linger.
#: Below the floor, lazy deletion is the right tool — near-term cancelled
#: timers (retransmits killed by their ACK a few µs later) surface and
#: drop on their own, and rebuilding for them is pure thrash. Above it,
#: a rebuild removes at least half the stored entries (the trigger needs
#: cancelled > live), so the cost is O(1) amortized per cancellation and
#: the queue can never bloat past ``2 × max(live, _COMPACT_MIN)``.
_COMPACT_MIN = 1024

_MIN_BUCKETS = 32
_MAX_BUCKETS = 1 << 17


class EventQueue:
    """Contract shared by kernel event queues.

    Implementations must dequeue pending handles in strict
    ``(time, priority, seq)`` order and silently drop cancelled entries
    as they surface. ``len(q)`` counts *stored* entries — including
    lazily-cancelled ones — which is what the bloat regression guards
    watch.
    """

    kind = "abstract"

    def push(self, handle: "EventHandle") -> None:
        raise NotImplementedError

    def pop_next(self) -> "EventHandle | None":
        """Remove and return the next pending handle (None when drained)."""
        raise NotImplementedError

    def peek_time(self) -> float | None:
        """Time of the next pending handle, or None when drained."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator["EventHandle"]:
        raise NotImplementedError

    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` on a stored handle."""
        raise NotImplementedError

    def stats(self) -> dict[str, object]:
        raise NotImplementedError

    def pending_count(self) -> int:
        """Number of stored, non-cancelled entries (O(n); for tests)."""
        return sum(1 for h in self if h.pending)


class HeapQueue(EventQueue):
    """Binary-heap queue — the original kernel data structure.

    ``_heap`` is the heap list and ``_cancelled`` counts cancelled
    entries still inside it.
    """

    kind = "heap"

    def __init__(self) -> None:
        self._heap: list[EventHandle] = []
        self._cancelled = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator["EventHandle"]:
        return iter(self._heap)

    def push(self, handle: "EventHandle") -> None:
        handle._queue = self
        heapq.heappush(self._heap, handle)

    def pop_next(self) -> "EventHandle | None":
        heap = self._heap
        while heap:
            handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            return handle
        return None

    def peek_time(self) -> float | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0].time if heap else None

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and (self._cancelled << 1) > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [h for h in heap if not h.cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def stats(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "entries": len(self._heap),
            "cancelled": self._cancelled,
            "compactions": self.compactions,
        }


class CalendarQueue(EventQueue):
    """Calendar queue: O(1) amortized scheduling on the virtual clock.

    Structure: ``nbuckets`` (a power of two) unsorted buckets, each an
    append-only list. ``_cur`` is the absolute index of the bucket-visit
    the cursor is parked on; all entries stored in buckets satisfy
    ``h._bidx >= _cur`` (a push behind the cursor rewinds it). Dequeue
    extracts every entry of the current visit in one pass (*batch*),
    sorts the batch once by the full ordering key, and serves from it —
    so per-event dequeue cost is an index bump, not a search.

    Events scheduled *during* batch consumption that belong before the
    end of the active batch (``call_soon``, zero-delay reactions) are
    insorted into the unconsumed tail, which preserves exact heap
    ordering: an event can never be scheduled before ``now``, so the
    consumed prefix is never affected.

    Lazy resizing: on refill, if stored entries exceed ``2 × nbuckets``
    the table grows (or shrinks at ``< nbuckets/8``), rebuilt with a
    bucket width of three times the mean gap of a sample of stored
    events — the classic calendar-queue heuristic keeping a visit at
    O(1) expected entries. Rebuilds drop cancelled entries for free.

    Kernel-private contract: the run loop consumes ``_batch[_batch_i]``
    directly (writing ``None`` over consumed slots), decrements
    ``_cancelled`` per dropped cancelled entry, and calls ``_refill()``
    when the batch is spent; consumption is accounted lazily (``_refill``
    subtracts the whole previous batch from ``_count`` in one step).
    """

    kind = "calendar"

    def __init__(self, width: float = 1.0, nbuckets: int = _MIN_BUCKETS) -> None:
        if width <= 0.0:
            raise SimulationError(f"bucket width must be > 0, got {width}")
        n = _MIN_BUCKETS
        while n < nbuckets:
            n <<= 1
        self._width = width
        self._inv_width = 1.0 / width
        self._nbuckets = n
        self._mask = n - 1
        self._buckets: list[list[EventHandle]] = [[] for _ in range(n)]
        #: absolute bucket-visit index the cursor is parked on
        self._cur = 0
        #: entries pushed and not yet accounted consumed. Consumption of
        #: the active batch is accounted lazily — ``_refill`` subtracts
        #: the whole previous batch at once — so the exact stored count
        #: is ``_count - _batch_i`` (positions below ``_batch_i`` are
        #: consumed slots of the active batch).
        self._count = 0
        #: entries stored in buckets only (batch excluded)
        self._bucket_count = 0
        #: cancelled entries still stored
        self._cancelled = 0
        self._batch: list[EventHandle] = []
        self._batch_i = 0
        self.batches = 0
        self.compactions = 0
        self.resizes = 0

    def __len__(self) -> int:
        return self._count - self._batch_i

    def __iter__(self) -> Iterator["EventHandle"]:
        batch = self._batch
        for i in range(self._batch_i, len(batch)):
            handle = batch[i]
            if handle is not None:
                yield handle
        for bucket in self._buckets:
            yield from bucket

    def push(self, handle: "EventHandle") -> None:
        handle._queue = self
        bidx = int(handle.time * self._inv_width)
        handle._bidx = bidx
        self._count += 1
        if bidx > self._cur:
            self._buckets[bidx & self._mask].append(handle)
            self._bucket_count += 1
        else:
            self._push_near(handle, bidx)

    def _push_near(self, handle: "EventHandle", bidx: int) -> None:
        """Store a handle with ``bidx <= _cur`` (the uncommon direction;
        ``Simulator.schedule_at`` inlines the common one)."""
        batch = self._batch
        i = self._batch_i
        if i < len(batch):
            # belongs before the end of the active batch: interleave.
            # The event's time is >= now, so its slot is >= i and the
            # already-consumed prefix is untouched. ``key=`` keeps the
            # probe comparisons on C tuples instead of EventHandle.__lt__.
            insort(batch, handle, lo=i, key=_SORT_KEY)
            return
        if bidx < self._cur:
            # scheduled behind a cursor that had skipped ahead of a
            # sparse region — park the cursor back on it
            self._cur = bidx
        self._buckets[bidx & self._mask].append(handle)
        self._bucket_count += 1

    def pop_next(self) -> "EventHandle | None":
        while True:
            i = self._batch_i
            batch = self._batch
            if i < len(batch):
                handle = batch[i]
                batch[i] = None
                self._batch_i = i + 1
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                return handle
            if not self._refill():
                return None

    def peek_time(self) -> float | None:
        while True:
            i = self._batch_i
            batch = self._batch
            if i < len(batch):
                handle = batch[i]
                if handle.cancelled:
                    batch[i] = None
                    self._batch_i = i + 1
                    self._cancelled -= 1
                    continue
                return handle.time
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Extract the next bucket-visit into ``_batch``; False if drained."""
        # account the consumed batch in one step (see _count docstring)
        self._count -= len(self._batch)
        self._batch = []
        self._batch_i = 0
        # resize on the *live* population: lazily-cancelled entries must
        # not drive growth, or the cancel-accumulate/resize-drop cycle
        # thrashes the table (grow on stale bulk, shrink after the
        # rebuild discards it, repeat)
        count = self._bucket_count - self._cancelled
        n = self._nbuckets
        if (count > (n << 1) and n < _MAX_BUCKETS) or (
            (count << 3) < n and n > _MIN_BUCKETS
        ):
            self._resize()
        if self._bucket_count == 0:
            return False
        buckets = self._buckets
        mask = self._mask
        n = self._nbuckets
        cur = self._cur
        scanned = 0
        while True:
            bucket = buckets[cur & mask]
            if bucket:
                batch = [h for h in bucket if h._bidx == cur]
                if batch:
                    if len(batch) == len(bucket):
                        # in place: pushes may alias via self._buckets
                        bucket.clear()
                    else:
                        bucket[:] = [h for h in bucket if h._bidx != cur]
                    if len(batch) > 1:
                        batch.sort(key=_SORT_KEY)
                    self._cur = cur
                    self._batch = batch
                    self._batch_i = 0
                    self._bucket_count -= len(batch)
                    self.batches += 1
                    return True
            cur += 1
            scanned += 1
            if scanned > n:
                # a whole cycle of empty visits: the region is sparse —
                # jump straight to the earliest stored bucket-visit
                cur = min(h._bidx for b in buckets for h in b)
                scanned = 0

    def _resize(self) -> None:
        entries = [h for b in self._buckets for h in b if not h.cancelled]
        removed = self._bucket_count - len(entries)
        if removed:
            self._bucket_count -= removed
            self._count -= removed
            self._cancelled -= removed
        live = len(entries)
        target = _MIN_BUCKETS
        while target < live and target < _MAX_BUCKETS:
            target <<= 1
        width = self._choose_width(entries)
        self._nbuckets = target
        self._mask = mask = target - 1
        self._width = width
        self._inv_width = inv = 1.0 / width
        self._buckets = buckets = [[] for _ in range(target)]
        min_bidx: int | None = None
        for handle in entries:
            bidx = int(handle.time * inv)
            handle._bidx = bidx
            buckets[bidx & mask].append(handle)
            if min_bidx is None or bidx < min_bidx:
                min_bidx = bidx
        if min_bidx is not None:
            self._cur = min_bidx
        self.resizes += 1

    #: target number of entries per bucket-visit. Batches amortize the
    #: fixed refill cost (bucket scan, partition, sort call), so the
    #: sweet spot is well above the classic calendar queue's ~1 — and
    #: events that land inside the active visit are absorbed by a C
    #: bisect-insort, which is cheaper than a refill.
    _TARGET_BATCH = 16

    def _choose_width(self, entries: list["EventHandle"]) -> float:
        """Width such that one visit holds ``_TARGET_BATCH`` entries on
        average: ``target × span / population``, with the span taken from
        a bounded sample. Density-based rather than the classic
        mean-gap rule because engine schedules are bimodal — dense
        near-term work (wire deliveries, ticks) plus sparse far-future
        retransmit timers — and a mean-gap width gets dragged toward the
        sparse tail, collapsing all dense work into one giant batch."""
        if len(entries) < 2:
            return self._width
        if len(entries) > 64:
            sample = entries[:: len(entries) // 64][:64]
        else:
            sample = entries
        times = [h.time for h in sample]
        span = max(times) - min(times)
        if span <= 0.0:
            return self._width
        width = self._TARGET_BATCH * span / len(entries)
        return width if width > 1e-9 else 1e-9

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and (self._cancelled << 1) > self._count:
            self._compact()

    def _compact(self) -> None:
        # The active batch tail is left alone (it is O(bucket-visit) small
        # and its consumed-slot protocol belongs to the run loop); buckets
        # are filtered in place.
        removed = 0
        for bucket in self._buckets:
            if bucket:
                live = [h for h in bucket if not h.cancelled]
                if len(live) != len(bucket):
                    removed += len(bucket) - len(live)
                    bucket[:] = live
        if removed:
            self._bucket_count -= removed
            self._count -= removed
            self._cancelled -= removed
        self.compactions += 1

    def stats(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "entries": self._count - self._batch_i,
            "cancelled": self._cancelled,
            "buckets": self._nbuckets,
            "width_us": self._width,
            "batches": self.batches,
            "compactions": self.compactions,
            "resizes": self.resizes,
        }


QUEUE_KINDS = ("heap", "calendar")

_REGISTRY = {"heap": HeapQueue, "calendar": CalendarQueue}


def make_queue(spec: Union[str, EventQueue]) -> EventQueue:
    """Build an event queue from a kind name, or pass an instance through."""
    if isinstance(spec, EventQueue):
        return spec
    factory = _REGISTRY.get(spec)  # type: ignore[arg-type]
    if factory is None:
        raise SimulationError(
            f"unknown event queue {spec!r}: expected one of {QUEUE_KINDS} "
            "or an EventQueue instance"
        )
    return factory()
