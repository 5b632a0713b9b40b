"""The discrete-event simulation loop.

:class:`Simulator` owns the virtual clock and a pluggable event queue
(binary heap or calendar queue — see :mod:`repro.sim.queues`).
Everything else in the library — Marcel cores, NIC DMA engines, wire
deliveries, PIOMan timers — is expressed as callbacks scheduled here.

Determinism contract
--------------------
Events fire in ``(time, priority, sequence)`` order. Sequence numbers are
allocated at scheduling time, so the complete execution is a pure function
of the initial schedule and the callbacks' behaviour — *independent of the
queue implementation*. Any randomness must come from
:class:`repro.sim.rng.RngStreams` seeded from the run config.

Bounded-run semantics
---------------------
``run(until=T)`` fires every event with ``time <= T`` and always leaves
the clock at exactly ``T`` when it returns because of the bound — whether
events remain beyond ``T`` or the queue drained early — so callers
interleaving bounded runs with ``schedule_at`` see a consistent clock.
``run(max_events=N)`` raises only when work genuinely remains after the
Nth event; a run that *completes* (drains, stops, or reaches ``until``)
in exactly N events returns normally. ``stop()`` requested before
``run()`` is honoured: the run fires zero events and consumes the stop.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Iterable, Union

from ..errors import DeadlockError, SimulationError
from .events import EventHandle, Priority, _noop
from .queues import CalendarQueue, EventQueue, HeapQueue, make_queue

__all__ = ["Simulator"]

#: recycled EventHandle objects kept per simulator (allocation churn cap)
_POOL_MAX = 512


def _pool_baseline() -> int:
    """Refcount of a function-local object with no other holders.

    A fired handle is recycled into the pool only when its refcount
    proves the caller kept no reference to it — so a retained handle
    (e.g. a timer someone may still cancel) is never reused. On runtimes
    without refcounts, pooling is disabled.
    """
    getrefcount = getattr(sys, "getrefcount", None)
    if getrefcount is None:  # pragma: no cover - non-CPython
        return -1
    probe = object()
    return int(getrefcount(probe))


_POOL_REFS = _pool_baseline()


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.tracing.Tracer`, carried here so every
        layer built on the simulator can reach the run's tracer. The
        kernel itself never consults it in the per-event path — trace
        emission lives in the layers (scheduler, sessions), which bind a
        no-op helper when no tracer is attached.
    queue:
        Event-queue implementation: ``"heap"`` (default), ``"calendar"``,
        or an :class:`repro.sim.queues.EventQueue` instance. Fire order
        is identical for every implementation; the calendar queue is the
        fast one (O(1) amortized, batch firing, cancelled-entry
        compaction) and is what :class:`repro.config.TimingModel` selects
        for engine runs, with the heap as the conservative fallback.
    """

    def __init__(
        self,
        trace: Any = None,
        queue: Union[str, EventQueue] = "heap",
    ) -> None:
        self._now: float = 0.0
        self._queue: EventQueue = make_queue(queue)
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.trace = trace
        #: recycled handles (see _pool_baseline); schedule_at reuses them
        self._pool: list[EventHandle] = []
        #: callbacks invoked when :meth:`run` drains the queue; used by
        #: higher layers (Marcel) to report blocked threads for deadlock
        #: diagnostics.
        self._liveness_probes: list[Callable[[], Iterable[str]]] = []
        #: total events fired (statistics / regression checks)
        self.events_fired: int = 0
        #: callbacks fired after every event with the current time; observers
        #: must not schedule events (they exist so samplers can piggyback on
        #: the loop without perturbing it — see ``repro.obs.sampler``).
        self._observers: list[Callable[[float], None]] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def queue(self) -> EventQueue:
        """The event-queue implementation this simulator runs on."""
        return self._queue

    def queue_stats(self) -> dict[str, object]:
        """Implementation counters of the event queue (entries, cancelled,
        compactions, …) — see :meth:`repro.sim.queues.EventQueue.stats`."""
        return self._queue.stats()

    # -- scheduling ----------------------------------------------------------

    # ``schedule`` and ``schedule_at`` deliberately duplicate one body:
    # they are the hottest call sites in the whole library (one-plus calls
    # per fired event), and the extra Python frame of a delegating wrapper
    # is measurable at kernel-benchmark scale. Keep the two bodies in
    # lockstep; the push fast path mirrors CalendarQueue.push /
    # HeapQueue.push, whose tests pin the shared semantics.

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self._now + delay
        seq = self._seq + 1
        self._seq = seq
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.priority = priority
            handle.seq = seq
            handle._key = (time, priority, seq)
            handle._fn = fn
            handle._args = args
            handle.cancelled = False
            handle.fired = False
            handle.label = label
        else:
            handle = EventHandle(time, priority, seq, fn, args, label)
        queue = self._queue
        if type(queue) is CalendarQueue:
            handle._queue = queue
            bidx = int(time * queue._inv_width)
            handle._bidx = bidx
            queue._count += 1
            if bidx > queue._cur:
                queue._buckets[bidx & queue._mask].append(handle)
                queue._bucket_count += 1
            else:
                queue._push_near(handle, bidx)
        elif type(queue) is HeapQueue:
            handle._queue = queue
            heapq.heappush(queue._heap, handle)
        else:
            queue.push(handle)
        return handle

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq + 1
        self._seq = seq
        pool = self._pool
        if pool:
            # recycle a fired handle: same fields as __init__, no allocation
            handle = pool.pop()
            handle.time = time
            handle.priority = priority
            handle.seq = seq
            handle._key = (time, priority, seq)
            handle._fn = fn
            # ``args`` is already a tuple (built by the ``*args`` packing);
            # re-wrapping it was a per-event allocation for nothing.
            handle._args = args
            handle.cancelled = False
            handle.fired = False
            handle.label = label
        else:
            handle = EventHandle(time, priority, seq, fn, args, label)
        queue = self._queue
        if type(queue) is CalendarQueue:
            handle._queue = queue
            bidx = int(time * queue._inv_width)
            handle._bidx = bidx
            queue._count += 1
            if bidx > queue._cur:
                queue._buckets[bidx & queue._mask].append(handle)
                queue._bucket_count += 1
            else:
                queue._push_near(handle, bidx)
        elif type(queue) is HeapQueue:
            handle._queue = queue
            heapq.heappush(queue._heap, handle)
        else:
            queue.push(handle)
        return handle

    def call_soon(
        self, fn: Callable[..., Any], *args: Any, priority: int = Priority.NORMAL, label: str = ""
    ) -> EventHandle:
        """Schedule ``fn(*args)`` for the current instant (after the running
        callback returns)."""
        return self.schedule_at(self._now, fn, *args, priority=priority, label=label)

    # -- liveness ------------------------------------------------------------

    def add_liveness_probe(self, probe: Callable[[], Iterable[str]]) -> None:
        """Register a probe reporting names of still-blocked entities.

        When :meth:`run` exhausts the event queue, every probe is asked for
        blocked entities; if any reports one, a :class:`DeadlockError` is
        raised instead of returning silently.
        """
        self._liveness_probes.append(probe)

    # -- observers -----------------------------------------------------------

    def add_observer(self, fn: Callable[[float], None]) -> None:
        """Call ``fn(now)`` after every fired event.

        Observers run outside any execution context and must not schedule
        events or otherwise mutate simulation state; they are a read-only
        window for metrics sampling.
        """
        self._observers.append(fn)

    def remove_observer(self, fn: Callable[[float], None]) -> None:
        """Deregister ``fn`` (idempotent)."""
        try:
            self._observers.remove(fn)
        except ValueError:
            pass

    def _check_liveness(self) -> None:
        blocked: list[str] = []
        for probe in self._liveness_probes:
            blocked.extend(probe())
        if blocked:
            raise DeadlockError(
                f"event queue drained at t={self._now:.3f}µs with "
                f"{len(blocked)} blocked entities: {', '.join(sorted(blocked)[:12])}",
                blocked=tuple(blocked),
            )

    # -- execution -----------------------------------------------------------

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback completes.

        A stop requested while no run is active is *pending*: the next
        :meth:`run` fires zero events, leaves the clock untouched, and
        consumes the stop (so the run after that proceeds normally).
        """
        self._stopped = True

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None if the queue is drained."""
        return self._queue.peek_time()

    def step(self) -> bool:
        """Fire the next pending event. Returns False if the queue is empty."""
        handle = self._queue.pop_next()
        if handle is None:
            return False
        if handle.time < self._now:  # pragma: no cover - guarded at insert
            raise SimulationError("time went backwards")
        self._now = handle.time
        handle._fire()
        self.events_fired += 1
        if self._observers:
            for ob in tuple(self._observers):
                ob(self._now)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``stop()``.

        Returns the final virtual time. Raises :class:`DeadlockError` if the
        queue drains while liveness probes report blocked entities (only
        when ``until`` is None — bounded runs may legitimately stop early).

        Semantics pinned by ``tests/sim/test_kernel.py``:

        * With ``until=T`` the clock always lands on exactly ``T`` when the
          bound ends the run — including when the queue drains before ``T``
          (the clock never goes backwards: ``T`` in the past is a no-op).
        * ``max_events=N`` raises *only* if work remains after the Nth
          event; completing in exactly N events is legitimate.
        * A :meth:`stop` requested before the call fires zero events.

        This is the hot loop of every benchmark: per queue implementation
        it inlines the pop/fire sequence (heap: local ``heappop`` binding,
        one cancelled sweep per iteration; calendar: straight-line batch
        consumption) and recycles fired handles nobody retained. Behaviour
        is identical to driving the simulation through :meth:`step` —
        ``tests/sim/test_kernel_fastpath`` pins that equivalence.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            if self._stopped:
                return self._now
            queue = self._queue
            free = until is None and max_events is None
            if type(queue) is CalendarQueue:
                if free:
                    return self._run_calendar_free(queue)
                return self._run_calendar(queue, until, max_events)
            if type(queue) is HeapQueue:
                if free:
                    return self._run_heap_free(queue)
                return self._run_heap(queue, until, max_events)
            return self._run_generic(queue, until, max_events)
        finally:
            self._running = False
            self._stopped = False

    def _finish_drained(self, until: float | None) -> None:
        if until is None:
            self._check_liveness()
        elif until > self._now:
            self._now = until

    def _runaway(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"exceeded max_events={max_events} at t={self._now:.3f}µs "
            "(runaway simulation?)"
        )

    def _run_heap_free(self, queue: HeapQueue) -> float:
        """Unbounded heap run (no ``until``/``max_events``): the benchmark
        loop, with the bound checks compiled out and ``events_fired``
        flushed lazily — it is exact whenever an observer fires and when
        the run returns (or raises), which is every point an outside
        reader can observe mid-run."""
        heap = queue._heap
        pool = self._pool
        heappop = heapq.heappop
        getrefcount = sys.getrefcount if _POOL_REFS > 0 else None
        observers = self._observers
        ef = self.events_fired
        try:
            while True:
                while heap and heap[0].cancelled:
                    heappop(heap)
                    queue._cancelled -= 1
                if not heap:
                    self._finish_drained(None)
                    break
                handle = heappop(heap)
                self._now = handle.time
                handle.fired = True
                handle._fn(*handle._args)
                ef += 1
                if observers:
                    self.events_fired = ef
                    for ob in tuple(observers):
                        ob(self._now)
                if (
                    getrefcount is not None
                    and len(pool) < _POOL_MAX
                    and getrefcount(handle) == _POOL_REFS
                ):
                    pool.append(handle)
                else:
                    handle._fn = _noop
                    handle._args = ()
                if self._stopped:
                    break
        finally:
            self.events_fired = ef
        return self._now

    def _run_calendar_free(self, queue: CalendarQueue) -> float:
        """Unbounded calendar run — see :meth:`_run_heap_free`. Straight-line
        batch consumption: index bump, fire, recycle."""
        pool = self._pool
        refill = queue._refill
        getrefcount = sys.getrefcount if _POOL_REFS > 0 else None
        observers = self._observers
        ef = self.events_fired
        try:
            while True:
                i = queue._batch_i
                batch = queue._batch
                if i >= len(batch):
                    if not refill():
                        self._finish_drained(None)
                        break
                    continue
                handle = batch[i]
                batch[i] = None
                queue._batch_i = i + 1
                if handle.cancelled:
                    queue._cancelled -= 1
                    # a cancelled entry nobody retained (ack'd retransmit
                    # timer whose owner dropped the handle) is recyclable
                    # like a fired one
                    if (
                        getrefcount is not None
                        and len(pool) < _POOL_MAX
                        and getrefcount(handle) == _POOL_REFS
                    ):
                        pool.append(handle)
                    continue
                self._now = handle.time
                handle.fired = True
                handle._fn(*handle._args)
                ef += 1
                if observers:
                    self.events_fired = ef
                    for ob in tuple(observers):
                        ob(self._now)
                if (
                    getrefcount is not None
                    and len(pool) < _POOL_MAX
                    and getrefcount(handle) == _POOL_REFS
                ):
                    pool.append(handle)
                else:
                    handle._fn = _noop
                    handle._args = ()
                if self._stopped:
                    break
        finally:
            self.events_fired = ef
        return self._now

    def _run_heap(self, queue: HeapQueue, until: float | None, max_events: int | None) -> float:
        fired = 0
        heap = queue._heap
        pool = self._pool
        heappop = heapq.heappop
        getrefcount = sys.getrefcount if _POOL_REFS > 0 else None
        observers = self._observers
        while not self._stopped:
            while heap and heap[0].cancelled:
                heappop(heap)
                queue._cancelled -= 1
            if not heap:
                self._finish_drained(until)
                break
            if until is not None and heap[0].time > until:
                if until > self._now:
                    self._now = until
                break
            if max_events is not None and fired >= max_events:
                raise self._runaway(max_events)
            handle = heappop(heap)
            self._now = handle.time
            handle.fired = True
            handle._fn(*handle._args)
            self.events_fired += 1
            # observers may detach themselves mid-run, so iterate a
            # snapshot — but only pay for the copy when any exist
            if observers:
                for ob in tuple(observers):
                    ob(self._now)
            fired += 1
            # recycle the handle if the refcount proves nobody kept it;
            # otherwise release the closure so retained handles keep
            # nothing alive across long simulations
            if (
                getrefcount is not None
                and len(pool) < _POOL_MAX
                and getrefcount(handle) == _POOL_REFS
            ):
                pool.append(handle)
            else:
                handle._fn = _noop
                handle._args = ()
        return self._now

    def _run_calendar(
        self, queue: CalendarQueue, until: float | None, max_events: int | None
    ) -> float:
        fired = 0
        pool = self._pool
        refill = queue._refill
        getrefcount = sys.getrefcount if _POOL_REFS > 0 else None
        # the observer list is only ever mutated in place, so the alias
        # tracks add_observer/remove_observer across the whole run
        observers = self._observers
        while not self._stopped:
            i = queue._batch_i
            batch = queue._batch
            if i >= len(batch):
                if not refill():
                    self._finish_drained(until)
                    break
                continue
            handle = batch[i]
            if handle.cancelled:
                batch[i] = None
                queue._batch_i = i + 1
                queue._cancelled -= 1
                continue
            time = handle.time
            if until is not None and time > until:
                # leave the handle in the batch: the run is resumable
                if until > self._now:
                    self._now = until
                break
            if max_events is not None and fired >= max_events:
                raise self._runaway(max_events)
            batch[i] = None
            queue._batch_i = i + 1
            self._now = time
            handle.fired = True
            handle._fn(*handle._args)
            self.events_fired += 1
            if observers:
                for ob in tuple(observers):
                    ob(self._now)
            fired += 1
            # recycle if the refcount proves nobody kept the handle (the
            # reused fields are overwritten at reuse); otherwise release
            # the closure so retained handles keep nothing alive
            if (
                getrefcount is not None
                and len(pool) < _POOL_MAX
                and getrefcount(handle) == _POOL_REFS
            ):
                pool.append(handle)
            else:
                handle._fn = _noop
                handle._args = ()
        return self._now

    def _run_generic(
        self, queue: EventQueue, until: float | None, max_events: int | None
    ) -> float:
        """Correctness-first loop for third-party EventQueue implementations."""
        fired = 0
        while not self._stopped:
            time = queue.peek_time()
            if time is None:
                self._finish_drained(until)
                break
            if until is not None and time > until:
                if until > self._now:
                    self._now = until
                break
            if max_events is not None and fired >= max_events:
                raise self._runaway(max_events)
            handle = queue.pop_next()
            assert handle is not None
            self._now = handle.time
            handle._fire()
            self.events_fired += 1
            observers = self._observers
            if observers:
                for ob in tuple(observers):
                    ob(self._now)
            fired += 1
        return self._now

    # -- introspection ---------------------------------------------------------

    def pending_count(self) -> int:
        """Number of scheduled, non-cancelled events (O(n); for tests)."""
        return self._queue.pending_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f}µs pending={len(self._queue)}>"
