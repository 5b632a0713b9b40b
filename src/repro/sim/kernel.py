"""The discrete-event simulation loop.

:class:`Simulator` owns the virtual clock and one event queue, a binary
heap, run by one loop. Everything else in the library — Marcel cores, NIC
DMA engines, wire deliveries, PIOMan timers — is expressed as callbacks
scheduled here.

Events and timers
-----------------
:meth:`Simulator.schedule`, :meth:`~Simulator.schedule_at` and
:meth:`~Simulator.call_soon` push a bare ``(time, priority, seq, fn,
args)`` entry and return nothing: an event cannot be cancelled, and no
object is built for it. :meth:`Simulator.timer` is the one way to get a
cancellable callback: it returns an :class:`EventHandle` and stores
``(time, priority, seq, handle, None)``. Both kinds take their seq from
one counter and fire in one order; only timers are ever skipped.

The heap holds both kinds as tuples, so every comparison :mod:`heapq`
makes runs in C; ``seq`` is unique, so two entries never tie on the first
three fields and the last two are never compared. ``None`` in the last
field marks a timer. Cancellation is lazy: a cancelled timer stays in the
heap until it surfaces, and the heap is compacted once cancelled timers
outnumber live entries (above a floor, ``_COMPACT_MIN``). Without that,
every ACK-cancelled retransmit timer would ride the heap until its
timestamp came up. The heap list is never replaced (compaction rewrites
it in place), so the run loop may alias it.

Determinism contract
--------------------
Events fire in ``(time, priority, sequence)`` order. Sequence numbers are
allocated at scheduling time, so the complete execution is a pure function
of the initial schedule and the callbacks' behaviour. Any randomness must
come from :class:`repro.sim.rng.RngStreams` seeded from the run config.

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

Run-ahead
---------
A layer about to schedule an event ``fn`` at ``time`` that would fire
next anyway may call :meth:`Simulator.run_ahead` instead and run ``fn``'s
work inline: Marcel does so for a thread's compute that ends before its
core's next tick. ``run_ahead(time)`` moves the clock to ``time``, takes
the seq the event would have taken and returns True only when the run
would fire that event next; it refuses (returns False, changing
nothing) when

* the queue's top entry precedes a NORMAL event at ``time``: it is
  earlier, or at ``time`` with priority NORMAL or earlier (INTERRUPT,
  TASKLET) — its seq is older;
* a chain's pending boundary is at or before ``time``;
* ``time`` is past the ``until`` horizon, or :meth:`stop` is pending;
* an observer is registered, or the run has ``max_events``;
* the caller is not inside :meth:`run` (:meth:`step` never runs ahead).

So a run with run-aheads fires and passes exactly what :meth:`step`
would, minus those events. ``run_aheads`` counts them, apart from
``events_fired``.

Tick chains
-----------
A *tick chain* (:meth:`Simulator.start_chain`) is a run of boundaries a
layer would otherwise schedule as one event each, every one rescheduling
the next: Marcel's timer-tick slice ends on a core that computes with
nothing to react to. Its entry ``[time, priority, seq, batch, end]``
sits in a small heap beside the event queue and the run loop merges the
two in key order. ``end`` is a lower bound, fixed when the chain starts,
on the time of its last boundary (Marcel's: a compute's end, which acts
beyond the chain).

The kernel hands a due chain a *batch*: ``batch(stop)`` passes the
pending boundary, with the clock on it, then following boundaries
earlier than ``stop``, and returns ``(n, next)`` — the boundaries passed
and the time of the next pending one, or None when the chain ended. A
batch's boundaries after its first act only on the chain's own state
(the clock stays on the first). A boundary that acts beyond the chain,
and the one before it, whose pass takes the acting one's seq, come
first in a batch; so a chain ends only on a batch's first boundary, and
a run that ends with the chain ends on its last boundary. ``stop`` is
the earliest of

* the event queue's top key: an event at time ``t`` bounds at ``t``,
  or just past ``t`` when its priority is later than NORMAL — a
  boundary's seq is taken when the boundary before it is passed, after
  every queued event's, so a same-instant boundary precedes only a LOW
  (or later) event. A cancelled top bounds too;
* the ``until`` horizon (boundaries at the horizon pass);
* every live chain's ``end``: a last boundary can act on anything —
  Marcel's can wake threads and re-arm ticking on any core — so no
  chain may run past another's.

A batch also stops at (or within rounding of) the pending time of
another chain (:meth:`Simulator.chain_times`). Boundaries of two chains
that fall on the same instants (two cores ticking in phase) order by
seq; the kernel takes a batch's seqs when the batch returns, so a chain
that passed a boundary at another's pending instant would take its seqs
first and reverse that order from then on. Two series of instants a few
ulps apart can merge by rounding and then order as their earlier
instants did, which the same stop keeps.

The kernel then takes the n sequence numbers those boundaries' events
would have taken, in one step, and re-keys the entry in place — no
:class:`EventHandle`, no queue traffic. :meth:`step`, a registered
observer and ``max_events`` make every batch one boundary long (``stop``
is ``-inf``), so each of them still sees every boundary.
:meth:`Simulator.materialize` turns the pending boundary into a real
event with the identical key, so a chain is indistinguishable from the
events it stands for. ``events_fired`` counts real events only;
``chain_boundaries`` counts the boundaries passed and ``chain_batches``
the batches that passed them; ``max_events``, :meth:`step`,
:meth:`peek_time`, :meth:`pending_count` and the liveness check see
every boundary.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Iterable

from ..errors import DeadlockError, SimulationError
from .events import EventHandle, Priority

__all__ = ["Simulator"]

#: compaction is considered only once this many cancelled timers linger.
#: Below the floor, lazy deletion is the right tool — near-term cancelled
#: timers (retransmits killed by their ACK a few µs later) surface and
#: drop on their own, and rebuilding for them is pure thrash. Above it,
#: a rebuild removes at least half the stored entries (the trigger needs
#: cancelled > live), so the cost is O(1) amortized per cancellation and
#: the heap can never bloat past ``2 × max(live, _COMPACT_MIN)``.
_COMPACT_MIN = 1024


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.tracing.Tracer`, carried here so every
        layer built on the simulator can reach the run's tracer. The
        kernel itself never consults it in the per-event path — trace
        emission lives in the layers (scheduler, sessions), which test
        for a tracer at each call site.
    """

    def __init__(self, trace: Any = None) -> None:
        #: current virtual time in microseconds; only :meth:`run` and
        #: :meth:`step` advance it
        self.now: float = 0.0
        #: the event heap (see "Events and timers" above); only ever
        #: mutated in place, compaction included
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        #: cancelled timers still stored in the heap
        self._cancelled = 0
        #: heap rebuilds that dropped cancelled timers
        self.compactions = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.trace = trace
        #: callbacks invoked when :meth:`run` drains the queue; used by
        #: higher layers (Marcel) to report blocked threads for deadlock
        #: diagnostics.
        self._liveness_probes: list[Callable[[], Iterable[str]]] = []
        #: total events fired (statistics / regression checks)
        self.events_fired: int = 0
        #: tick-chain boundaries passed (see "Tick chains" above)
        self.chain_boundaries: int = 0
        #: tick-chain batches, one call of a chain's function each
        self.chain_batches: int = 0
        #: events run ahead of the queue (see "Run-ahead" above)
        self.run_aheads: int = 0
        #: whether :meth:`run_ahead` may move the clock: True only inside
        #: a :meth:`run` without ``max_events``
        self._ahead = False
        #: the running :meth:`run`'s ``until`` horizon
        self._horizon = math.inf
        #: heap of live tick-chain entries ``[time, priority, seq, batch, end]``
        #: (``batch`` is ``fn`` with its ``args`` bound); an entry leaves it
        #: (and its ``batch`` becomes None) when the chain ends or is
        #: materialized
        self._chains: list[list[Any]] = []
        #: the live chains' ``end`` bounds, sorted
        self._chain_ends: list[float] = []
        #: callbacks fired after every event with the current time; observers
        #: must not schedule events (they exist so samplers can piggyback on
        #: the loop without perturbing it — see ``repro.obs.sampler``).
        self._observers: list[Callable[[float], None]] = []
        #: request ids of this runtime: every NewMadeleine session on this
        #: simulator draws from it, so ids restart at 1 with each simulator
        self.req_ids = itertools.count(1)
        #: Marcel thread ids of this runtime, shared by every node's
        #: scheduler in the same way
        self.thread_ids = itertools.count(1)

    def queue_stats(self) -> dict[str, object]:
        """Event-queue counters: stored ``entries`` (lazily-cancelled ones
        included), ``cancelled`` and ``compactions``."""
        return {
            "entries": len(self._heap),
            "cancelled": self._cancelled,
            "compactions": self.compactions,
        }

    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel` on a stored timer: compact
        the heap once cancelled timers outnumber live entries."""
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and (self._cancelled << 1) > len(self._heap):
            heap = self._heap
            heap[:] = [entry for entry in heap if entry[4] is not None or not entry[3].cancelled]
            heapify(heap)
            self._cancelled = 0
            self.compactions += 1

    def _peek(self) -> tuple[float, int, int, Any, Any] | None:
        """The next live heap entry, dropping cancelled timers on top, or
        None when the heap is drained."""
        heap = self._heap
        while heap and heap[0][4] is None and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    # -- scheduling ----------------------------------------------------------

    # ``schedule``, ``schedule_at`` and ``call_soon`` deliberately
    # duplicate one body: they are the hottest call sites in the whole
    # library (one-plus calls per fired event), and the extra Python frame
    # of a delegating wrapper is measurable at kernel-benchmark scale.
    # Keep the bodies in lockstep with ``timer``.

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self.now + delay, priority, seq, fn, args))

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (time, priority, seq, fn, args))

    def call_soon(
        self, fn: Callable[..., Any], *args: Any, priority: int = Priority.NORMAL
    ) -> None:
        """Schedule ``fn(*args)`` for the current instant (after the running
        callback returns)."""
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self.now, priority, seq, fn, args))

    def timer(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.NORMAL,
    ) -> EventHandle:
        """Arm ``fn(*args)`` at absolute virtual time ``time`` and return
        the :class:`EventHandle` that cancels it (see "Events and timers"
        above)."""
        if time < self.now:
            raise SimulationError(
                f"cannot arm a timer at t={time} before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        handle = EventHandle(time, priority, seq, fn, args, self)
        heappush(self._heap, (time, priority, seq, handle, None))
        return handle

    def run_ahead(self, time: float) -> bool:
        """Stand for a NORMAL event at ``time`` that would fire next: move
        the clock there and take its seq, or refuse and change nothing
        (see "Run-ahead" above). The caller then does the event's work
        inline."""
        if not self._ahead or self._stopped or self._observers or time > self._horizon:
            return False
        top = self._peek()
        if top is not None and (
            top[0] < time or (top[0] == time and top[1] <= Priority.NORMAL)
        ):
            return False
        chains = self._chains
        if chains and chains[0][0] <= time:
            return False
        self._seq += 1
        self.now = time
        self.run_aheads += 1
        return True

    # -- tick chains -----------------------------------------------------------

    def start_chain(
        self, time: float, fn: Callable[..., Any], *args: Any, end: float
    ) -> list[Any]:
        """Start a tick chain whose first boundary is at ``time``.

        ``fn(*args, stop)`` passes a batch of boundaries (see "Tick
        chains" above); ``end`` is no later than the first boundary that
        acts beyond the chain, and every chain's batches stop before it.
        The first boundary takes its sequence number now, exactly as
        ``schedule_at(time, …)`` would. Returns the chain's heap entry,
        the handle :meth:`materialize` takes.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot start a chain at t={time} before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        entry = [time, Priority.NORMAL, seq, partial(fn, *args), end]
        heappush(self._chains, entry)
        insort(self._chain_ends, end)
        return entry

    def chain_times(self) -> list[float]:
        """The times of the live chains' pending boundaries, sorted; a
        batch stops at them (see "Tick chains" above)."""
        return sorted([entry[0] for entry in self._chains])

    def materialize(
        self, entry: list[Any], fn: Callable[..., Any], *args: Any
    ) -> None:
        """Retire a live chain: its pending boundary becomes the event
        ``fn(*args)`` with the boundary's own ``(time, priority, seq)``
        key."""
        if entry[3] is None:
            raise SimulationError("chain entry already retired")
        chains = self._chains
        i = next(i for i, other in enumerate(chains) if other is entry)
        chains[i] = chains[-1]
        chains.pop()
        heapify(chains)  # a heap of one entry per computing core
        self._chain_ends.remove(entry[4])
        entry[3] = None
        heappush(self._heap, (entry[0], entry[1], entry[2], fn, args))

    def _pass_batch(self, entry: list[Any], stop: float) -> None:
        """Pass a batch of ``entry``'s boundaries, the top of the chain
        heap, before ``stop``; the clock is on the first. Entries pushed
        by the batch have later keys, so ``entry`` is still the top when
        it returns. :meth:`run` inlines this body: keep the two in
        lockstep."""
        n, nxt = entry[3](stop)
        self.chain_boundaries += n
        self.chain_batches += 1
        if nxt is None:
            if n != 1:
                raise self._ended_mid_batch(n)
            heappop(self._chains)
            self._chain_ends.remove(entry[4])
            entry[3] = None
            return
        seq = self._seq + n
        self._seq = seq
        entry[0] = nxt
        entry[2] = seq
        heapreplace(self._chains, entry)

    def close(self) -> None:
        """End the simulation for good: drop every pending event, timer and
        chain, and every liveness probe and observer. Each holds a callback
        into a layer that refers back to this simulator, so a dropped
        runtime is then freed without the cycle collector. Counters and
        the clock stay readable."""
        self._heap.clear()
        self._cancelled = 0
        self._chains.clear()
        self._chain_ends.clear()
        self._liveness_probes.clear()
        self._observers.clear()

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
                f"event queue drained at t={self.now:.3f}µs with "
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
        """Time of the next pending event or chain boundary, or None if
        nothing is pending."""
        top = self._peek()
        chains = self._chains
        if chains and (top is None or chains[0][0] < top[0]):
            boundary: float = chains[0][0]
            return boundary
        return None if top is None else top[0]

    def _due_chain(self) -> list[Any] | None:
        """The live chain entry that precedes the queue's next event, or
        None when the next thing to run is an event (or nothing)."""
        if not self._chains:
            return None
        entry = self._chains[0]
        nxt = self._peek()
        if nxt is None or (entry[0], entry[1], entry[2]) < nxt:
            return entry
        return None

    def step(self) -> bool:
        """Fire the next pending event or pass the next chain boundary.
        Returns False if nothing is pending.

        The plain reference path: :meth:`run` fires exactly what calling
        ``step()`` until it returns False would."""
        entry = self._due_chain()
        if entry is not None:
            self.now = entry[0]
            self._pass_batch(entry, -math.inf)
        else:
            top = self._peek()
            if top is None:
                return False
            heappop(self._heap)
            if top[0] < self.now:  # pragma: no cover - guarded at insert
                raise SimulationError("time went backwards")
            self.now = top[0]
            if top[4] is None:
                top[3]._fire()
            else:
                top[3](*top[4])
            self.events_fired += 1
        if self._observers:
            for ob in tuple(self._observers):
                ob(self.now)
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

        The loop pops the heap and fires inline, merged with the chain
        heap in key order, and passes chain boundaries in batches (see
        "Tick chains" above). It fires exactly what driving the simulation
        through :meth:`step` would — ``tests/sim/test_kernel_fastpath``,
        ``tests/sim/test_chains`` and ``tests/property/test_prop_queues``
        pin that equivalence. ``events_fired``, ``chain_boundaries`` and
        ``chain_batches`` are flushed lazily: they are exact whenever an
        observer runs and when the run returns (or raises), which is every
        point an outside reader can observe mid-run.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if self._stopped:
            self._stopped = False
            return self.now
        self._running = True
        self._horizon = math.inf if until is None else until
        heap = self._heap
        chains = self._chains
        ends = self._chain_ends
        # the observer list is only ever mutated in place, so the alias
        # tracks add_observer/remove_observer across the whole run
        observers = self._observers
        inf = math.inf
        nextafter = math.nextafter
        normal = Priority.NORMAL
        horizon = inf if until is None else until
        # a batch passes the boundaries before ``stop``: those at the
        # horizon too
        horizon_stop = nextafter(horizon, inf)
        # ``ef`` counts events and chain boundaries (both count towards
        # ``max_events``); it meets ``last`` exactly because a run with
        # ``max_events`` passes one boundary per batch
        passed = self.chain_boundaries
        batches = self.chain_batches
        ef = self.events_fired + passed
        last = -1 if max_events is None else ef + max(max_events, 0)
        one_by_one = last >= 0
        self._ahead = not one_by_one
        try:
            while not self._stopped:
                if chains:
                    # a live chain: pass a batch of its boundaries if it
                    # precedes the next heap entry (a cancelled one
                    # included: the boundary precedes whatever follows it
                    # too). This is _pass_batch's body, inlined.
                    entry = chains[0]
                    if not heap or (entry[0], entry[1], entry[2]) < heap[0]:
                        time = entry[0]
                        if time > horizon:
                            if horizon > self.now:
                                self.now = horizon
                            break
                        if ef == last:
                            raise self._runaway(max_events)
                        self.now = time
                        if observers or one_by_one:
                            stop = -inf
                        else:
                            # the three bounds of "Tick chains" above
                            stop = horizon_stop
                            if heap:
                                top = heap[0]
                                bound = top[0] if top[1] <= normal else nextafter(top[0], inf)
                                if bound < stop:
                                    stop = bound
                            if ends[0] < stop:
                                stop = ends[0]
                        n, nxt = entry[3](stop)
                        passed += n
                        batches += 1
                        ef += n
                        if nxt is None:
                            if n != 1:
                                raise self._ended_mid_batch(n)
                            heappop(chains)
                            ends.remove(entry[4])
                            entry[3] = None
                        else:
                            seq = self._seq + n
                            self._seq = seq
                            entry[0] = nxt
                            entry[2] = seq
                            heapreplace(chains, entry)
                        if observers:
                            self.chain_boundaries = passed
                            self.chain_batches = batches
                            self.events_fired = ef - passed
                            for ob in tuple(observers):
                                ob(self.now)
                        continue
                if not heap:
                    self._finish_drained(until)
                    break
                top = heappop(heap)
                fn = top[3]
                args = top[4]
                if args is None and fn.cancelled:
                    self._cancelled -= 1
                    continue
                time = top[0]
                if time > horizon:
                    # put it back: the run is resumable
                    heappush(heap, top)
                    if horizon > self.now:
                        self.now = horizon
                    break
                if ef == last:
                    heappush(heap, top)
                    raise self._runaway(max_events)
                self.now = time
                if args is None:
                    fn._fire()
                else:
                    fn(*args)
                ef += 1
                if observers:
                    self.chain_boundaries = passed
                    self.chain_batches = batches
                    self.events_fired = ef - passed
                    # observers may detach themselves mid-run: iterate a
                    # snapshot, paid for only when any exist
                    for ob in tuple(observers):
                        ob(self.now)
        finally:
            self.chain_boundaries = passed
            self.chain_batches = batches
            self.events_fired = ef - passed
            self._running = False
            self._stopped = False
            self._ahead = False
        return self.now

    def _finish_drained(self, until: float | None) -> None:
        if until is None:
            self._check_liveness()
        elif until > self.now:
            self.now = until

    def _ended_mid_batch(self, n: int) -> SimulationError:
        return SimulationError(
            f"a tick chain ended after {n} boundaries of one batch at "
            f"t={self.now:.3f}µs; a chain ends only first in a batch"
        )

    def _runaway(self, max_events: int | None) -> SimulationError:
        return SimulationError(
            f"exceeded max_events={max_events} at t={self.now:.3f}µs "
            "(runaway simulation?)"
        )

    # -- introspection ---------------------------------------------------------

    def pending_count(self) -> int:
        """Number of pending events and non-cancelled timers plus live
        chains, one pending boundary each (O(n); for tests)."""
        live = [entry for entry in self._heap if entry[4] is not None or not entry[3].cancelled]
        return len(live) + len(self._chains)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.3f}µs pending={len(self._heap)}>"
