"""The discrete-event simulation loop.

:class:`Simulator` owns the virtual clock and one event queue, a binary
heap of ``(time, priority, seq, handle)`` tuples
(:class:`repro.sim.queues.HeapQueue`), run by one loop. Everything else
in the library — Marcel cores, NIC DMA engines, wire deliveries, PIOMan
timers — is expressed as callbacks scheduled here.

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

Tick chains
-----------
A *tick chain* (:meth:`Simulator.start_chain`) is a run of boundaries a
layer would otherwise schedule as one event each, every one rescheduling
the next: Marcel's timer-tick slice ends on a core that computes with
nothing to react to. Its entry ``[time, priority, seq, fn, args]`` sits
in a small heap beside the event queue and the run loop merges the two
in key order. Passing a boundary calls ``fn(*args)``, which returns the
time of the next boundary (or None to end the chain); the kernel then
takes the one sequence number that boundary's event would have taken
and re-keys the entry in place — no :class:`EventHandle`, no queue
traffic. :meth:`Simulator.materialize` turns the pending boundary into a
real event with the identical key, so a chain is indistinguishable from
the events it stands for. ``events_fired`` counts real events only;
``chain_boundaries`` counts the boundaries passed; ``max_events``,
:meth:`step`, :meth:`peek_time`, :meth:`pending_count` and the liveness
check see both.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Iterable

from ..errors import DeadlockError, SimulationError
from .events import EventHandle, Priority, _noop
from .queues import HeapQueue

__all__ = ["Simulator"]


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
    """

    def __init__(self, trace: Any = None) -> None:
        self._now: float = 0.0
        self._queue = HeapQueue()
        #: alias of the queue's heap list, which is only ever mutated in
        #: place (compaction included)
        self._heap = self._queue._heap
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
        #: heap of live tick-chain entries ``[time, priority, seq, fn, args]``;
        #: an entry leaves it (and its ``fn`` becomes None) when the chain
        #: ends or is materialized
        self._chains: list[list[Any]] = []
        #: callbacks fired after every event with the current time; observers
        #: must not schedule events (they exist so samplers can piggyback on
        #: the loop without perturbing it — see ``repro.obs.sampler``).
        self._observers: list[Callable[[float], None]] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    def queue_stats(self) -> dict[str, object]:
        """Event-queue counters: stored ``entries`` (lazily-cancelled ones
        included), ``cancelled`` and ``compactions``."""
        return self._queue.stats()

    # -- scheduling ----------------------------------------------------------

    # ``schedule`` and ``schedule_at`` deliberately duplicate one body:
    # they are the hottest call sites in the whole library (one-plus calls
    # per fired event), and the extra Python frame of a delegating wrapper
    # is measurable at kernel-benchmark scale. Keep the two bodies in
    # lockstep with HeapQueue.push.

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
        handle = EventHandle(time, priority, seq, fn, args, label, self._queue)
        heappush(self._heap, (time, priority, seq, handle))
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
        handle = EventHandle(time, priority, seq, fn, args, label, self._queue)
        heappush(self._heap, (time, priority, seq, handle))
        return handle

    def call_soon(
        self, fn: Callable[..., Any], *args: Any, priority: int = Priority.NORMAL, label: str = ""
    ) -> EventHandle:
        """Schedule ``fn(*args)`` for the current instant (after the running
        callback returns)."""
        return self.schedule_at(self._now, fn, *args, priority=priority, label=label)

    # -- tick chains -----------------------------------------------------------

    def start_chain(self, time: float, fn: Callable[..., Any], *args: Any) -> list[Any]:
        """Start a tick chain whose first boundary is at ``time``.

        At each boundary ``fn(*args)`` runs with the clock on it and
        returns the next boundary's time, or None to end the chain. The
        first boundary takes its sequence number now, exactly as
        ``schedule_at(time, …)`` would. Returns the chain's heap entry,
        the handle :meth:`materialize` takes.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot start a chain at t={time} before now={self._now}"
            )
        seq = self._seq + 1
        self._seq = seq
        entry = [time, Priority.NORMAL, seq, fn, args]
        heappush(self._chains, entry)
        return entry

    def materialize(
        self, entry: list[Any], fn: Callable[..., Any], *args: Any, label: str = ""
    ) -> EventHandle:
        """Retire a live chain: its pending boundary becomes ``fn(*args)``
        scheduled with the boundary's own ``(time, priority, seq)`` key."""
        if entry[3] is None:
            raise SimulationError("chain entry already retired")
        chains = self._chains
        i = next(i for i, other in enumerate(chains) if other is entry)
        chains[i] = chains[-1]
        chains.pop()
        heapify(chains)  # a heap of one entry per computing core
        entry[3] = None
        handle = EventHandle(entry[0], entry[1], entry[2], fn, args, label)
        self._queue.push(handle)
        return handle

    def _pass_boundary(self, entry: list[Any]) -> None:
        """Pass ``entry``'s boundary, the top of the chain heap; the clock
        is already on it. Entries pushed by ``fn`` have later keys, so
        ``entry`` is still the top when ``fn`` returns."""
        nxt = entry[3](*entry[4])
        self.chain_boundaries += 1
        chains = self._chains
        if nxt is None:
            heappop(chains)
            entry[3] = None
            return
        seq = self._seq + 1
        self._seq = seq
        entry[0] = nxt
        entry[2] = seq
        heapreplace(chains, entry)

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
        """Time of the next pending event or chain boundary, or None if
        nothing is pending."""
        time = self._queue.peek_time()
        chains = self._chains
        if chains and (time is None or chains[0][0] < time):
            return chains[0][0]
        return time

    def _due_chain(self) -> list[Any] | None:
        """The live chain entry that precedes the queue's next event, or
        None when the next thing to run is an event (or nothing)."""
        if not self._chains:
            return None
        entry = self._chains[0]
        nxt = self._queue.peek()
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
            self._now = entry[0]
            self._pass_boundary(entry)
        else:
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

        The loop pops the heap and fires inline, merged with the chain
        heap in key order. It fires exactly what driving the simulation
        through :meth:`step` would — ``tests/sim/test_kernel_fastpath``
        and ``tests/property/test_prop_queues`` pin that equivalence.
        ``events_fired`` is flushed lazily: it is exact whenever an
        observer runs and when the run returns (or raises), which is every
        point an outside reader can observe mid-run.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if self._stopped:
            self._stopped = False
            return self._now
        self._running = True
        queue = self._queue
        heap = self._heap
        chains = self._chains
        # the observer list is only ever mutated in place, so the alias
        # tracks add_observer/remove_observer across the whole run
        observers = self._observers
        horizon = math.inf if until is None else until
        # ``ef`` counts events and chain boundaries (both count towards
        # ``max_events``) and climbs by one per step, so it meets ``last``
        # exactly
        ef = self.events_fired + self.chain_boundaries
        last = -1 if max_events is None else ef + max(max_events, 0)
        try:
            while not self._stopped:
                if chains:
                    # a live chain: pass its boundary if it precedes the
                    # next heap entry (a cancelled one included: the
                    # boundary precedes whatever follows it too)
                    entry = chains[0]
                    if not heap or (entry[0], entry[1], entry[2]) < heap[0]:
                        time = entry[0]
                        if time > horizon:
                            if horizon > self._now:
                                self._now = horizon
                            break
                        if ef == last:
                            raise self._runaway(max_events)
                        self._now = time
                        self._pass_boundary(entry)
                        ef += 1
                        if observers:
                            self.events_fired = ef - self.chain_boundaries
                            for ob in tuple(observers):
                                ob(self._now)
                        continue
                if not heap:
                    self._finish_drained(until)
                    break
                top = heappop(heap)
                handle = top[3]
                if handle.cancelled:
                    queue._cancelled -= 1
                    continue
                time = top[0]
                if time > horizon:
                    # put it back: the run is resumable
                    heappush(heap, top)
                    if horizon > self._now:
                        self._now = horizon
                    break
                if ef == last:
                    heappush(heap, top)
                    raise self._runaway(max_events)
                self._now = time
                handle.fired = True
                handle._fn(*handle._args)
                # release the closure so a retained handle pins nothing
                handle._fn = _noop
                handle._args = ()
                ef += 1
                if observers:
                    self.events_fired = ef - self.chain_boundaries
                    # observers may detach themselves mid-run: iterate a
                    # snapshot, paid for only when any exist
                    for ob in tuple(observers):
                        ob(self._now)
        finally:
            self.events_fired = ef - self.chain_boundaries
            self._running = False
            self._stopped = False
        return self._now

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

    # -- introspection ---------------------------------------------------------

    def pending_count(self) -> int:
        """Number of scheduled, non-cancelled events plus live chains, one
        pending boundary each (O(n); for tests)."""
        return self._queue.pending_count() + len(self._chains)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f}µs pending={len(self._queue)}>"
