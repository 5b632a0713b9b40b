"""The two-level Marcel scheduler over simulated cores.

One :class:`MarcelScheduler` instance manages all cores of one node. Each
core runs at most one thread at a time; the scheduler multiplexes threads
over cores with per-core runqueues, priorities, preemptive round-robin at
timer ticks, and idle-time work stealing.

PIOMan is wired straight in: the scheduler holds one ``pioman`` engine
reference (None without a PIOMan engine) and calls it at exactly the
trigger list of §3.1 of the paper ("CPU idleness, context switches, timer
interrupts"):

* ``on_idle(core)`` — when a core has no runnable thread; it may perform
  arbitrary communication work (request submission, polling) and returns
  ``(cpu_us, repoll_delay)``: CPU consumed now, and an optional delay
  after which the core should call again even without a wake.
* ``on_tick(core)`` — at timer-interrupt boundaries while a thread
  computes; cheap completion detection, returns the CPU consumed.
  ``tick_wants(core)`` says whether a tick on that core would do
  anything for the engine.
* ``on_switch(core)`` — at context-switch points, returns the CPU consumed.
* ``detect_pending`` / ``run_detection(core, after)`` — PIOMan's kernel
  detection (§3.2's blocking method) falls due when an interrupt wakes a
  blocked watch; the first safe point of any core (a dispatch, or a tick
  after ``on_tick``) runs it before any thread, with the "very high
  priority" §3.1 gives deferred work. ``after`` is the CPU the safe point
  already charged (the tick's poll), so the detection starts after it.
  It returns the CPU consumed.

Per-event cost
--------------
Untraced runs make no trace call: every trace site tests ``tracer is not
None`` first. A safe point's detection check is one read of the engine's
``detect_pending``, and an idle core skips the steal scan of the other
runqueues while the node's ``queued.n`` is 0. A thread step dispatches
its effect by class identity, tests a runqueue's ``_count`` before
calling into it, and adds timeline spans inline.

Run-ahead
---------
A compute that ends before its core's next tick, on a core whose
runqueue is empty, would end in a ``_slice_end`` that does nothing but
resume the thread: no tick, no preemption check that can fire. When
:meth:`Simulator.run_ahead` finds that this event would fire next (see
"Run-ahead" in :mod:`repro.sim.kernel`), :meth:`MarcelScheduler._step_thread`
charges the slice, takes the clock to its end and goes on with the
thread, with no event. The kernel refuses whenever anything could come
first, so every instant is the one the event would have produced.

Control-token discipline
------------------------
Exactly one control activity exists per core at any instant: either a
kernel event is in flight that will re-enter the core's dispatch machinery,
or the core is **parked** (truly idle, no events — it is woken explicitly).
This keeps the simulation free of double-dispatch races and keeps the event
count proportional to actual activity.

Tickless compute
----------------
Timer ticks stay the safe points at which a computing core notices new
work, but most of them find none. A core is *quiet* while its runqueue is
empty, its thread runs above LOW priority and the engine's ``tick_wants``
is false (or there is no engine; a due detection makes it true). A quiet
core's slice ends become one kernel tick chain
(:meth:`Simulator.start_chain`) instead of an event per tick, and the
kernel hands the chain its slice ends in batches (see "Tick chains" in
:mod:`repro.sim.kernel`). One function,
:meth:`MarcelScheduler._quiet_ticks`, passes a batch in one local loop:
each slice end runs the arithmetic of a tick that does nothing, with the
same float operations in the same order, written back once per batch.
A batch stops at the kernel's bound — the next event, the ``until``
horizon, or half a tick before the end of any chained compute (its start
plus its length, fixed when the chain starts, less half a tick for
rounding), since a compute's end can wake threads and re-arm ticking on
any core — and at (or within rounding of) another chain's pending slice
end, so that cores ticking in phase keep their order. The compute's last
two slice ends come first in a batch: the end, which goes through the
ordinary :meth:`MarcelScheduler._slice_end`, and the slice end before
it, whose pass takes the end's seq — so a tie at the compute's end
orders as the ticks before it did, as with one event per tick. Whatever
can end quietness re-arms the core first — a thread woken or spawned
onto it, or :meth:`MarcelScheduler.resume_ticks` (PIOMan's
hardware-activity notice, and its kernel detection falling due) — by
materializing the pending boundary into the ordinary slice-end event
with the same key.

Most of a long batch's slice ends are *steady*: the core sits on its tick
grid and a whole tick of compute lies beyond, so each adds ``tick`` to
the clock, the thread's and the quantum's CPU time and the timeline sum.
A batch with more than ``_JUMP_MIN_TICKS`` of them ahead passes k at once
in closed form: with an integral tick and every value below 2**52, the
clock's k additions are exact when their total is (else k stops at the
power of two above the clock), and the other sums replay only their
rounding additions, at powers of two (:func:`_tick_sum`). Each of the k
passes the loop's own stop, tie and tail tests, and every other slice
end steps as before, so the result is the stepwise one bit for bit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..config import MarcelConfig, TimingModel
from ..errors import SchedulerError, ThreadStateError
from ..sim.events import Priority as EventPriority
from ..sim.kernel import Simulator
from ..sim.tracing import CoreTimeline, Tracer
from ..topology.machine import Node
from .effects import Compute, Sleep, WaitFlag, WaitTEvent, YieldNow
from .runqueue import QueuedCount, RunQueue
from .sync import ThreadEvent
from .thread import MarcelThread, Priority, ThreadContext, ThreadState

if TYPE_CHECKING:  # pragma: no cover - pioman is built on top of marcel
    from ..pioman.engine import PiomanEngine

__all__ = ["CoreRuntime", "MarcelScheduler"]

_EPS = 1e-9


#: guard against threads that yield an infinite stream of zero-duration
#: effects — after this many instantaneous steps without consuming virtual
#: time, the scheduler aborts with a diagnostic instead of hanging.
_MAX_INSTANT_STEPS = 100_000

#: a quiet-tick jump keeps every value it touches below this, where an
#: integral tick is a multiple of each value's ulp
_EXACT_TOP = 2.0**52
#: a batch jumps its steady slice ends only when more than this many lie
#: ahead: on CPython 3.11 a stepped slice end costs about 0.12 µs, and a
#: jump's bounds and sums about as much as eight of them
_JUMP_MIN_TICKS = 8


def _tick_sum(value: float, k: int, tick: float) -> float:
    """``value`` after ``k`` float additions of ``tick``, one at a time,
    for an integral ``tick`` and a sum below ``_EXACT_TOP``: the additions
    up to the power of two above ``value`` are exact (its ulp, at most 1,
    divides the tick) and add up at once; the one that crosses it may
    round, and is made as the loop makes it."""
    span = k * tick
    total = value + span
    if total - span == value and total - value == span:
        return total  # exact, so every partial sum is exact too
    while k:
        # exact: value is at least half of top; and room is a whole number
        # of value's ulps, at most 2**52, so room / tick cannot round up
        # to the next whole number
        room = math.ldexp(1.0, math.frexp(value)[1]) - value
        j = int(room / tick)
        if j >= k:
            return value + k * tick
        value += j * tick
        value += tick
        k -= j + 1
    return value


class CoreRuntime:
    """Scheduler-side state for one core."""

    # control states
    ACTIVE = "active"  # a kernel event will (or is currently) driving this core
    PARKED = "parked"  # no runnable work, no scheduled event; woken explicitly
    IDLE_WAIT = "idle_wait"  # idle, but a repoll event is scheduled

    def __init__(self, index: int, name: str, queued: QueuedCount) -> None:
        self.index = index
        self.name = name
        self.runqueue = RunQueue(name, queued)
        self.current: Optional[MarcelThread] = None
        self.last_thread: Optional[MarcelThread] = None
        self.control = CoreRuntime.PARKED
        self.timeline = CoreTimeline(name)
        self.quantum_used = 0.0
        self.next_tick = 0.0
        self.idle_since: Optional[float] = None
        self.repoll_handle = None  # the kernel timer of a pending idle repoll
        #: kernel tick-chain entry while the core computes quietly
        self.chain: Optional[list[Any]] = None
        #: length of the slice the chain's pending boundary ends
        self.chain_len = 0.0
        # statistics
        self.switches = 0
        self.preemptions = 0
        self.ticks = 0
        self.steals = 0

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.name if self.current else "-"
        return f"<Core {self.name} {self.control} cur={cur} rq={len(self.runqueue)}>"


class MarcelScheduler:
    """Thread scheduler for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        timing: TimingModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.timing = timing or TimingModel()
        self.cfg: MarcelConfig = self.timing.marcel
        self.tracer = tracer
        #: threads queued over every core's runqueue
        self.queued = QueuedCount()
        self.cores: list[CoreRuntime] = [
            CoreRuntime(core.core_index, core.name, self.queued) for core in node.cores
        ]
        self.threads: list[MarcelThread] = []
        #: the PIOMan engine the triggers call; set by the engine itself
        self.pioman: Optional["PiomanEngine"] = None
        #: thread whose generator is currently being advanced (for
        #: primitives needing the caller's identity)
        self._executing: Optional[MarcelThread] = None
        self._spawn_rr = 0  # round-robin core assignment cursor
        #: the next thread id, from the counter the runtime's schedulers
        #: share (its own ``__next__``, as for request ids)
        self._next_tid = sim.thread_ids.__next__
        #: PIOMan kernel detections run on this node's cores
        self.detections = 0
        sim.add_liveness_probe(self._liveness_probe)

    # -------------------------------------------------------------- spawning

    def spawn(
        self,
        body: Callable[[ThreadContext], Generator[Any, Any, Any]],
        name: str = "",
        core_index: Optional[int] = None,
        priority: int = Priority.NORMAL,
        migratable: bool = True,
        env: dict[str, Any] | None = None,
    ) -> MarcelThread:
        """Create a thread from ``body(ctx)`` and make it runnable.

        Without an explicit ``core_index`` threads are placed round-robin
        over the node's cores (the paper's meta-application distributes its
        threads this way).
        """
        if core_index is None:
            core_index = self._spawn_rr % len(self.cores)
            self._spawn_rr += 1
        if not (0 <= core_index < len(self.cores)):
            raise SchedulerError(f"core index {core_index} out of range")
        thread = MarcelThread(
            gen=(_ for _ in ()),  # placeholder; replaced once the context exists
            name=name,
            tid=self._next_tid(),
            priority=priority,
            core_index=core_index,
            migratable=migratable,
        )
        ctx = ThreadContext(self, thread)
        if env:
            ctx.env.update(env)
        gen = body(ctx)
        if not hasattr(gen, "send"):
            raise ThreadStateError(
                f"thread body {name or body!r} did not return a generator "
                "(missing yield?)"
            )
        thread.gen = gen
        self.threads.append(thread)
        thread.transition(ThreadState.READY)
        self._enqueue(thread, "marcel.spawn")
        return thread

    def done_event_of(self, thread: MarcelThread) -> ThreadEvent:
        if thread.done_event is None:
            thread.done_event = ThreadEvent(self, name=f"{thread.name}.done")
            if thread.done:
                thread.done_event.trigger(thread.result)
        return thread.done_event

    # -------------------------------------------------------------- waking

    def wake(self, thread: MarcelThread, value: Any = None) -> None:
        """Unblock a thread (from BLOCKED or SLEEPING) with a resume value."""
        if thread.state == ThreadState.DONE:
            raise ThreadStateError(f"waking finished thread {thread.name}")
        thread.pending_value = value
        thread.wait_us += self.sim.now - thread._blocked_since
        thread.transition(ThreadState.READY)
        self._enqueue(thread, "marcel.wake")

    def _enqueue(self, thread: MarcelThread, category: str) -> None:
        """Queue a READY thread (spawned or woken) and wake its core.

        A migratable thread whose home core is occupied goes to a free core
        instead of queueing behind other work (Marcel's reactivity
        guarantee — "communicating threads are ensured to be scheduled as
        soon as the communication event is detected", §3.2)."""
        core = self.cores[thread.core_index]
        if thread.migratable and (core.current is not None or core.runqueue._count):
            for cand in self.cores:
                if cand.current is None and not cand.runqueue._count:
                    thread.core_index = cand.index
                    core = cand
                    break
        core.runqueue.push(thread)
        if core.chain is not None:
            self._materialize(core)
        if self.tracer is not None:
            self._trace(category, core.name, thread.name)
        self._wake_core(core)

    def current_thread_required(self) -> MarcelThread:
        if self._executing is None:
            raise SchedulerError("no thread is currently executing")
        return self._executing

    def idle_core_count(self, leaving: Optional[MarcelThread] = None) -> int:
        """Cores with no current thread and an empty runqueue (PIOMan's
        notion of an exploitable idle core), once ``leaving``, if it runs,
        has left its core."""
        count = 0
        for c in self.cores:
            if (c.current is None or c.current is leaving) and not c.runqueue._count:
                count += 1
        return count

    def kick_idle(self) -> bool:
        """Wake one parked/idle-waiting core so its idle trigger runs.

        Used by PIOMan to steer a freshly generated event to an idle CPU.
        Returns False when every core is actively executing.
        """
        for core in self.cores:
            if core.control != CoreRuntime.ACTIVE:
                self._wake_core(core)
                return True
        return False

    # ---------------------------------------------------------- wake plumbing

    def _wake_core(self, core: CoreRuntime) -> None:
        if core.control == CoreRuntime.ACTIVE:
            return  # next safe point will see the new work
        if core.control == CoreRuntime.IDLE_WAIT and core.repoll_handle is not None:
            core.repoll_handle.cancel()
            core.repoll_handle = None
        since = core.idle_since
        if since is not None:
            now = self.sim.now
            if now > since + _EPS:
                core.timeline.add(since, now, "idle")
            core.idle_since = None
        core.control = CoreRuntime.ACTIVE
        self.sim.call_soon(self._dispatch, core, priority=EventPriority.TASKLET)

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, core: CoreRuntime) -> None:
        """Core safe point: a due kernel detection, then thread selection,
        then idle."""
        core.control = CoreRuntime.ACTIVE
        core.repoll_handle = None
        sim = self.sim
        since = core.idle_since
        if since is not None:
            if sim.now > since + _EPS:
                core.timeline.add(since, sim.now, "idle")
            core.idle_since = None
        pioman = self.pioman
        # 1. PIOMan's kernel detection (very high priority)
        if pioman is not None and pioman.detect_pending:
            self.detections += 1
            cost = pioman.run_detection(core, 0.0)
            if cost > 0:
                core.timeline.add(sim.now, sim.now + cost, "service")
                sim.schedule(cost, self._dispatch, core, priority=EventPriority.TASKLET)
                return
        # 2. pick a thread
        thread = core.runqueue.pop() if core.runqueue._count else None
        if thread is None and self.queued.n:
            # another core's runqueue holds a thread
            thread = self._steal_for(core)
        if thread is None:
            self._enter_idle(core)
            return
        # 3. context switch
        switch_cost = 0.0
        if thread is not core.last_thread and core.last_thread is not None:
            switch_cost += self.timing.host.context_switch_us
        if pioman is not None:
            switch_cost += pioman.on_switch(core)
        thread.transition(ThreadState.RUNNING)
        core.current = thread
        core.last_thread = thread
        core.quantum_used = 0.0
        core.switches += 1
        thread.switches += 1
        if self.tracer is not None:
            self._trace("marcel.switch", core.name, thread.name)
        if switch_cost > 0:
            core.timeline.add(sim.now, sim.now + switch_cost, "service")
            sim.schedule(switch_cost, self._run_current, core)
        else:
            self._run_current(core)

    def _steal_for(self, core: CoreRuntime) -> Optional[MarcelThread]:
        n = len(self.cores)
        for offset in range(1, n):
            victim = self.cores[(core.index + offset) % n]
            if victim.current is None:
                # the victim is not running anything: it will dispatch its
                # own queue momentarily — stealing here would race the wake
                continue
            thread = victim.runqueue.steal()
            if thread is not None:
                thread.core_index = core.index
                core.steals += 1
                if self.tracer is not None:
                    self._trace("marcel.steal", core.name, thread.name, victim=victim.name)
                return thread
        return None

    # ---------------------------------------------------------------- running

    def _run_current(self, core: CoreRuntime) -> None:
        thread = core.current
        if thread is None:  # pragma: no cover - defensive
            raise SchedulerError(f"{core.name}: _run_current without a thread")
        if thread.compute_remaining > _EPS:
            self._start_slice(core, thread)
            return
        if self._step_thread(core):
            self._dispatch(core)

    def _step_thread(self, core: CoreRuntime) -> bool:
        """Advance the current thread through instantaneous effects.

        Returns True when the core needs a fresh dispatch (thread finished,
        blocked, slept or yielded); False when a timed continuation event
        was scheduled.

        A compute that ends before the core's next tick, with nothing
        queued on the core, runs ahead (:meth:`Simulator.run_ahead`) when
        its slice-end event would fire next: the loop goes on at its end,
        doing what that event's ``_slice_end`` would do there — no tick,
        no preemption (the runqueue stays empty), and the next step.
        """
        thread = core.current
        assert thread is not None
        sim = self.sim
        gen = thread.gen
        steps = 0
        while True:
            steps += 1
            if steps > _MAX_INSTANT_STEPS:
                raise SchedulerError(
                    f"thread {thread.name} performed {_MAX_INSTANT_STEPS} instantaneous "
                    "steps without consuming virtual time (runaway loop?)"
                )
            value, thread.pending_value = thread.pending_value, None
            self._executing = thread
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                self._finish_thread(core, thread, stop.value)
                return True
            except BaseException as exc:
                thread.error = exc
                self._finish_thread(core, thread, None)
                raise
            finally:
                self._executing = None

            cls = effect.__class__
            if cls is Compute:
                duration = effect.duration
                if duration <= _EPS:
                    continue
                if not core.runqueue._count:
                    # _start_slice's slice, and _slice_end's test for a tick
                    now = sim.now
                    if core.next_tick <= now + _EPS:
                        core.next_tick = now + self.cfg.timer_tick_us
                    slice_len = core.next_tick - now
                    if duration <= slice_len:
                        slice_len = duration
                    end = now + slice_len
                    left = duration - slice_len
                    if left <= _EPS and end + _EPS < core.next_tick and sim.run_ahead(end):
                        core.timeline.add(now, end, effect.kind)
                        thread.cpu_us += slice_len
                        core.quantum_used += slice_len
                        thread.compute_remaining = left if left > 0.0 else 0.0
                        thread.compute_kind = effect.kind
                        steps = 0
                        continue
                thread.compute_remaining = duration
                thread.compute_kind = effect.kind
                self._start_slice(core, thread)
                return False
            if cls is WaitFlag:
                if effect.flag.is_set:
                    continue
                thread.transition(ThreadState.BLOCKED)
                thread._blocked_since = sim.now
                core.current = None
                effect.flag.add_blocked(thread)
                return True
            if cls is WaitTEvent:
                if effect.event.triggered:
                    thread.pending_value = effect.event.value
                    continue
                thread.transition(ThreadState.BLOCKED)
                thread._blocked_since = sim.now
                core.current = None
                effect.event.add_blocked(thread)
                return True
            if cls is Sleep:
                thread.transition(ThreadState.SLEEPING)
                thread._blocked_since = sim.now
                core.current = None
                sim.schedule(effect.duration, self._sleep_done, thread)
                return True
            if cls is YieldNow:
                thread.transition(ThreadState.READY)
                core.current = None
                core.runqueue.push(thread)
                return True
            raise SchedulerError(
                f"thread {thread.name} yielded unsupported effect {effect!r}"
            )

    def _sleep_done(self, thread: MarcelThread) -> None:
        if thread.state == ThreadState.SLEEPING:
            self.wake(thread, None)

    def _finish_thread(self, core: CoreRuntime, thread: MarcelThread, result: Any) -> None:
        thread.result = result
        thread.transition(ThreadState.DONE)
        core.current = None
        if self.tracer is not None:
            self._trace("marcel.exit", core.name, thread.name)
        if thread.done_event is not None:
            thread.done_event.trigger(result)

    # ----------------------------------------------------------------- slices

    def _start_slice(self, core: CoreRuntime, thread: MarcelThread) -> None:
        now = self.sim.now
        if core.next_tick <= now + _EPS:
            core.next_tick = now + self.cfg.timer_tick_us
        # min(remaining, gap) and max(0.0, r) below are written as
        # comparisons that pick the same float, without a builtin call
        slice_len = core.next_tick - now
        if thread.compute_remaining <= slice_len:
            slice_len = thread.compute_remaining
        if slice_len <= _EPS:  # pragma: no cover - guarded above
            raise SchedulerError(f"{core.name}: empty compute slice")
        core.timeline.add(now, now + slice_len, thread.compute_kind)
        thread.cpu_us += slice_len
        core.quantum_used += slice_len
        if thread.compute_remaining - slice_len > _EPS and self._quiet(core, thread):
            # the slice ends on a tick that will do nothing: chain it
            core.chain_len = slice_len
            core.chain = self.sim.start_chain(
                now + slice_len, self._quiet_ticks, core, thread,
                end=now + thread.compute_remaining - 0.5 * self.cfg.timer_tick_us,
            )
            return
        self.sim.schedule(slice_len, self._slice_end, core, thread, slice_len)

    def _quiet(self, core: CoreRuntime, thread: MarcelThread) -> bool:
        """True when the ticks of ``thread``'s compute on ``core`` would do
        nothing (see "Tickless compute" in the module docstring)."""
        if thread.priority >= Priority.LOW or core.runqueue._count:
            return False
        return self.pioman is None or not self.pioman.tick_wants(core)

    def _quiet_ticks(
        self, core: CoreRuntime, thread: MarcelThread, stop: float
    ) -> tuple[int, Optional[float]]:
        """Chain batch: the slice end at ``now`` and the later ones before
        ``stop`` and before another chain's pending slice end (see
        "Tickless compute"). A tick that does nothing runs
        ``_slice_end``'s and ``_start_slice``'s arithmetic; the compute's
        last two slice ends come first in a batch, and the last goes
        through the ordinary ``_slice_end`` and ends the chain. Returns
        ``(boundaries passed, next slice end or None)``.

        A *steady* slice end — the core on its tick grid (``now ==
        next_tick``), more than ``tail`` of compute left beyond the next
        one — adds ``tick`` to ``now``/``next_tick``, ``cpu_us``,
        ``quantum_used`` and the timeline sum, takes it from
        ``compute_remaining``, and adds 1 to ``ticks``. When more than
        ``_JUMP_MIN_TICKS`` of them lie ahead, the loop passes k at once,
        bit for bit as it would step them, under this rule: the tick is
        integral and every value stays in (0, 2**52), so each value's ulp
        divides the tick; ``now + k * tick`` is exact, so every partial
        sum of ``now`` is, each slice is exactly ``tick`` and ``now`` stays
        on its grid (else k stops at the power of two above ``now``); and
        each of the k slice ends passes the loop's tests — before ``stop``
        and the next tie threshold, more than ``tail`` from the compute's
        end. ``cpu_us``, ``quantum_used`` and the timeline sum then take k
        additions of ``tick`` each, which :func:`_tick_sum` adds up exactly,
        replaying the additions that round. Everything else steps: the
        first and last slice ends, the one where ``now`` would round, a
        core off its grid, a fractional tick, a short batch.

        As on the ordinary path, ``max(0.0, r)`` and ``min(r, gap)`` are
        written as comparisons: ``r`` is past ``_EPS`` wherever it is
        used, and a comparison picks the same float."""
        slice_len = core.chain_len
        remaining = thread.compute_remaining - slice_len
        if remaining <= _EPS:
            core.chain = None
            self._slice_end(core, thread, slice_len)
            return 1, None
        now = self.sim.now
        tick = self.cfg.timer_tick_us
        next_tick = core.next_tick
        ticks = core.ticks
        cpu_us = thread.cpu_us
        quantum_used = core.quantum_used
        timeline = core.timeline
        kind = thread.compute_kind
        # the timeline sum the slices add to, one span at a time
        spent = timeline.busy_us if kind == "busy" else timeline.service_us
        # a slice is at most a tick; the half tick absorbs rounding
        tail = 1.5 * tick
        # other chains' pending times, read once the batch goes past its
        # first slice end: ``tie`` is the next one, less ``near``
        pending: Optional[list[float]] = None
        n = 0
        while True:
            n += 1
            if now + _EPS >= next_tick:
                ticks += 1
                while next_tick <= now + _EPS:
                    next_tick += tick
            # next_tick is past now here, so _start_slice's re-phase never applies
            slice_len = next_tick - now
            if remaining < slice_len:
                slice_len = remaining
            end = now + slice_len
            spent += end - now
            cpu_us += slice_len
            quantum_used += slice_len
            now = end
            if now >= stop:
                break
            left = remaining - slice_len
            if left <= tail:
                # the compute's last two slice ends come first in a batch:
                # the last acts, and passing the one before takes its seq
                break
            if pending is None:
                pending = self.sim.chain_times()
                # how far apart two tick grids can be and still meet before
                # this compute ends: they close in by an ulp a tick at most
                near = (left / tick + 2) * math.ulp(now + left)
                tie = -math.inf
                at = 0
                # a jump needs enough steady slice ends before stop and the
                # tail, and every value below _EXACT_TOP: they grow by at
                # most ``left`` in this batch
                jump_min = _JUMP_MIN_TICKS * tick
                may_jump = (
                    stop - now > jump_min and left - tail > jump_min and tick % 1.0 == 0.0
                    and now + left < _EXACT_TOP and spent + left < _EXACT_TOP
                    and cpu_us + left < _EXACT_TOP and quantum_used + left < _EXACT_TOP
                )
            if now >= tie:
                while at < len(pending) and pending[at] + near < now:
                    at += 1
                if at < len(pending) and pending[at] - near <= now:
                    break  # another chain's pending slice end: let it pass first
                tie = pending[at] - near if at < len(pending) else math.inf
            remaining = left
            if may_jump and now == next_tick:
                # the steady slice ends from now on, k at once: k from the
                # float bounds, cut to where ``now`` can step exactly, then
                # checked exactly
                span = stop - now
                if tie - now < span:
                    span = tie - now
                if remaining - tail < span:
                    span = remaining - tail
                if span > jump_min:
                    k = int(span / tick)
                    span = k * tick
                    total = now + span
                    if total - span != now or total - now != span:
                        # ``now`` would round on the way: go up to the
                        # power of two above it (as in _tick_sum)
                        k = int((math.ldexp(1.0, math.frexp(now)[1]) - now) / tick)
                        span = k * tick
                    while k and (
                        now + span >= stop or now + span >= tie or remaining - span <= tail
                    ):
                        k -= 1
                        span -= tick
                    if k:
                        n += k
                        ticks += k
                        now += span
                        next_tick = now
                        remaining -= span
                        spent = _tick_sum(spent, k, tick)
                        cpu_us = _tick_sum(cpu_us, k, tick)
                        quantum_used = _tick_sum(quantum_used, k, tick)
        thread.compute_remaining = remaining
        core.next_tick = next_tick
        core.ticks = ticks
        thread.cpu_us = cpu_us
        core.quantum_used = quantum_used
        if kind == "busy":
            timeline.busy_us = spent
        else:
            timeline.service_us = spent
        # the core's last interval is the compute's, ending where the batch
        # began (only the chain adds to a chained core's timeline): the
        # spans extend it, as ``CoreTimeline.add`` would
        intervals = timeline.intervals
        intervals[-1] = (intervals[-1][0], now, kind)
        core.chain_len = slice_len
        return n, now

    def _materialize(self, core: CoreRuntime) -> None:
        """Re-arm ticking on ``core``: its chain's pending boundary becomes
        the ordinary slice-end event, with the same kernel key."""
        self.sim.materialize(
            core.chain, self._slice_end, core, core.current, core.chain_len,
        )
        core.chain = None

    def resume_ticks(self) -> None:
        """Re-arm ticking on every core computing tickless. Call it when the
        engine's ``tick_wants`` may have turned true."""
        for core in self.cores:
            if core.chain is not None:
                self._materialize(core)

    def _slice_end(self, core: CoreRuntime, thread: MarcelThread, slice_len: float) -> None:
        remaining = thread.compute_remaining - slice_len
        thread.compute_remaining = remaining if remaining > 0.0 else 0.0
        now = self.sim.now
        if now + _EPS >= core.next_tick:
            # timer interrupt
            core.ticks += 1
            while core.next_tick <= now + _EPS:
                core.next_tick += self.cfg.timer_tick_us
            pioman = self.pioman
            cost = 0.0
            if pioman is not None:
                cost = pioman.on_tick(core)
                if pioman.detect_pending:
                    self.detections += 1
                    # the detection's context starts after the tick's poll
                    cost += pioman.run_detection(core, cost)
            if cost > 0:
                core.timeline.add(now, now + cost, "service")
                self.sim.schedule(cost, self._after_tick, core, thread)
                return
        self._after_tick(core, thread)

    def _after_tick(self, core: CoreRuntime, thread: MarcelThread) -> None:
        # preemption check at the safe point
        best = core.runqueue.peek_priority() if core.runqueue._count else None
        if best is not None:
            higher = best < thread.priority
            quantum_out = (
                best <= thread.priority and core.quantum_used + _EPS >= self.cfg.quantum_us
            )
            if higher or quantum_out:
                thread.transition(ThreadState.READY)
                core.current = None
                core.preemptions += 1
                if self.tracer is not None:
                    self._trace("marcel.preempt", core.name, thread.name)
                if higher:
                    core.runqueue.push_front(thread)
                else:
                    core.runqueue.push(thread)
                self._dispatch(core)
                return
        if thread.compute_remaining > _EPS:
            self._start_slice(core, thread)
            return
        if self._step_thread(core):
            self._dispatch(core)

    # ------------------------------------------------------------------- idle

    def _enter_idle(self, core: CoreRuntime) -> None:
        total, repoll = (0.0, None) if self.pioman is None else self.pioman.on_idle(core)
        sim = self.sim
        if total > 0:
            core.timeline.add(sim.now, sim.now + total, "service")
            sim.schedule(total, self._dispatch, core)
            return
        core.idle_since = sim.now
        if repoll is not None and repoll > 0:
            core.control = CoreRuntime.IDLE_WAIT
            # the one cancellable event: a wake cancels the repoll
            core.repoll_handle = sim.timer(sim.now + repoll, self._dispatch, core)
        else:
            core.control = CoreRuntime.PARKED
            if self.tracer is not None:
                self._trace("marcel.park", core.name, "")

    # ------------------------------------------------------------- accounting

    def _trace(self, category: str, where: str, label: str, **data: Any) -> None:
        # callers test `self.tracer is not None` first: untraced runs make
        # no trace call at all
        self.tracer.record(self.sim.now, category, where, label, **data)

    def _liveness_probe(self) -> Iterable[str]:
        return [
            f"{self.node.name}:{t.name}({t.state})"
            for t in self.threads
            if not t.done
        ]

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, Any]:
        """Aggregate scheduler statistics for reports and tests."""
        # lists, not generators: the builtins.sum frame every layer shares
        # then calls nothing back here, so profiles attribute it stably
        cores = self.cores
        return {
            "threads": len(self.threads),
            "switches": sum([c.switches for c in cores]),
            "preemptions": sum([c.preemptions for c in cores]),
            "ticks": sum([c.ticks for c in cores]),
            "steals": sum([c.steals for c in cores]),
            # the key keeps the name e2e reports read
            "tasklets_run": self.detections,
            "busy_us": sum([c.timeline.busy_us for c in cores]),
            "service_us": sum([c.timeline.service_us for c in cores]),
            "idle_us": sum([c.timeline.idle_us for c in cores]),
        }
