"""The PIOMan progression engine.

This class is the paper's contribution wired together:

* ``isend``/``irecv`` only *register* the request and generate an event
  (Fig. 1, right side) — they return in sub-microsecond time;
* Marcel **triggers** drive progression: the scheduler holds one
  ``pioman`` reference and calls the engine directly (§3.1: "CPU
  idleness, context switches, timer interrupts"). The *idle* trigger
  (:meth:`PiomanEngine.on_idle`) runs full progression (submissions +
  handshakes + completion polling) on cores with nothing better to do;
  the *timer-tick* (:meth:`PiomanEngine.on_tick`) and *context-switch*
  (:meth:`PiomanEngine.on_switch`) triggers run cheap completion
  detection so busy nodes stay reactive;
* waking an idle core to execute an offloaded event costs
  ``tasklet_remote_us`` (the ≈2 µs inter-CPU overhead measured in §4.1);
* ``wait`` first drives any immediately-available work inline ("the
  message is sent inside the wait function" when every core was busy),
  then blocks on the request's completion event. The detection method
  is chosen there (§3.2): "if a CPU is idle … PIOMAN can actively poll
  the network … When no CPU is idle, PIOMAN is obviously less intrusive
  and uses a blocking call on a specialized kernel thread". A blocking
  watch is woken by the NIC interrupt ``interrupt_us`` after the
  hardware event; the kernel detection is then due (``detect_pending``)
  and runs at the next safe point of any core (a dispatch, or a tick).
  Requests detected by polling never arm one;
* the offload mode (§5 future work: "an adaptive strategy to choose
  whether to offload communication or not") decides per ``isend``:
  ``"always"`` is the paper's evaluated behaviour, ``"never"`` submits
  inline on the sending thread (event-granular locking retained, so this
  is *not* the sequential baseline), and ``"adaptive"`` offloads only
  when an idle core exists now and the copy costs at least the
  inter-CPU dispatch it would pay for. ``benchmarks/bench_ablation_adaptive.py``
  compares the three across message sizes.
"""

from __future__ import annotations

from ..marcel.effects import Compute, WaitTEvent
from ..marcel.scheduler import CoreRuntime, MarcelScheduler
from ..marcel.thread import Priority
from ..nmad.core import NmSession
from ..nmad.drivers.base import ExecContext
from ..nmad.progress import EngineBase
from ..nmad.request import NmRequest

__all__ = ["PiomanEngine"]


class PiomanEngine(EngineBase):
    """Event-driven multithreaded progression engine."""

    name = "pioman"

    def __init__(self, session: NmSession, offload_policy: str = "always") -> None:
        super().__init__(session)
        self.scheduler: MarcelScheduler = session.scheduler
        self.cfg = self.timing.pioman
        #: §5 future work: "always", "never" or "adaptive"
        self.offload_policy = offload_policy
        self._kick_enabled = True
        #: request ids watched by the blocking detection method
        self._armed: set[int] = set()
        self._interrupt_scheduled = False
        #: the kernel detection is due: the next safe point of any core
        #: runs it (:meth:`run_detection`)
        self.detect_pending = False
        session.on_request_complete.append(self._on_complete)
        # Marcel triggers (§3.1): the newest engine replaces any earlier one
        self.scheduler.pioman = self
        #: per-core virtual time at which a paid tasklet dispatch lands
        self._dispatch_due: dict[int, float | None] = {
            c.index: None for c in self.scheduler.cores
        }
        #: registered progression hooks (e.g. one per communicator's nbc
        #: progressor): consulted by the idle trigger *before* the generic
        #: session queue, so idle cores prefer advancing structured work
        #: (outstanding collective schedules) over FIFO op draining. A hook
        #: takes the execution context and returns True when it ran work.
        self._progress_hooks: list = []
        # statistics
        self.idle_activations = 0
        self.tick_activations = 0
        self.switch_activations = 0
        self.kicks = 0
        self.offloaded_ops = 0
        self.offloads = 0
        self.inlines = 0
        self.poll_choices = 0
        self.block_choices = 0
        self.blocking_waits = 0
        self.interrupts_taken = 0

    # ------------------------------------------------------------------ events

    def notify_ops(self) -> None:
        """An op was enqueued (e.g. a deferred submission): give it to an
        idle core if one exists."""
        if not self._kick_enabled:
            return
        self.kicks += 1
        self.scheduler.kick_idle()

    def notify_activity(self) -> None:
        """Hardware context: a completion was produced somewhere, or a
        retransmit timer queued recovery work while every core may be
        blocked."""
        # the tick trigger wants the next tick of every computing core
        self.scheduler.resume_ticks()
        if not self.scheduler.kick_idle():
            # every core is busy: the blocking method (if armed) takes over;
            # otherwise the timer-tick trigger will detect the completion.
            self._interrupt()

    def register_progress_hook(self, hook) -> None:
        """Register a progression hook: ``hook(ctx) -> bool``.

        Called from the idle trigger (and the low-priority tick path)
        before generic op draining; must run at most one bounded unit of
        work per call and return whether it did anything.
        """
        if hook not in self._progress_hooks:
            self._progress_hooks.append(hook)

    def unregister_progress_hook(self, hook) -> None:
        """Remove a registered progression hook; idempotent."""
        if hook in self._progress_hooks:
            self._progress_hooks.remove(hook)

    def _run_progress_hooks(self, ctx) -> bool:
        """Offer the context to each registered hook; True if one ran work."""
        for hook in self._progress_hooks:
            if hook(ctx):
                return True
        return False

    def close(self) -> None:
        """Detach from the scheduler (if it still points here) and drop the
        completion listener; armed watches are abandoned (idempotent)."""
        super().close()
        self._progress_hooks.clear()
        if self.scheduler.pioman is self:
            self.scheduler.pioman = None
        try:
            self.session.on_request_complete.remove(self._on_complete)
        except ValueError:
            pass
        self._armed.clear()

    # ------------------------------------------------------------------ triggers

    def on_idle(self, core: CoreRuntime) -> tuple[float, float | None]:
        """Full progression on an idle core (the offloading path, §2.2).
        Returns ``(cpu_us, repoll_delay)``: CPU consumed now, and an
        optional delay after which the core should call again even
        without a wake.

        Executing a steered event on another CPU first pays the inter-CPU
        signalling + tasklet dispatch (§4.1's measured ≈2 µs): the first
        activation after a kick only charges that cost, and the ops run at
        the *next* activation, 2 µs of virtual time later — precisely the
        window in which a burst of isends accumulates for the aggregation
        strategy to coalesce.
        """
        session = self.session
        # session.has_pending_ops() and has_work(), inlined
        pending_ops = session.ops or session.windowed_gates
        if not pending_ops and not any(session.hw_cqs):
            self._dispatch_due[core.index] = None
            return 0.0, None
        self.idle_activations += 1
        due = self._dispatch_due[core.index]
        if pending_ops and (due is None or self.sim.now + 1e-9 < due):
            cost = self.timing.host.spinlock_us + self.timing.host.tasklet_remote_us
            self._dispatch_due[core.index] = self.sim.now + cost
            self.offloaded_ops += 1
            return cost, 0.0
        self._dispatch_due[core.index] = None
        ctx = self._core_ctx(core.index)
        #: marks work executed here as stolen by an idle core (nbc metrics)
        ctx.idle_steal = True
        ctx.cpu_us += self.timing.host.spinlock_us
        # one op per activation (§2.1: "each event is run under mutual
        # exclusion … the messages are submitted once at a time") — other
        # cores and threads reaching their wait can interleave between
        # events instead of one core hogging a whole burst; registered
        # progression hooks (outstanding collective schedules) get first
        # claim on the idle cycles
        if not self._run_progress_hooks(ctx):
            session.progress(ctx, max_ops=1)
        if session.ops or session.windowed_gates:
            # more deferred events: invite another idle core to share them
            self.sim.call_soon(self.scheduler.kick_idle)
            return ctx.cpu_us, 0.0
        return ctx.cpu_us, 0.0 if any(session.hw_cqs) else None

    def on_tick(self, core: CoreRuntime) -> float:
        """Timer-interrupt trigger; returns the CPU it consumed.

        On cores running normal application threads this is cheap
        completion detection only. §2.2 additionally allows full event
        processing when the CPU is "idle **or running a low priority
        thread**" — so on LOW/IDLE-priority threads the tick also executes
        one deferred op (the offload steals cycles the application marked
        as expendable).
        """
        cost = 0.0
        current = core.current
        low_prio = current is not None and current.priority >= Priority.LOW
        if low_prio and (self.session.ops or self.session.windowed_gates):
            ctx = self._core_ctx(core.index)
            ctx.idle_steal = True
            ctx.cpu_us += self.timing.host.spinlock_us + self.timing.host.tasklet_local_us
            if not self._run_progress_hooks(ctx):
                self.session.progress(ctx, max_ops=1, poll=False)
            cost += ctx.cpu_us
        if any(self.session.hw_cqs):
            self.tick_activations += 1
            ctx = self._core_ctx(core.index)
            ctx.cpu_us += self.timing.host.spinlock_us
            self.session.poll_completions(ctx)
            cost += ctx.cpu_us
        return cost

    def tick_wants(self, core: CoreRuntime) -> bool:
        """Whether a tick on ``core`` would find anything to do: a due
        kernel detection, or completions. LOW-priority threads, whose ticks
        also run deferred ops, never compute tickless. Both surface through
        calls that re-arm the ticks (:meth:`notify_activity`,
        :meth:`_fire_detection`)."""
        return self.detect_pending or any(self.session.hw_cqs)

    def on_switch(self, core: CoreRuntime) -> float:
        """Cheap completion detection at context switches; returns the CPU
        it consumed."""
        if not any(self.session.hw_cqs):
            return 0.0
        self.switch_activations += 1
        ctx = self._core_ctx(core.index)
        ctx.cpu_us += self.timing.host.spinlock_us
        self.session.poll_completions(ctx)
        return ctx.cpu_us

    def _core_ctx(self, core_index: int) -> ExecContext:
        return ExecContext(self.sim, core_index, self.sim.now)

    # ------------------------------------------------------- blocking detection

    def _blocks(self, idle_after: int) -> bool:
        """The detection rule (§3.2): block iff blocking calls are allowed
        and no core will idle once the caller blocks (``idle_after`` is
        the idle-core count then). Counts the choice."""
        if self.cfg.allow_blocking_calls and idle_after == 0:
            self.block_choices += 1
            return True
        self.poll_choices += 1
        return False

    def _arm(self, req: NmRequest) -> None:
        """Watch ``req`` with the blocking method until it completes."""
        if req.req_id not in self._armed:
            self._armed.add(req.req_id)
            req.blocking_watch = True
            self.blocking_waits += 1

    def _on_complete(self, req: NmRequest) -> None:
        self._armed.discard(req.req_id)
        req.blocking_watch = False

    def _interrupt(self) -> None:
        """Hardware produced a completion while every core is busy: if
        blocking watches are armed, the kernel thread unblocks after the
        interrupt cost, and the detection falls due."""
        if not self._armed or self._interrupt_scheduled:
            return
        self._interrupt_scheduled = True
        self.interrupts_taken += 1
        self.sim.schedule(self.timing.nic.interrupt_us, self._fire_detection)

    def _fire_detection(self) -> None:
        """The kernel thread unblocked: the detection is due at the next
        safe point of any core, so every computing core ticks again and a
        core that is not active, if any, wakes for it. A detection already
        due absorbs this one."""
        self._interrupt_scheduled = False
        if not self.detect_pending:
            self.detect_pending = True
            self.scheduler.resume_ticks()
            self.scheduler.kick_idle()

    def run_detection(self, core: CoreRuntime, after: float) -> float:
        """Run the due detection on ``core`` at a safe point: consume
        completions on behalf of blocked waiters. Returns the CPU it took,
        the local dispatch included. ``after`` is the CPU the safe point
        already charged on this core (a tick's poll): the context starts
        at ``now`` plus that charge plus the dispatch."""
        self.detect_pending = False
        dispatch = self.timing.host.tasklet_local_us
        ctx = ExecContext(self.sim, core.index, self.sim.now + after + dispatch)
        ctx.charge(self.timing.host.syscall_us)
        self.session.progress(ctx, max_ops=self.cfg.max_events_per_activation)
        return dispatch + ctx.cpu_us

    # ------------------------------------------------------------------ API

    def _offload(self, size: int) -> bool:
        """Whether an ``isend`` of ``size`` bytes defers its submission to
        an idle core, by the offload mode (see the module docstring)."""
        if self.offload_policy == "always":
            return True
        if self.offload_policy == "never":
            return False
        # adaptive: never defer when every core is busy (the submission
        # would only run inside ``wait`` anyway), nor when the copy is
        # cheaper than the dispatch
        return self.scheduler.idle_core_count() > 0 and (
            self.timing.host.memcpy_us(size) >= self.timing.host.tasklet_remote_us
        )

    def isend(self, tctx, peer, tag, size, payload=None, buffer_id=None):
        """Register the request and generate an event — nothing else.

        Fig. 1 (right): "(a) request registration, (b) event creation";
        the network submission "(b')" happens wherever PIOMan places it.

        Outside the ``"always"`` mode, a submission judged not worth the
        inter-CPU dispatch runs inline right here — still under
        event-granular locking, never under a big lock.
        """
        yield Compute(self.timing.host.request_post_us, kind="service", label="piom.post_send")
        req = self.session.make_send(
            peer, tag, size, payload, buffer_id, producer_core=tctx.thread.core_index
        )
        if self._offload(size):
            self.offloads += 1
            self.session.post_send(req)
            return req
        self.inlines += 1
        # inline submission: suppress the idle-core kick, then drain the
        # freshly queued op(s) on this thread
        self._kick_enabled = False
        try:
            self.session.post_send(req)
        finally:
            self._kick_enabled = True
        session = self.session
        # session.has_pending_ops(), inlined
        while session.ops or session.windowed_gates:
            ctx = self._exec_ctx(tctx)
            ctx.cpu_us += self.timing.host.spinlock_us
            session.progress(ctx, poll=False)
            if ctx.cpu_us > 0:
                yield self._service(ctx, "piom.inline_submit")
        return req

    def irecv(self, tctx, source, tag, size, buffer_id=None):
        yield Compute(self.timing.host.request_post_us, kind="service", label="piom.post_recv")
        req = self.session.make_recv(source, tag, size, buffer_id)
        self.session.post_recv(req)
        return req

    # inline progression is EngineBase._progress_step: pioman only renames
    # the service label and caps events per pass
    step_label = "piom.step"

    def _progress_max_ops(self):
        return self.cfg.max_events_per_activation

    def wait(self, tctx, req):
        session = self.session
        while not req.done:
            # session.has_work(), inlined
            if session.ops or session.windowed_gates or any(session.hw_cqs):
                # every CPU was busy: the communicating thread itself makes
                # the communication progress inside the wait (§2.2 end) —
                # one event per pass, so concurrent waiters share the burst
                ctx = self._exec_ctx(tctx)
                ctx.cpu_us += self.timing.host.spinlock_us
                self.session.progress(ctx, max_ops=1)
                if ctx.cpu_us > 0:
                    yield self._service(ctx, "piom.wait")
                continue
            event = self.session.completion_event(req)
            if event.triggered:
                break
            # blocked from here on: my core becomes available — count it
            if self._blocks(self.scheduler.idle_core_count(leaving=tctx.thread)):
                self._arm(req)
            yield WaitTEvent(event)
        return req
