"""Progression engines.

:class:`EngineBase` defines the engine interface used by
:class:`repro.nmad.interface.NmInterface`; all engine entry points are
generators executed on the calling Marcel thread (so they can charge CPU
and block).

:class:`SequentialEngine` reproduces the **original non-multithreaded
NewMadeleine** of the paper's evaluation: every communication operation is
processed *sequentially by the communicating thread* (§2: "if the
application performs a non-blocking send, the communication processing …
is done sequentially by the communicating thread"), thread-safety comes
from one **library-wide mutex** (§2.1), and nothing progresses unless an
application thread is inside a library call. Its measured behaviour is
``sum(communication, computation)`` — no overlap.

The multithreaded engine of the paper lives in
:class:`repro.pioman.engine.PiomanEngine`.

The session polls its rails' hardware completion queues and dispatches
each record straight into its protocol engines. Finished requests are not
queued anywhere: the session announces each one to its
``on_request_complete`` listeners.

Engines hear about session events through :class:`EngineBase`'s
notification methods (:meth:`EngineBase.notify_ops`, and
``notify_activity`` where an engine defines it), which the session calls
on its one ``engine`` reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import RequestError
from ..marcel.effects import Compute, WaitFlag
from ..marcel.sync import ThreadMutex
from ..marcel.thread import ThreadContext
from .drivers.base import ExecContext
from .request import NmRequest
from .unexpected import ProbeInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle: core imports the engines
    from .core import NmSession

__all__ = ["EngineBase", "SequentialEngine"]


# ------------------------------------------------------------------ engines


class EngineBase:
    """Engine interface: isend/irecv/wait as thread generators."""

    name = "base"

    def __init__(self, session: "NmSession") -> None:
        self.session = session
        self.sim = session.sim
        self.timing = session.timing
        # the session notifies exactly one engine: the newest replaces any
        # earlier (closed) one
        session.engine = self

    # -- helpers ---------------------------------------------------------------

    def _exec_ctx(self, tctx: ThreadContext) -> ExecContext:
        """Execution context for inline progression on the calling thread."""
        return ExecContext(self.sim, tctx.thread.core_index, self.sim.now)

    @staticmethod
    def _service(ctx: ExecContext, label: str) -> Compute:
        return Compute(ctx.cpu_us, kind="service", label=label)

    # -- session notifications (hardware/timer context; must not block) -------

    def notify_ops(self) -> None:
        """Deferred work was queued (an op, or an aggregation window)."""

    #: called when a driver produced a completion, or a retransmit timer
    #: queued recovery work, after the session set its activity flag. An
    #: engine with detection paths to re-arm defines it as a method; None
    #: (here) lets the session skip the call on every completion.
    notify_activity: Optional[Callable[[], None]] = None

    def close(self) -> None:
        """Stop taking session notifications; idempotent.

        Engines can be rebuilt on a live session (harness reuse, engine
        comparison runs): constructing the new engine points the session
        at it. Subclasses that register scheduler hooks override this,
        call it, and detach them too — otherwise the stale engine keeps
        reacting to scheduler triggers (double polling, double statistics).
        """
        if self.session.engine is self:
            self.session.engine = None

    # -- engine API --------------------------------------------------------------

    def isend(
        self,
        tctx: ThreadContext,
        peer: int,
        tag: int,
        size: int,
        payload: Any = None,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        raise NotImplementedError
        yield  # pragma: no cover

    def irecv(
        self,
        tctx: ThreadContext,
        source: int,
        tag: int,
        size: int,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        raise NotImplementedError
        yield  # pragma: no cover

    def wait(self, tctx: ThreadContext, req: NmRequest) -> Generator[Any, Any, NmRequest]:
        raise NotImplementedError
        yield  # pragma: no cover

    #: trace label charged for the default inline-progression service time
    step_label = "nm.step"

    def _progress_max_ops(self) -> "int | None":
        """Events-per-pass cap for :meth:`_progress_step`; None = no cap."""
        return None

    def _progress_step(self, tctx: ThreadContext) -> Generator[Any, Any, bool]:
        """One inline progression pass; True if work ran.

        Default behaviour (used as-is by :class:`PiomanEngine`, which only
        customises :attr:`step_label` and :meth:`_progress_max_ops`): skip
        quickly when the session is quiet, otherwise take the per-event
        locks — charged as one spinlock acquisition — and run up to
        ``_progress_max_ops()`` events. :class:`SequentialEngine` overrides
        this wholesale with its big-lock variant, which always polls (and
        pays) even when no work is queued.
        """
        session = self.session
        # session.has_work(), inlined
        if not (session.ops or session.windowed_gates or any(session.hw_cqs)):
            return False
        ctx = self._exec_ctx(tctx)
        ctx.cpu_us += self.timing.host.spinlock_us
        did = session.progress(ctx, max_ops=self._progress_max_ops())
        if ctx.cpu_us > 0:
            yield self._service(ctx, self.step_label)
        return did

    # -- shared multi-request / probing operations ---------------------------------

    def wait_any(
        self, tctx: ThreadContext, reqs: list[NmRequest]
    ) -> Generator[Any, Any, tuple[int, NmRequest]]:
        """Block until at least one request completes; returns (index, req).

        Works identically for both engines: inline progression while there
        is work, then sleep on the session activity flag (every completion
        sets it).

        Completion tracking rides an ``on_request_complete`` listener: one
        upfront scan records requests that were already done, after which
        only *newly completed* requests are inspected — O(n + completions)
        request inspections per call instead of the old O(n × passes) full
        rescan. Among simultaneously completed requests the lowest index
        wins, exactly as the rescan behaved.
        """
        if not reqs:
            raise RequestError("wait_any needs at least one request")
        flag = self.session.activity_flag
        index_of: dict[int, int] = {}
        for i, req in enumerate(reqs):
            index_of.setdefault(id(req), i)
        done_idx = {i for i, req in enumerate(reqs) if req.done}

        def note_completion(req: NmRequest) -> None:
            idx = index_of.get(id(req))
            if idx is not None:
                done_idx.add(idx)

        listeners = self.session.on_request_complete
        listeners.append(note_completion)
        try:
            while True:
                if done_idx:
                    i = min(done_idx)
                    return i, reqs[i]
                did = yield from self._progress_step(tctx)
                if did:
                    continue
                flag.clear()
                # completions can land while the pass yields (lock waits,
                # service charges): the listener has recorded them already
                if self.session.has_work() or done_idx:
                    continue
                yield WaitFlag(flag)
        finally:
            listeners.remove(note_completion)

    def drain(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        """Quiesce the session: progress until no local work is queued and
        the recovery layer (if on) holds no unacknowledged packets — the
        MPI_Finalize contract. Thread bodies on a faulty fabric should end
        with this, or their node stops retransmitting/acknowledging the
        moment the thread exits and peers are left to the give-up path.
        """
        rel = self.session.reliability
        flag = self.session.activity_flag
        while self.session.has_work() or (rel is not None and rel.pending_count() > 0):
            did = yield from self._progress_step(tctx)
            if did:
                continue
            flag.clear()
            if self.session.has_work():
                continue
            if rel is None or rel.pending_count() == 0:
                break
            # unacked packets but a quiet wire: sleep until an ACK arrives
            # or a retransmit timer queues work (both set the flag)
            yield WaitFlag(flag)

    def iprobe(
        self, tctx: ThreadContext, source: int, tag: int
    ) -> Generator[Any, Any, "ProbeInfo | None"]:
        """Non-blocking probe: one progression step, then check the
        unexpected store. Returns a :class:`ProbeInfo` or None."""
        yield from self._progress_step(tctx)
        return self.session.probe_unexpected(source, tag)

    def probe(
        self, tctx: ThreadContext, source: int, tag: int
    ) -> Generator[Any, Any, "ProbeInfo"]:
        """Blocking probe: progress/sleep until a matching message is
        pending (MPI_Probe)."""
        flag = self.session.activity_flag
        while True:
            found = self.session.probe_unexpected(source, tag)
            if found is not None:
                return found
            did = yield from self._progress_step(tctx)
            if did:
                continue
            flag.clear()
            if self.session.has_work():
                continue
            found = self.session.probe_unexpected(source, tag)
            if found is not None:
                return found
            yield WaitFlag(flag)


class SequentialEngine(EngineBase):
    """The non-multithreaded baseline NewMadeleine."""

    name = "sequential"

    def __init__(self, session: "NmSession") -> None:
        super().__init__(session)
        #: §2.1: "a library-wide scope mutex" is how classical MPI
        #: implementations achieve thread-safety
        self.big_lock = ThreadMutex(session.scheduler, name=f"n{session.node_index}.nm.biglock")

    # -- inline progression -------------------------------------------------------

    def _drain_ops_inline(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        """Run every queued op *now*, on the calling thread, charging it.

        This is the paper's baseline behaviour: "the packet is actually
        submitted to the network by the application thread itself. Thus
        even a non-blocking send may take several dozens of microseconds
        to return."
        """
        session = self.session
        # session.has_pending_ops(), inlined
        while session.ops or session.windowed_gates:
            ctx = self._exec_ctx(tctx)
            session.progress(ctx, poll=False)
            if ctx.cpu_us > 0:
                yield self._service(ctx, "nm.inline")

    def _progress_step(self, tctx: ThreadContext) -> Generator[Any, Any, bool]:
        """One locked progression pass on the calling thread."""
        yield from self.big_lock.acquire()
        try:
            ctx = self._exec_ctx(tctx)
            did = self.session.progress(ctx)
            if ctx.cpu_us > 0:
                yield self._service(ctx, "nm.step")
        finally:
            self.big_lock.release()
        return did

    # -- API ----------------------------------------------------------------------

    def isend(
        self,
        tctx: ThreadContext,
        peer: int,
        tag: int,
        size: int,
        payload: Any = None,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        yield from self.big_lock.acquire()
        try:
            yield Compute(self.timing.host.request_post_us, kind="service", label="post_send")
            req = self.session.make_send(
                peer, tag, size, payload, buffer_id, producer_core=tctx.thread.core_index
            )
            self.session.post_send(req)
            yield from self._drain_ops_inline(tctx)
        finally:
            self.big_lock.release()
        return req

    def irecv(
        self,
        tctx: ThreadContext,
        source: int,
        tag: int,
        size: int,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        yield from self.big_lock.acquire()
        try:
            yield Compute(self.timing.host.request_post_us, kind="service", label="post_recv")
            req = self.session.make_recv(source, tag, size, buffer_id)
            self.session.post_recv(req)
            yield from self._drain_ops_inline(tctx)
        finally:
            self.big_lock.release()
        return req

    def wait(self, tctx: ThreadContext, req: NmRequest) -> Generator[Any, Any, NmRequest]:
        """Poll-and-block loop on the application thread.

        Progress is driven exclusively here (and in isend/irecv): if the
        wire is quiet the thread blocks on the session activity flag —
        functionally equivalent to the baseline's busy-poll inside the
        wait, but without flooding the event queue.
        """
        session = self.session
        flag = session.activity_flag
        while not req.done:
            yield from self.big_lock.acquire()
            try:
                ctx = self._exec_ctx(tctx)
                session.progress(ctx)
                if ctx.cpu_us > 0:
                    yield self._service(ctx, "nm.wait")
            finally:
                self.big_lock.release()
            if req.done:
                break
            # session.has_work(), inlined
            if session.ops or session.windowed_gates or any(session.hw_cqs):
                continue
            flag.clear()
            if session.ops or session.windowed_gates or any(session.hw_cqs) or req.done:
                continue
            yield WaitFlag(flag)
        return req
