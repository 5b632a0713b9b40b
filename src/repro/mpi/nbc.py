"""Nonblocking collectives: schedules of point-to-point steps, advanced
by the progression engine instead of the calling thread.

The blocking collectives in :mod:`repro.mpi.collectives` interleave
communication and the calling thread's control flow, so nothing overlaps:
the thread is parked inside the collective until it finishes. This module
compiles the *same algorithms* (dissemination barrier, binomial
bcast/reduce, ring allgather) into a :class:`Schedule` — a small DAG of
send/recv/local-fold steps grouped into **rounds** — and hands it to the
per-communicator :class:`NbcProgressor`, which advances it incrementally:

* ``i*`` entry points only *register* the schedule (sub-microsecond, like
  nmad's isend) and return an :class:`NbcRequest` that interoperates with
  ``test``/``wait``/``waitany``;
* each round's sends/recvs are posted through the session; an
  ``on_request_complete`` listener observes every step completion and
  queues an *advance* action when the round drains;
* advance actions ride the session's deferred-op queue, the one queue
  both engines drain: under PIOMan idle cores run folds and post the next
  round while the application thread computes — the paper's
  "communication progress for free" story lifted to collectives — one
  action per idle activation, like any other event. Under the
  sequential baseline the same actions drain inside whichever library call
  the thread makes next, reproducing its no-overlap behaviour.

Schedule builders are pure functions of ``(rank, size, root, tag, value)``
so tests can check, without running the simulator, that a schedule's steps
partition the blocking algorithm's message set exactly.

Progress guarantees and the tag layout are documented in ``docs/nbc.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..marcel.effects import Compute
from ..marcel.thread import ThreadContext
from ..nmad.drivers.base import ExecContext
from ..nmad.request import NmRequest
from ..nmad.tags import ANY
from .collectives import _binomial_children
from .comm import Communicator, MpiRequest, ReduceOp, payload_nbytes

__all__ = [
    "SendStep",
    "RecvStep",
    "FoldStep",
    "Schedule",
    "NbcRequest",
    "NbcProgressor",
    "barrier_schedule",
    "bcast_schedule",
    "reduce_schedule",
    "allreduce_schedule",
    "allgather_schedule",
]

#: a local fold: mutates the schedule's state dict (runs off-thread, so it
#: must only touch schedule state, never the application thread's frame)
FoldFn = Callable[[dict[str, Any]], None]

#: posted-receive size bound (collective payloads are arbitrary objects)
_RECV_MAXSIZE = 1 << 30


# ------------------------------------------------------------------ schedule


@dataclass(frozen=True)
class SendStep:
    """Send the current value of ``slot`` (None slot → empty message)."""

    peer: int
    tag: int
    slot: Optional[str] = None


@dataclass(frozen=True)
class RecvStep:
    """Receive from ``peer`` into ``slot``."""

    peer: int
    tag: int
    slot: str


@dataclass(frozen=True)
class FoldStep:
    """Local computation over the state dict; ``cost_bytes`` prices it as a
    memory-bandwidth-bound fold when charged to an execution context."""

    fn: FoldFn
    cost_bytes: int = 0


class _Round:
    """One round: its communication steps plus the folds run after they
    all complete. Rounds are *local* barriers — a rank only orders its own
    steps; cross-rank ordering comes from the message dependencies."""

    __slots__ = ("ops", "folds")

    def __init__(self) -> None:
        self.ops: list[SendStep | RecvStep] = []
        self.folds: list[FoldStep] = []


class Schedule:
    """A compiled collective for one rank: rounds of steps over a state dict.

    ``state`` holds named slots; recv steps write their payload into a
    slot, send steps read one, folds combine them. ``result_slot`` names
    the slot returned by ``wait`` (None → the collective returns None,
    e.g. barrier, or a non-root reduce).
    """

    def __init__(
        self,
        name: str,
        rank: int,
        size: int,
        tag: int,
        result_slot: Optional[str] = None,
    ) -> None:
        self.name = name
        self.rank = rank
        self.size = size
        #: base tag of this collective's block (also the proxy request's tag)
        self.tag = tag
        self.result_slot = result_slot
        self.state: dict[str, Any] = {}
        self.rounds: list[_Round] = []

    @property
    def nrounds(self) -> int:
        return len(self.rounds)

    def _round(self, idx: int) -> _Round:
        while len(self.rounds) <= idx:
            self.rounds.append(_Round())
        return self.rounds[idx]

    def add_send(self, rnd: int, peer: int, tag: int, slot: Optional[str] = None) -> None:
        self._round(rnd).ops.append(SendStep(peer, tag, slot))

    def add_recv(self, rnd: int, peer: int, tag: int, slot: str) -> None:
        self._round(rnd).ops.append(RecvStep(peer, tag, slot))

    def add_fold(self, rnd: int, fn: FoldFn, cost_bytes: int = 0) -> None:
        self._round(rnd).folds.append(FoldStep(fn, cost_bytes))

    def result(self) -> Any:
        return None if self.result_slot is None else self.state.get(self.result_slot)

    def comm_steps(self) -> list[tuple[str, int, int]]:
        """Flat ``(kind, peer, tag)`` list of every wire step — the
        property tests compare this against the blocking algorithm's
        message set."""
        out: list[tuple[str, int, int]] = []
        for rnd in self.rounds:
            for step in rnd.ops:
                kind = "send" if isinstance(step, SendStep) else "recv"
                out.append((kind, step.peer, step.tag))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Schedule {self.name} rank={self.rank}/{self.size} "
            f"rounds={self.nrounds} tag={self.tag}>"
        )


# ------------------------------------------------------------------ builders


def barrier_schedule(rank: int, size: int, tag: int) -> Schedule:
    """Dissemination barrier: round r exchanges with ranks ±2**r."""
    s = Schedule("ibarrier", rank, size, tag)
    distance = 1
    rnd = 0
    while distance < size:
        s.add_send(rnd, (rank + distance) % size, tag + rnd)
        s.add_recv(rnd, (rank - distance) % size, tag + rnd, slot=f"_rx{rnd}")
        distance *= 2
        rnd += 1
    return s


def bcast_schedule(rank: int, size: int, root: int, tag: int, value: Any) -> Schedule:
    """Binomial broadcast. Non-root ranks pass ``value=None``; the recv
    step fills the ``data`` slot before any child send reads it (the recv
    round strictly precedes every send round by the mask ordering)."""
    s = Schedule("ibcast", rank, size, tag, result_slot="data")
    s.state["data"] = value
    if size == 1:
        return s
    nrounds = (size - 1).bit_length()  # ceil(log2(size))
    parent, children = _binomial_children(rank, root, size)
    rel = (rank - root) % size
    if rel != 0:
        assert parent is not None
        lsb = rel & -rel
        # the parent clears our lowest set bit: it contacts us in the round
        # where that bit is the sender's current mask
        s.add_recv(nrounds - lsb.bit_length(), parent, tag, slot="data")
    for child in children:
        mask = ((child - root) % size) ^ rel
        s.add_send(nrounds - mask.bit_length(), child, tag, slot="data")
    return s


def reduce_schedule(
    rank: int, size: int, root: int, tag: int, value: Any, op: Optional[ReduceOp]
) -> Schedule:
    """Binomial reduce (mirror of the bcast tree): receive each child's
    partial in the round matching its mask, fold it into ``acc``, then
    forward ``acc`` to the parent. ``op`` must be commutative — children
    fold in ascending-mask order, not rank order."""
    import operator

    op = op or operator.add
    s = Schedule(
        "ireduce", rank, size, tag, result_slot="acc" if rank == root else None
    )
    s.state["acc"] = value
    if size == 1:
        return s
    parent, children = _binomial_children(rank, root, size)
    rel = (rank - root) % size
    est = payload_nbytes(value)
    for child in children:
        mask = ((child - root) % size) ^ rel
        rnd = mask.bit_length() - 1
        slot = f"_c{mask}"
        s.add_recv(rnd, child, tag, slot=slot)

        def fold(state: dict[str, Any], _slot: str = slot, _op: ReduceOp = op) -> None:
            state["acc"] = _op(state["acc"], state[_slot])

        s.add_fold(rnd, fold, cost_bytes=est)
    if rel != 0:
        assert parent is not None
        lsb = rel & -rel
        s.add_send(lsb.bit_length() - 1, parent, tag, slot="acc")
    return s


def allreduce_schedule(
    rank: int, size: int, rtag: int, btag: int, value: Any, op: Optional[ReduceOp]
) -> Schedule:
    """Reduce-to-0 then broadcast, concatenated into one schedule — the
    exact message set of the blocking ``allreduce`` (which calls
    ``reduce`` then ``bcast``), so the two stay step-for-step comparable.
    A bridge fold on the root copies the accumulated reduction into the
    broadcast slot between the two phases."""
    s = reduce_schedule(rank, size, 0, rtag, value, op)
    s.name = "iallreduce"
    s.result_slot = "data"
    base = s.nrounds
    if rank == 0:

        def bridge(state: dict[str, Any]) -> None:
            state["data"] = state["acc"]

        s.add_fold(max(base - 1, 0), bridge)
    else:
        s.state["data"] = None
    if size == 1:
        return s
    nrounds = (size - 1).bit_length()
    parent, children = _binomial_children(rank, 0, size)
    if rank != 0:
        assert parent is not None
        lsb = rank & -rank
        s.add_recv(base + nrounds - lsb.bit_length(), parent, btag, slot="data")
    for child in children:
        mask = child ^ rank
        s.add_send(base + nrounds - mask.bit_length(), child, btag, slot="data")
    return s


def allgather_schedule(rank: int, size: int, tag: int, value: Any) -> Schedule:
    """Ring allgather: step k sends the block carried so far to the right
    neighbour and receives a new one from the left, folding it into the
    rank-ordered ``out`` list."""
    s = Schedule("iallgather", rank, size, tag, result_slot="out")
    out: list[Any] = [None] * size
    out[rank] = value
    s.state["out"] = out
    s.state["carried"] = (rank, value)
    if size == 1:
        return s
    right = (rank + 1) % size
    left = (rank - 1) % size
    est = payload_nbytes(value)
    for step in range(size - 1):
        s.add_send(step, right, tag + step, slot="carried")
        rx = f"_rx{step}"
        s.add_recv(step, left, tag + step, slot=rx)

        def fold(state: dict[str, Any], _rx: str = rx) -> None:
            idx, val = state[_rx]
            state["out"][idx] = val
            state["carried"] = state[_rx]

        s.add_fold(step, fold, cost_bytes=est)
    return s


# ------------------------------------------------------------------ execution


class NbcRequest(MpiRequest):
    """Handle for an in-flight nonblocking collective.

    ``inner`` is a *proxy* :class:`NmRequest` (a synthetic recv the
    progressor completes via the session when the schedule finishes), so
    ``test``/``wait``/``waitany`` and the completion-event machinery work
    unchanged; ``wait`` returns the schedule's result slot.
    """

    def __init__(self, comm: Communicator, proxy: NmRequest, schedule: Schedule) -> None:
        super().__init__(comm, proxy)
        self.schedule = schedule


class _Active:
    """Execution state of one in-flight schedule."""

    __slots__ = ("schedule", "proxy", "round_idx", "pending", "recv_slots", "posting")

    def __init__(self, schedule: Schedule, proxy: NmRequest) -> None:
        self.schedule = schedule
        self.proxy = proxy
        self.round_idx = 0
        #: req_ids of the current round still in flight
        self.pending: set[int] = set()
        #: req_id → state slot for the round's recvs
        self.recv_slots: dict[int, str] = {}
        #: guards against advancing while the round is still being posted
        #: (a post can complete synchronously off the unexpected store)
        self.posting = False


#: an action on one in-flight schedule, run under an execution context
_ActionFn = Callable[[ExecContext, _Active], None]


class NbcProgressor:
    """Per-communicator engine that advances outstanding schedules.

    Wiring (all built lazily on the first ``i*`` call):

    * an ``on_request_complete`` listener sees every request completion
      on the node's session and routes those belonging to a schedule step;
    * *actions* (post next round, run folds, finalize) are deferred ops on
      the session queue, so both engines drain them through their normal
      progression paths; an action run by an idle core (PIOMan) counts as
      stolen (``steps_stolen``).
    """

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.session = comm._nm.session
        self._host = self.session.timing.host
        self._by_req: dict[int, _Active] = {}
        self.session.on_request_complete.append(self._on_completion)
        self.stats: dict[str, int] = {
            "schedules_started": 0,
            "schedules_completed": 0,
            "steps_posted": 0,
            "steps_completed": 0,
            "folds_run": 0,
            "rounds_advanced": 0,
            "actions_run": 0,
            "steps_stolen": 0,
        }
        reg = comm.world.runtime.metrics_registry
        reg.register_collector(f"n{comm.rank}.nbc", lambda: dict(self.stats))

    # -- launch ---------------------------------------------------------------

    def launch(
        self, tctx: ThreadContext, schedule: Schedule
    ) -> Generator[Any, Any, NbcRequest]:
        """Register ``schedule`` and return its handle — the calling
        thread only pays the registration cost, like an isend."""
        yield Compute(self._host.request_post_us, kind="service", label="nbc.launch")
        proxy = self.session.make_recv(ANY, schedule.tag, 0)
        req = NbcRequest(self.comm, proxy, schedule)
        self.stats["schedules_started"] += 1
        active = _Active(schedule, proxy)
        if schedule.nrounds == 0:
            # single-rank collective: no wire steps, complete in place
            self._finish(active)
            return req
        self.session.defer(self._act, self._post_round, active)
        return req

    def _act(self, ctx: ExecContext, fn: _ActionFn, active: _Active) -> None:
        """A deferred action, run by whichever context drains the session
        queue: an idle core under PIOMan, the thread's next library call
        under the sequential engine."""
        self.stats["actions_run"] += 1
        if ctx.idle_steal:
            self.stats["steps_stolen"] += 1
        fn(ctx, active)

    # -- schedule advancement -------------------------------------------------

    def _on_completion(self, req: NmRequest) -> None:
        """Completion listener: runs when the request finishes, defers work."""
        active = self._by_req.pop(req.req_id, None)
        if active is None:
            return
        self.stats["steps_completed"] += 1
        slot = active.recv_slots.pop(req.req_id, None)
        if slot is not None:
            active.schedule.state[slot] = req.data
        active.pending.discard(req.req_id)
        if not active.pending and not active.posting:
            self.session.defer(self._act, self._advance, active)

    def _post_round(self, ctx: ExecContext, active: _Active) -> None:
        """Post every step of the current round; skip through fold-only
        rounds; finalize once past the last round."""
        sched = active.schedule
        while active.round_idx < sched.nrounds:
            rnd = sched.rounds[active.round_idx]
            if rnd.ops:
                self._post_ops(ctx, active, rnd)
                return
            self._run_folds(ctx, sched, rnd)
            active.round_idx += 1
            self.stats["rounds_advanced"] += 1
        self._finish(active)

    def _post_ops(self, ctx: ExecContext, active: _Active, rnd: _Round) -> None:
        sched = active.schedule
        reqs: list[NmRequest] = []
        for step in rnd.ops:
            if isinstance(step, RecvStep):
                req = self.session.make_recv(step.peer, step.tag, _RECV_MAXSIZE)
                active.recv_slots[req.req_id] = step.slot
            else:
                payload = sched.state[step.slot] if step.slot is not None else None
                req = self.session.make_send(
                    step.peer, step.tag, payload_nbytes(payload), payload
                )
            reqs.append(req)
        # register the whole round before posting anything: a post may
        # complete synchronously (unexpected-store match) and the listener
        # must see the full pending set, not a prefix
        active.posting = True
        active.pending = {r.req_id for r in reqs}
        for r in reqs:
            self._by_req[r.req_id] = active
        for r in reqs:
            ctx.charge(self._host.request_post_us)
            if r.kind == "send":
                self.session.post_send(r)
            else:
                self.session.post_recv(r)
            self.stats["steps_posted"] += 1
        active.posting = False
        if not active.pending:  # everything completed during posting
            self.session.defer(self._act, self._advance, active)

    def _advance(self, ctx: ExecContext, active: _Active) -> None:
        """The just-drained round's folds, then the next round."""
        rnd = active.schedule.rounds[active.round_idx]
        self._run_folds(ctx, active.schedule, rnd)
        active.round_idx += 1
        self.stats["rounds_advanced"] += 1
        self._post_round(ctx, active)

    def _run_folds(self, ctx: ExecContext, sched: Schedule, rnd: _Round) -> None:
        for fold in rnd.folds:
            if fold.cost_bytes:
                ctx.charge(self._host.memcpy_us(fold.cost_bytes))
            fold.fn(sched.state)
            self.stats["folds_run"] += 1

    def _finish(self, active: _Active) -> None:
        active.proxy.data = active.schedule.result()
        self.session.complete_local(active.proxy)
        self.stats["schedules_completed"] += 1
