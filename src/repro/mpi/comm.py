"""Communicators and point-to-point operations."""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import MpiError
from ..harness.runner import ClusterRuntime
from ..marcel.effects import Compute
from ..marcel.thread import MarcelThread, ThreadContext
from ..nmad.interface import payload_nbytes as _nm_payload_nbytes
from ..nmad.request import NmRequest
from ..nmad.tags import ANY
from ..nmad.unexpected import ProbeInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle: nbc builds on comm
    from .nbc import NbcProgressor

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "MpiRequest",
    "Communicator",
    "MpiWorld",
]

ANY_SOURCE = ANY
ANY_TAG = ANY

#: user tags must stay below this; collectives use the space above
MAX_USER_TAG = 1 << 20

#: bits of a collective tag reserved for the op id (16 collective kinds)
_COLL_OP_BITS = 4
#: floor for the per-collective step field — every collective owns at
#: least 2**12 consecutive tags, far above any per-step offset we generate
_COLL_MIN_STEP_BITS = 12
#: ceiling the nmad layer accepts for internal tags (see ``_check_tag``)
_INTERNAL_TAG_LIMIT = 1 << 40

#: a reduction operator (must be commutative for the nbc tree schedules)
ReduceOp = Callable[[Any, Any], Any]


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a Python object.

    Delegates the bytes/numpy fast paths to the nmad facade's sizing rule
    (:func:`repro.nmad.interface.payload_nbytes`) and adds the MPI-only
    pickle fallback for arbitrary objects.
    """
    if obj is None:
        return 0
    sized = _nm_payload_nbytes(obj)
    if sized is not None:
        return int(sized)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # pragma: no cover - unpicklable payloads
        raise MpiError(f"cannot size payload of type {type(obj).__name__}: {exc}") from exc


class MpiRequest:
    """Wrapper around an :class:`NmRequest` with mpi4py-like ``wait``."""

    def __init__(self, comm: "Communicator", inner: NmRequest) -> None:
        self.comm = comm
        self.inner = inner

    @property
    def done(self) -> bool:
        return self.inner.done

    def test(self, tctx: ThreadContext) -> Generator[Any, Any, bool]:
        """MPI_Test: non-blocking completion check that drives progression.

        Kicks one engine progress pass — exactly ``wait``'s slow path, but
        never blocking — so a pure test-loop completes even a rendezvous
        transfer whose CTS/data phases need software attention. When the
        pass found nothing to do, one spinlock acquisition is charged so a
        spinning loop still advances virtual time instead of livelocking
        the simulator.
        """
        if self.inner.done:
            return True
        did = yield from self.comm._nm.progress(tctx)
        if not did and not self.inner.done:
            yield Compute(
                self.comm._nm.session.timing.host.spinlock_us,
                kind="service",
                label="mpi.test",
            )
        return self.inner.done

    def wait(self, tctx: ThreadContext) -> Generator[Any, Any, Any]:
        """Wait; returns received object for recv requests, None for sends."""
        yield from self.comm._nm.wait(tctx, self.inner)
        if self.inner.kind == "recv":
            return self.inner.data
        return None


class Communicator:
    """One node's view of the world communicator."""

    def __init__(self, world: "MpiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self._nm = world.runtime.interface(rank)
        #: per-collective sequence counter (all ranks call collectives in
        #: the same order, so counters agree and give unique tags)
        self._coll_seq = 0
        #: width of the per-collective step field (grows with the world
        #: size so `tag + step` offsets stay inside one collective's block)
        self._coll_step_bits = max(_COLL_MIN_STEP_BITS, max(self.size - 1, 1).bit_length())
        #: lazily built nonblocking-collective schedule progressor
        self._nbc: Optional["NbcProgressor"] = None

    # -- point-to-point -----------------------------------------------------------

    def _check_peer(self, peer: int, wildcard_ok: bool = False) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
        if not (0 <= peer < self.size):
            raise MpiError(f"rank {peer} out of range [0, {self.size})")

    def _check_tag(self, tag: int, wildcard_ok: bool = False, internal: bool = False) -> None:
        if wildcard_ok and tag == ANY_TAG:
            return
        limit = MAX_USER_TAG if not internal else _INTERNAL_TAG_LIMIT
        if not (0 <= tag < limit):
            raise MpiError(f"tag {tag} out of range [0, {limit})")

    def isend(
        self, tctx: ThreadContext, obj: Any, dest: int, tag: int = 0, _internal: bool = False
    ) -> Generator[Any, Any, MpiRequest]:
        self._check_peer(dest)
        self._check_tag(tag, internal=_internal)
        size = payload_nbytes(obj)
        inner = yield from self._nm.isend(tctx, dest, tag, size, payload=obj)
        return MpiRequest(self, inner)

    def irecv(
        self,
        tctx: ThreadContext,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        maxsize: int = 1 << 30,
        _internal: bool = False,
    ) -> Generator[Any, Any, MpiRequest]:
        self._check_peer(source, wildcard_ok=True)
        self._check_tag(tag, wildcard_ok=True, internal=_internal)
        inner = yield from self._nm.irecv(tctx, source, tag, maxsize)
        return MpiRequest(self, inner)

    def send(
        self, tctx: ThreadContext, obj: Any, dest: int, tag: int = 0, _internal: bool = False
    ) -> Generator[Any, Any, None]:
        req = yield from self.isend(tctx, obj, dest, tag, _internal=_internal)
        yield from req.wait(tctx)

    def recv(
        self,
        tctx: ThreadContext,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        maxsize: int = 1 << 30,
        _internal: bool = False,
    ) -> Generator[Any, Any, Any]:
        req = yield from self.irecv(tctx, source, tag, maxsize, _internal=_internal)
        obj = yield from req.wait(tctx)
        return obj

    def sendrecv(
        self,
        tctx: ThreadContext,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        _internal: bool = False,
    ) -> Generator[Any, Any, Any]:
        """Simultaneous send+recv (deadlock-free exchange).

        Both requests are driven together through ``wait_any`` until each
        completes, in whichever order the engine finishes them. Waiting on
        the send first (the old behaviour) deadlocks a rendezvous
        self-exchange: the send's RTS can only be answered once the
        receive is progressed, which never happens while the thread is
        parked on the send.
        """
        rreq = yield from self.irecv(tctx, source, recvtag, _internal=_internal)
        sreq = yield from self.isend(tctx, obj, dest, sendtag, _internal=_internal)
        inners = [rreq.inner, sreq.inner]
        while not all(r.done for r in inners):
            yield from self._nm.wait_any(tctx, [r for r in inners if not r.done])
        return rreq.inner.data

    def waitany(
        self, tctx: ThreadContext, requests: list[MpiRequest]
    ) -> Generator[Any, Any, tuple[int, Any]]:
        """MPI_Waitany: returns (index, received object or None)."""
        if not requests:
            raise MpiError("waitany needs at least one request")
        idx, inner = yield from self._nm.wait_any(tctx, [r.inner for r in requests])
        return idx, (inner.data if inner.kind == "recv" else None)

    def iprobe(
        self, tctx: ThreadContext, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, Optional[ProbeInfo]]:
        """MPI_Iprobe: non-blocking check for a matching pending message.

        Returns a typed :class:`~repro.nmad.unexpected.ProbeInfo` (or
        None).
        """
        status = yield from self._nm.iprobe(tctx, source, tag)
        return status

    def probe(
        self, tctx: ThreadContext, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, ProbeInfo]:
        """MPI_Probe: block until a matching message is pending."""
        status = yield from self._nm.probe(tctx, source, tag)
        return status

    # -- collective tag space -------------------------------------------------------

    def _next_coll_tag(self, op_id: int) -> int:
        """Reserve a fresh, collision-free tag block for one collective.

        Layout above ``MAX_USER_TAG`` (high bits → low bits)::

            | sequence | op id (4 bits) | step (>= 12 bits) |

        Every collective owns ``2**step_bits`` consecutive tags — its
        *block* — so per-step offsets (the ring allgather's ``tag + step``,
        the dissemination barrier's ``base + round``) can never reach the
        next collective's block: ``step_bits`` grows with the communicator
        size and consecutive sequence numbers differ by at least
        ``2**(step_bits + 4)``. The old scheme strode the sequence by a
        flat 16, so at ``size > 16`` one collective's step tags ran into
        the blocks of the collectives that followed and messages
        cross-matched.
        """
        if not (0 <= op_id < (1 << _COLL_OP_BITS)):
            raise MpiError(f"collective op id {op_id} out of range [0, 16)")
        self._coll_seq += 1
        tag = MAX_USER_TAG + (
            ((self._coll_seq << _COLL_OP_BITS) | op_id) << self._coll_step_bits
        )
        if tag + (1 << self._coll_step_bits) > _INTERNAL_TAG_LIMIT:
            raise MpiError("collective tag space exhausted")
        return tag

    @property
    def coll_tag_span(self) -> int:
        """Consecutive tags owned by one collective (its block size)."""
        return 1 << self._coll_step_bits

    # -- collectives (implemented in collectives.py, re-exported here) -------------

    def barrier(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        from .collectives import barrier

        yield from barrier(self, tctx)

    def bcast(self, tctx: ThreadContext, obj: Any, root: int = 0) -> Generator[Any, Any, Any]:
        from .collectives import bcast

        result = yield from bcast(self, tctx, obj, root)
        return result

    def reduce(
        self, tctx: ThreadContext, value: Any, op: Optional[ReduceOp] = None, root: int = 0
    ) -> Generator[Any, Any, Any]:
        from .collectives import reduce as _reduce

        result = yield from _reduce(self, tctx, value, op, root)
        return result

    def allreduce(
        self, tctx: ThreadContext, value: Any, op: Optional[ReduceOp] = None
    ) -> Generator[Any, Any, Any]:
        from .collectives import allreduce

        result = yield from allreduce(self, tctx, value, op)
        return result

    def gather(
        self, tctx: ThreadContext, value: Any, root: int = 0
    ) -> Generator[Any, Any, Optional[list[Any]]]:
        from .collectives import gather

        result = yield from gather(self, tctx, value, root)
        return result

    def scatter(
        self, tctx: ThreadContext, values: Optional[list[Any]], root: int = 0
    ) -> Generator[Any, Any, Any]:
        from .collectives import scatter

        result = yield from scatter(self, tctx, values, root)
        return result

    def allgather(self, tctx: ThreadContext, value: Any) -> Generator[Any, Any, list[Any]]:
        from .collectives import allgather

        result = yield from allgather(self, tctx, value)
        return result

    def alltoall(self, tctx: ThreadContext, values: list[Any]) -> Generator[Any, Any, list[Any]]:
        from .collectives import alltoall

        result = yield from alltoall(self, tctx, values)
        return result

    def scan(
        self, tctx: ThreadContext, value: Any, op: Optional[ReduceOp] = None
    ) -> Generator[Any, Any, Any]:
        from .collectives import scan

        result = yield from scan(self, tctx, value, op)
        return result

    def reduce_scatter(
        self, tctx: ThreadContext, blocks: list[Any], op: Optional[ReduceOp] = None
    ) -> Generator[Any, Any, Any]:
        from .collectives import reduce_scatter

        result = yield from reduce_scatter(self, tctx, blocks, op)
        return result

    # -- nonblocking collectives (schedule engine in nbc.py) ------------------------

    def _nbc_progressor(self) -> "NbcProgressor":
        from .nbc import NbcProgressor

        if self._nbc is None:
            self._nbc = NbcProgressor(self)
        return self._nbc

    def ibarrier(self, tctx: ThreadContext) -> Generator[Any, Any, MpiRequest]:
        """Nonblocking barrier; completes when every rank has entered."""
        from .collectives import _OP_IBARRIER
        from .nbc import barrier_schedule

        tag = self._next_coll_tag(_OP_IBARRIER)
        sched = barrier_schedule(self.rank, self.size, tag)
        req = yield from self._nbc_progressor().launch(tctx, sched)
        return req

    def ibcast(
        self, tctx: ThreadContext, obj: Any, root: int = 0
    ) -> Generator[Any, Any, MpiRequest]:
        """Nonblocking broadcast; ``wait`` returns the object on every rank."""
        from .collectives import _OP_IBCAST
        from .nbc import bcast_schedule

        if not (0 <= root < self.size):
            raise MpiError(f"bad ibcast root {root}")
        tag = self._next_coll_tag(_OP_IBCAST)
        sched = bcast_schedule(self.rank, self.size, root, tag, obj if self.rank == root else None)
        req = yield from self._nbc_progressor().launch(tctx, sched)
        return req

    def ireduce(
        self,
        tctx: ThreadContext,
        value: Any,
        op: Optional[ReduceOp] = None,
        root: int = 0,
    ) -> Generator[Any, Any, MpiRequest]:
        """Nonblocking reduce; ``wait`` returns the result on root, None
        elsewhere. ``op`` must be commutative (children fold in mask
        order, not rank order)."""
        from .collectives import _OP_IREDUCE
        from .nbc import reduce_schedule

        if not (0 <= root < self.size):
            raise MpiError(f"bad ireduce root {root}")
        tag = self._next_coll_tag(_OP_IREDUCE)
        sched = reduce_schedule(self.rank, self.size, root, tag, value, op)
        req = yield from self._nbc_progressor().launch(tctx, sched)
        return req

    def iallreduce(
        self, tctx: ThreadContext, value: Any, op: Optional[ReduceOp] = None
    ) -> Generator[Any, Any, MpiRequest]:
        """Nonblocking allreduce (reduce-to-0 then broadcast, mirroring the
        blocking algorithm); ``wait`` returns the result everywhere."""
        from .collectives import _OP_IALLREDUCE, _OP_IBCAST
        from .nbc import allreduce_schedule

        rtag = self._next_coll_tag(_OP_IALLREDUCE)
        btag = self._next_coll_tag(_OP_IBCAST)
        sched = allreduce_schedule(self.rank, self.size, rtag, btag, value, op)
        req = yield from self._nbc_progressor().launch(tctx, sched)
        return req

    def iallgather(self, tctx: ThreadContext, value: Any) -> Generator[Any, Any, MpiRequest]:
        """Nonblocking ring allgather; ``wait`` returns the rank-ordered list."""
        from .collectives import _OP_IALLGATHER
        from .nbc import allgather_schedule

        tag = self._next_coll_tag(_OP_IALLGATHER)
        sched = allgather_schedule(self.rank, self.size, tag, value)
        req = yield from self._nbc_progressor().launch(tctx, sched)
        return req


class MpiWorld:
    """One communicator per node over a built :class:`ClusterRuntime`."""

    def __init__(self, runtime: ClusterRuntime) -> None:
        self.runtime = runtime
        self.size = len(runtime.nodes)
        self.comms = [Communicator(self, rank) for rank in range(self.size)]

    def comm(self, rank: int) -> Communicator:
        if not (0 <= rank < self.size):
            raise MpiError(f"rank {rank} out of range [0, {self.size})")
        return self.comms[rank]

    def spawn_rank(self, rank: int, body: Any, name: str = "", **kwargs: Any) -> MarcelThread:
        """Spawn a thread on rank's node with ``ctx.env['comm']`` bound."""
        env = kwargs.pop("env", {}) or {}
        env["comm"] = self.comm(rank)
        return self.runtime.spawn(rank, body, name=name or f"rank{rank}", env=env, **kwargs)

    def spawn_all(self, body: Any, name_prefix: str = "rank") -> list[MarcelThread]:
        """Spawn one thread per rank running the same body (SPMD)."""
        return [self.spawn_rank(r, body, name=f"{name_prefix}{r}") for r in range(self.size)]
