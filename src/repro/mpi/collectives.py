"""Collective operations built from point-to-point messages.

Algorithms are the classic small-cluster choices: dissemination barrier,
binomial-tree bcast/reduce, ring allgather, pairwise alltoall. Every rank
must call each collective in the same order (SPMD) — tags are derived from
a per-communicator sequence counter that advances identically on all ranks.

The nonblocking variants (:mod:`repro.mpi.nbc`) compile the *same*
algorithms into step schedules; the op-id table below spans both so every
collective kind owns a distinct slice of the tag space (see
``Communicator._next_coll_tag`` for the bit layout).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import MpiError

if TYPE_CHECKING:  # pragma: no cover - imported via the Communicator facade
    from ..marcel.thread import ThreadContext
    from .comm import Communicator, ReduceOp

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "scan",
    "reduce_scatter",
]

# op ids keep tag spaces of concurrent collectives distinct; the id is a
# 4-bit field of the collective tag, so 0..15 are the only legal values
_OP_BARRIER = 0
_OP_BCAST = 1
_OP_REDUCE = 2
_OP_GATHER = 3
_OP_SCATTER = 4
_OP_ALLGATHER = 5
_OP_ALLTOALL = 6
_OP_ALLREDUCE = 7
_OP_SCAN = 8
_OP_REDUCE_SCATTER = 9
# nonblocking variants (repro.mpi.nbc)
_OP_IBARRIER = 10
_OP_IBCAST = 11
_OP_IREDUCE = 12
_OP_IALLREDUCE = 13
_OP_IALLGATHER = 14


def barrier(comm: "Communicator", tctx: "ThreadContext") -> Generator[Any, Any, None]:
    """Dissemination barrier: ⌈log2 p⌉ rounds of pairwise messages."""
    p, me = comm.size, comm.rank
    if p == 1:
        return
    base = comm._next_coll_tag(_OP_BARRIER)
    distance = 1
    round_no = 0
    while distance < p:
        dest = (me + distance) % p
        src = (me - distance) % p
        yield from comm.sendrecv(
            tctx, None, dest, source=src, sendtag=base + round_no,
            recvtag=base + round_no, _internal=True,
        )
        distance *= 2
        round_no += 1


def _binomial_children(me: int, root: int, p: int) -> tuple[Optional[int], list[int]]:
    """Parent and children of ``me`` in a binomial tree rooted at ``root``.

    Convention (MPICH-style): in root-relative numbering, a node's parent
    is the node with its lowest set bit cleared; its children are
    ``rel | mask`` for every power-of-two ``mask`` below ``rel``'s lowest
    set bit (all masks for the root).
    """
    rel = (me - root) % p
    if rel == 0:
        parent: Optional[int] = None
        limit = p
    else:
        parent = ((rel & (rel - 1)) + root) % p
        limit = rel & -rel  # lowest set bit
    children: list[int] = []
    mask = 1
    while mask < limit:
        child_rel = rel | mask
        if child_rel < p:
            children.append((child_rel + root) % p)
        mask <<= 1
    return parent, children


def bcast(
    comm: "Communicator", tctx: "ThreadContext", obj: Any, root: int = 0
) -> Generator[Any, Any, Any]:
    """Binomial-tree broadcast; returns the object on every rank."""
    p, me = comm.size, comm.rank
    if not (0 <= root < p):
        raise MpiError(f"bad bcast root {root}")
    if p == 1:
        return obj
    tag = comm._next_coll_tag(_OP_BCAST)
    parent, children = _binomial_children(me, root, p)
    if me != root:
        obj = yield from comm.recv(tctx, source=parent, tag=tag, _internal=True)
    for child in children:
        yield from comm.send(tctx, obj, dest=child, tag=tag, _internal=True)
    return obj


def reduce(
    comm: "Communicator",
    tctx: "ThreadContext",
    value: Any,
    op: Optional["ReduceOp"] = None,
    root: int = 0,
) -> Generator[Any, Any, Any]:
    """Binomial-tree reduction; result only on ``root`` (None elsewhere)."""
    p, me = comm.size, comm.rank
    if not (0 <= root < p):
        raise MpiError(f"bad reduce root {root}")
    op = op or operator.add
    if p == 1:
        return value
    tag = comm._next_coll_tag(_OP_REDUCE)
    parent, children = _binomial_children(me, root, p)
    acc = value
    # children are contacted in reverse order (deepest subtree first), the
    # mirror image of the bcast schedule
    for child in reversed(children):
        contrib = yield from comm.recv(tctx, source=child, tag=tag, _internal=True)
        acc = op(acc, contrib)
    if me != root:
        yield from comm.send(tctx, acc, dest=parent, tag=tag, _internal=True)
        return None
    return acc


def allreduce(
    comm: "Communicator", tctx: "ThreadContext", value: Any, op: Optional["ReduceOp"] = None
) -> Generator[Any, Any, Any]:
    """Reduce-to-0 then broadcast (small-p choice)."""
    acc = yield from reduce(comm, tctx, value, op, root=0)
    result = yield from bcast(comm, tctx, acc, root=0)
    return result


def gather(
    comm: "Communicator", tctx: "ThreadContext", value: Any, root: int = 0
) -> Generator[Any, Any, Optional[list[Any]]]:
    """Gather to root: returns the rank-ordered list on root, None elsewhere."""
    p, me = comm.size, comm.rank
    if not (0 <= root < p):
        raise MpiError(f"bad gather root {root}")
    tag = comm._next_coll_tag(_OP_GATHER)
    if me != root:
        yield from comm.send(tctx, value, dest=root, tag=tag, _internal=True)
        return None
    out: list[Any] = [None] * p
    out[me] = value
    for src in range(p):
        if src != root:
            out[src] = yield from comm.recv(tctx, source=src, tag=tag, _internal=True)
    return out


def scatter(
    comm: "Communicator",
    tctx: "ThreadContext",
    values: Optional[list[Any]],
    root: int = 0,
) -> Generator[Any, Any, Any]:
    """Scatter from root: returns this rank's element everywhere."""
    p, me = comm.size, comm.rank
    if not (0 <= root < p):
        raise MpiError(f"bad scatter root {root}")
    # validate before consuming a collective sequence number, so a raised
    # call leaves the communicator usable (tags still aligned across ranks)
    if me == root and (values is None or len(values) != p):
        raise MpiError(f"scatter root needs a list of exactly {p} values")
    tag = comm._next_coll_tag(_OP_SCATTER)
    if me == root:
        assert values is not None  # validated above
        for dst in range(p):
            if dst != root:
                yield from comm.send(tctx, values[dst], dest=dst, tag=tag, _internal=True)
        return values[root]
    item = yield from comm.recv(tctx, source=root, tag=tag, _internal=True)
    return item


def allgather(
    comm: "Communicator", tctx: "ThreadContext", value: Any
) -> Generator[Any, Any, list[Any]]:
    """Ring allgather: p-1 steps, each passing one more block around."""
    p, me = comm.size, comm.rank
    out: list[Any] = [None] * p
    out[me] = value
    if p == 1:
        return out
    tag = comm._next_coll_tag(_OP_ALLGATHER)
    right = (me + 1) % p
    left = (me - 1) % p
    carried = value
    carried_idx = me
    for step in range(p - 1):
        received = yield from comm.sendrecv(
            tctx, (carried_idx, carried), right, source=left,
            sendtag=tag + step, recvtag=tag + step, _internal=True,
        )
        carried_idx, carried = received
        out[carried_idx] = carried
    return out


def alltoall(
    comm: "Communicator", tctx: "ThreadContext", values: list[Any]
) -> Generator[Any, Any, list[Any]]:
    """Pairwise-exchange alltoall; returns the rank-ordered inbox."""
    p, me = comm.size, comm.rank
    if len(values) != p:
        # raise before consuming a sequence number (see scatter)
        raise MpiError(f"alltoall needs exactly {p} values, got {len(values)}")
    tag = comm._next_coll_tag(_OP_ALLTOALL)
    out: list[Any] = [None] * p
    out[me] = values[me]
    for step in range(1, p):
        sendtag = tag + step
        if p & (p - 1) == 0:  # power of two: XOR pairing
            partner = me ^ step
            out[partner] = yield from comm.sendrecv(
                tctx, values[partner], partner, source=partner,
                sendtag=sendtag, recvtag=sendtag, _internal=True,
            )
        else:
            send_to = (me + step) % p
            recv_from = (me - step) % p
            out[recv_from] = yield from comm.sendrecv(
                tctx, values[send_to], send_to, source=recv_from,
                sendtag=sendtag, recvtag=sendtag, _internal=True,
            )
    return out


def scan(
    comm: "Communicator", tctx: "ThreadContext", value: Any, op: Optional["ReduceOp"] = None
) -> Generator[Any, Any, Any]:
    """Inclusive prefix reduction (MPI_Scan): rank i gets
    op(v0, v1, …, vi). Linear pipeline: receive the prefix from the left
    neighbour, fold, forward to the right."""
    p, me = comm.size, comm.rank
    op = op or operator.add
    if p == 1:
        return value
    tag = comm._next_coll_tag(_OP_SCAN)
    acc = value
    if me > 0:
        prefix = yield from comm.recv(tctx, source=me - 1, tag=tag, _internal=True)
        acc = op(prefix, value)
    if me < p - 1:
        yield from comm.send(tctx, acc, dest=me + 1, tag=tag, _internal=True)
    return acc


def reduce_scatter(
    comm: "Communicator",
    tctx: "ThreadContext",
    blocks: list[Any],
    op: Optional["ReduceOp"] = None,
) -> Generator[Any, Any, Any]:
    """MPI_Reduce_scatter_block: each rank contributes ``p`` blocks;
    rank i returns the reduction of everyone's block i.

    Implemented as an alltoall of blocks followed by a local fold — the
    classic pairwise-exchange algorithm for small clusters.
    """
    p = comm.size
    op = op or operator.add
    if len(blocks) != p:
        raise MpiError(f"reduce_scatter needs exactly {p} blocks, got {len(blocks)}")
    # consume our own tag slot for symmetry/ordering even though alltoall
    # draws its own below
    comm._next_coll_tag(_OP_REDUCE_SCATTER)
    inbox = yield from alltoall(comm, tctx, blocks)
    acc = inbox[0]
    for contrib in inbox[1:]:
        acc = op(acc, contrib)
    return acc
