"""One-sided communication: RMA windows with engine-driven targets.

A :class:`Window` exposes ``nslots`` addressable slots per rank and the
MPI one-sided trio — ``put``/``get``/``accumulate`` — plus ``fence``
synchronization. The defining property (and the reason this lives on the
progression engine) is **true passive-target progress**: the target rank's
application threads never service anything. Instead each window keeps a
persistent service receive posted on the session; when a request message
lands, the window's completion listener defers a *service action* onto the
session's op queue, and whichever execution context next drains it — an
idle core under PIOMan, or the origin-facing library call under the
sequential baseline — applies the operation to the target buffer and sends
the reply. A target that is purely computing still makes RMA progress
under PIOMan; under the sequential engine it does not until some thread on
the target node enters the library, which is exactly the paper's contrast
between the two engines.

Wire protocol (all tags drawn from the window's collective tag block,
op id 15):

* origin → target, ``base+0``: ``(kind, index, value, origin, opname)``
* target → origin, ``base+1``: the reply — the read value for ``get``,
  None for ``put``/``accumulate`` (a pure acknowledgement).

Each origin posts its reply receive *before* sending the request, and a
target services requests in arrival order, so the per-``(origin, target)``
FIFO ordering of the nmad flows pairs replies with the right outstanding
op. ``accumulate`` takes a *named* operator (``"sum"``, ``"prod"``,
``"min"``, ``"max"``, ``"replace"``) rather than a callable: the operator
name travels in the request message.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, Optional

from ..errors import MpiError
from ..marcel.effects import Compute
from ..marcel.thread import ThreadContext
from ..nmad.drivers.base import ExecContext
from ..nmad.request import NmRequest
from ..nmad.tags import ANY
from .collectives import _OP_WIN
from .comm import Communicator, MpiRequest, payload_nbytes

__all__ = ["Window", "ACCUMULATE_OPS"]

#: named accumulate operators (callables cannot travel in messages)
ACCUMULATE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "prod": operator.mul,
    "min": min,
    "max": max,
    "replace": lambda _old, new: new,
}


class Window:
    """One rank's view of a collectively allocated RMA window."""

    def __init__(self, comm: Communicator, base_tag: int, nslots: int, init: Any) -> None:
        self.comm = comm
        self.nslots = nslots
        self.req_tag = base_tag + 0
        self.rep_tag = base_tag + 1
        self._session = comm._nm.session
        self._host = self._session.timing.host
        #: the local slots (the window's exposed memory)
        self._buf: list[Any] = [init] * nslots
        #: origin-side requests (request sends + reply recvs) not yet fenced
        self._outstanding: list[NmRequest] = []
        self._service_req: Optional[NmRequest] = None
        self._closed = False
        self._session.on_request_complete.append(self._on_completion)
        self.stats: dict[str, int] = {
            "puts": 0,
            "gets": 0,
            "accumulates": 0,
            "served": 0,
            "fences": 0,
        }
        idx = comm._win_count
        comm._win_count += 1
        reg = comm.world.runtime.metrics_registry
        reg.register_collector(f"n{comm.rank}.rma.w{idx}", lambda: dict(self.stats))

    # -- creation -------------------------------------------------------------

    @classmethod
    def create(
        cls, comm: Communicator, tctx: ThreadContext, nslots: int, init: Any
    ) -> Generator[Any, Any, "Window"]:
        """Collective constructor (used via ``comm.win_allocate``).

        Draws the window's tag block, posts the service receive, then
        barriers so no rank issues an RMA op before every target is
        listening.
        """
        if nslots <= 0:
            raise MpiError(f"window needs at least one slot, got {nslots}")
        base_tag = comm._next_coll_tag(_OP_WIN)
        win = cls(comm, base_tag, nslots, init)
        yield Compute(
            win._host.request_post_us, kind="service", label="rma.win_allocate"
        )
        win._post_service(None)
        yield from comm.barrier(tctx)
        return win

    # -- target side ----------------------------------------------------------

    def _post_service(self, ctx: Optional[ExecContext]) -> None:
        """(Re)post the persistent service receive."""
        if self._closed:
            return
        req = self._session.make_recv(ANY, self.req_tag, 1 << 30)
        self._service_req = req
        if ctx is not None:
            ctx.charge(self._host.request_post_us)
        self._session.post_recv(req)

    def _on_completion(self, req: NmRequest) -> None:
        """Completion listener: a completed service receive defers the
        service action; every other completion is ignored."""
        if req is not self._service_req:
            return
        self._service_req = None
        self._session.defer("rma.serve", lambda ctx: self._serve(ctx, req))

    def _serve(self, ctx: ExecContext, req: NmRequest) -> None:
        """Apply one origin request to the local buffer and reply.

        Runs under whatever execution context drains the op queue — never
        an application thread's control flow.
        """
        kind, index, value, origin, opname = req.data
        ctx.charge(self._host.request_post_us)
        if kind == "put":
            self._buf[index] = value
            reply: Any = None
        elif kind == "get":
            reply = self._buf[index]
        elif kind == "acc":
            self._buf[index] = ACCUMULATE_OPS[opname](self._buf[index], value)
            reply = None
        else:  # pragma: no cover - origins only send the three kinds
            raise MpiError(f"unknown RMA op kind {kind!r}")
        self.stats["served"] += 1
        sreq = self._session.make_send(origin, self.rep_tag, payload_nbytes(reply), reply)
        ctx.charge(self._host.request_post_us)
        self._session.post_send(sreq)
        self._post_service(ctx)

    # -- origin side ----------------------------------------------------------

    def _check(self, target: int, index: int) -> None:
        if self._closed:
            raise MpiError("window is freed")
        if not (0 <= target < self.comm.size):
            raise MpiError(f"target rank {target} out of range [0, {self.comm.size})")
        if not (0 <= index < self.nslots):
            raise MpiError(f"slot index {index} out of range [0, {self.nslots})")

    def _issue(
        self, tctx: ThreadContext, target: int, message: tuple[str, int, Any, int, str]
    ) -> Generator[Any, Any, MpiRequest]:
        # reply recv first: FIFO reply pairing relies on issue order
        ack = yield from self.comm.irecv(
            tctx, source=target, tag=self.rep_tag, _internal=True
        )
        sreq = yield from self.comm.isend(
            tctx, message, target, self.req_tag, _internal=True
        )
        self._outstanding.append(sreq.inner)
        self._outstanding.append(ack.inner)
        return ack

    def put(
        self, tctx: ThreadContext, target: int, index: int, value: Any
    ) -> Generator[Any, Any, MpiRequest]:
        """Store ``value`` into slot ``index`` of ``target``. Returns the
        acknowledgement request; ``fence`` waits it implicitly."""
        self._check(target, index)
        self.stats["puts"] += 1
        ack = yield from self._issue(tctx, target, ("put", index, value, self.comm.rank, ""))
        return ack

    def get(
        self, tctx: ThreadContext, target: int, index: int
    ) -> Generator[Any, Any, MpiRequest]:
        """Fetch slot ``index`` of ``target``; ``wait`` on the returned
        request yields the value."""
        self._check(target, index)
        self.stats["gets"] += 1
        ack = yield from self._issue(tctx, target, ("get", index, None, self.comm.rank, ""))
        return ack

    def accumulate(
        self, tctx: ThreadContext, target: int, index: int, value: Any, op: str = "sum"
    ) -> Generator[Any, Any, MpiRequest]:
        """Combine ``value`` into slot ``index`` of ``target`` with the
        named operator (applied atomically at the target, in arrival
        order)."""
        self._check(target, index)
        if op not in ACCUMULATE_OPS:
            raise MpiError(
                f"unknown accumulate op {op!r}; choose from {sorted(ACCUMULATE_OPS)}"
            )
        self.stats["accumulates"] += 1
        ack = yield from self._issue(tctx, target, ("acc", index, value, self.comm.rank, op))
        return ack

    # -- synchronization ------------------------------------------------------

    def fence(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        """Collective fence: completes every RMA op this rank issued, then
        barriers. After all ranks return, every op issued before their
        fences is visible in every target buffer."""
        if self._closed:
            raise MpiError("window is freed")
        pending = self._outstanding
        self._outstanding = []
        while not all(r.done for r in pending):
            yield from self.comm._nm.wait_any(
                tctx, [r for r in pending if not r.done]
            )
        self.stats["fences"] += 1
        yield from self.comm.barrier(tctx)

    def free(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        """Collective teardown: fence, then cancel the service receive and
        stop listening for completions."""
        yield from self.fence(tctx)
        self._closed = True
        if self._service_req is not None:
            self._session.match_table.cancel(self._service_req)
            self._service_req = None
        self._session.on_request_complete.remove(self._on_completion)

    # -- local access ---------------------------------------------------------

    def local(self, index: int) -> Any:
        """Read a local slot (valid between fences)."""
        if not (0 <= index < self.nslots):
            raise MpiError(f"slot index {index} out of range [0, {self.nslots})")
        return self._buf[index]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Window rank={self.comm.rank} nslots={self.nslots} "
            f"tags=({self.req_tag},{self.rep_tag}) outstanding={len(self._outstanding)}>"
        )
