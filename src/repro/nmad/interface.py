"""User-facing send/recv interface (top layer of Fig. 3).

All calls are generators to be used from Marcel thread bodies with
``yield from``. Naming follows the paper's pseudo-code (Fig. 4/7):
``nm_isend`` / ``nm_swait`` become :meth:`isend` / :meth:`swait`.

Sends are **payload-first**: pass real data (``bytes``, ``bytearray``,
``memoryview``, or a numpy array) and the interface derives the wire size
from it; an explicit ``size`` is still accepted — alone (the classic
size-only simulation call) or together with a payload, in which case the
two must agree. All optional arguments are keyword-only.

>>> def body(ctx):
...     req = yield from iface.isend(ctx, peer=1, tag=0, payload=b"x" * 4096)
...     yield ctx.compute(20.0)
...     yield from iface.swait(ctx, req)
"""

from __future__ import annotations

import numbers
import sys
from typing import Any, Generator, Iterable, Optional, Sequence

from ..errors import RequestError
from ..marcel.thread import ThreadContext
from .core import NmSession
from .progress import EngineBase
from .request import NmRequest
from .tags import ANY
from .unexpected import ProbeInfo

__all__ = ["NmInterface", "payload_nbytes"]


def payload_nbytes(payload: Any) -> Optional[int]:
    """Wire size of a payload, or None when it has no obvious byte length.

    The single sizing rule for every layer: the nmad facade derives send
    sizes from it directly, and :mod:`repro.mpi.comm` layers its pickle
    fallback on top for objects with no byte image.
    """
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        return payload.nbytes
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        return payload.nbytes
    return None


class NmInterface:
    """Facade binding a session to a progression engine."""

    def __init__(self, session: NmSession, engine: EngineBase) -> None:
        if engine.session is not session:
            raise RequestError("engine is bound to a different session")
        self.session = session
        self.engine = engine

    # -- argument resolution -------------------------------------------------------

    @staticmethod
    def _resolve_size(size: Any, payload: Any) -> int:
        """Resolve the wire size of a send from ``(size, payload)``.

        Accepts the classic size-only form, the payload-first form (size
        derived from the bytes/numpy payload), and both together (validated
        against each other). A non-integral ``size`` is treated as a
        payload passed positionally — ``isend(ctx, peer, tag, b"data")``
        reads naturally.
        """
        # an exact int skips the numbers.Integral check, which costs several
        # ABC-machinery calls per send
        if size is not None and type(size) is not int and not isinstance(size, numbers.Integral):
            raise RequestError(
                f"size must be an integer, got {type(size).__name__}; "
                "pass data via payload=..."
            )
        derived = payload_nbytes(payload)
        if size is None:
            if derived is None:
                raise RequestError(
                    "cannot derive size: pass size= explicitly or a "
                    "bytes/bytearray/memoryview/numpy payload"
                )
            return derived
        size = int(size)
        if derived is not None and derived != size:
            raise RequestError(
                f"explicit size {size} does not match payload of {derived} bytes"
            )
        return size

    # -- non-blocking -------------------------------------------------------------

    def isend(
        self,
        tctx: ThreadContext,
        peer: int,
        tag: int,
        size: Optional[int] = None,
        *,
        payload: Any = None,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        """Non-blocking send to ``peer`` under ``tag``.

        Either ``size`` (simulated bytes, no data attached) or ``payload``
        (real data; size derived) must be given; both together are
        validated against each other.
        """
        if size is not None and not isinstance(size, numbers.Integral) and payload is None:
            # payload-first positional form: isend(ctx, peer, tag, b"data")
            size, payload = None, size
        nbytes = self._resolve_size(size, payload)
        req = yield from self.engine.isend(tctx, peer, tag, nbytes, payload, buffer_id)
        return req

    def irecv(
        self,
        tctx: ThreadContext,
        source: int = ANY,
        tag: int = ANY,
        size: int = 0,
        *,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        """Non-blocking receive posting (wildcards allowed)."""
        req = yield from self.engine.irecv(tctx, source, tag, size, buffer_id)
        return req

    # -- completion ---------------------------------------------------------------

    def swait(self, tctx: ThreadContext, req: NmRequest) -> Generator[Any, Any, NmRequest]:
        """Wait for a send request (paper: ``nm_swait``)."""
        if req.kind != "send":
            raise RequestError(f"swait on a {req.kind} request")
        result = yield from self.engine.wait(tctx, req)
        return result

    def rwait(self, tctx: ThreadContext, req: NmRequest) -> Generator[Any, Any, NmRequest]:
        """Wait for a receive request."""
        if req.kind != "recv":
            raise RequestError(f"rwait on a {req.kind} request")
        result = yield from self.engine.wait(tctx, req)
        return result

    def wait(self, tctx: ThreadContext, req: NmRequest) -> Generator[Any, Any, NmRequest]:
        """Kind-agnostic wait."""
        result = yield from self.engine.wait(tctx, req)
        return result

    def wait_all(
        self, tctx: ThreadContext, reqs: Sequence[NmRequest] | Iterable[NmRequest]
    ) -> Generator[Any, Any, list[NmRequest]]:
        """Wait for every request in the sequence."""
        out: list[NmRequest] = []
        for req in reqs:
            done = yield from self.engine.wait(tctx, req)
            out.append(done)
        return out

    def wait_any(
        self, tctx: ThreadContext, reqs: Sequence[NmRequest]
    ) -> Generator[Any, Any, tuple[int, NmRequest]]:
        """Wait until *one* request completes; returns ``(index, req)``."""
        result = yield from self.engine.wait_any(tctx, list(reqs))
        return result

    def progress(self, tctx: ThreadContext) -> Generator[Any, Any, bool]:
        """One non-blocking progression pass on the calling thread.

        Runs the engine's inline step (up to its events-per-pass cap) and
        returns True when any work was executed. Never blocks: with a quiet
        session it returns False without charging CPU. This is the hook
        ``MpiRequest.test`` uses so a pure test-loop still drives the
        engine (MPI_Test semantics) instead of spinning on stale state.
        """
        did = yield from self.engine._progress_step(tctx)
        return did

    def drain(self, tctx: ThreadContext) -> Generator[Any, Any, None]:
        """Quiesce before exiting a thread body (MPI_Finalize semantics):
        progresses until no deferred work remains and every reliable packet
        this node sent has been acknowledged. A no-op beyond local work
        when fault recovery is disabled."""
        yield from self.engine.drain(tctx)

    def test(self, req: NmRequest) -> bool:
        """Non-blocking completion check (MPI_Test without progression).

        Pure inspection: drives no progress and charges no CPU — combine
        with :meth:`iprobe`/:meth:`wait_any` for polling loops.
        """
        return req.done

    def test_all(self, reqs: Iterable[NmRequest]) -> bool:
        """True when *every* request has completed (MPI_Testall shape).

        Pure inspection like :meth:`test`: drives no progress, charges no
        CPU. Vacuously True for an empty sequence.
        """
        return all(req.done for req in reqs)

    def test_any(
        self, reqs: Sequence[NmRequest]
    ) -> Optional[tuple[int, NmRequest]]:
        """First completed request as ``(index, req)``, or None.

        Pure inspection like :meth:`test`; the ``(index, req)`` result
        mirrors :meth:`wait_any` so polling loops can switch between the
        two without reshaping their bookkeeping.
        """
        for i, req in enumerate(reqs):
            if req.done:
                return (i, req)
        return None

    # -- probing ------------------------------------------------------------------

    def iprobe(
        self, tctx: ThreadContext, source: int = ANY, tag: int = ANY
    ) -> Generator[Any, Any, Optional[ProbeInfo]]:
        """Non-blocking probe for a pending (unmatched) message.

        Returns a :class:`~repro.nmad.unexpected.ProbeInfo` (typed
        ``source``/``tag``/``size``/``rdv``) or None.
        """
        result = yield from self.engine.iprobe(tctx, source, tag)
        return result

    def probe(
        self, tctx: ThreadContext, source: int = ANY, tag: int = ANY
    ) -> Generator[Any, Any, ProbeInfo]:
        """Blocking probe; returns a
        :class:`~repro.nmad.unexpected.ProbeInfo`."""
        result = yield from self.engine.probe(tctx, source, tag)
        return result

    # -- blocking convenience --------------------------------------------------------

    def send(
        self,
        tctx: ThreadContext,
        peer: int,
        tag: int,
        size: Optional[int] = None,
        *,
        payload: Any = None,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        """Blocking send; same ``size``/``payload`` contract as
        :meth:`isend`."""
        req = yield from self.isend(
            tctx, peer, tag, size, payload=payload, buffer_id=buffer_id
        )
        yield from self.swait(tctx, req)
        return req

    def recv(
        self,
        tctx: ThreadContext,
        source: int = ANY,
        tag: int = ANY,
        size: int = 0,
        *,
        buffer_id: object = None,
    ) -> Generator[Any, Any, NmRequest]:
        req = yield from self.irecv(tctx, source, tag, size, buffer_id=buffer_id)
        yield from self.rwait(tctx, req)
        return req
