"""Communication requests and their state machines."""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..errors import RequestError

if TYPE_CHECKING:  # pragma: no cover
    from ..marcel.sync import ThreadEvent

__all__ = ["ReqState", "Protocol", "NmRequest"]


class Protocol:
    """Transfer protocol chosen for a request (decided by message size)."""

    PIO = "pio"
    EAGER = "eager"
    RDV = "rdv"

    ALL = (PIO, EAGER, RDV)


class ReqState:
    """Request lifecycle states.

    Send: ``CREATED → QUEUED → SUBMITTED → COMPLETED`` for PIO/eager;
    ``CREATED → QUEUED → RTS_SENT → DATA_SENDING → COMPLETED`` for
    rendezvous (the CTS reception moves RTS_SENT → DATA_SENDING).

    Recv: ``POSTED → COMPLETED`` for eager;
    ``POSTED → DATA_WAIT → COMPLETED`` for rendezvous (DATA_WAIT entered
    once the CTS answer is sent).
    """

    CREATED = "created"
    QUEUED = "queued"
    SUBMITTED = "submitted"
    RTS_SENT = "rts_sent"
    DATA_SENDING = "data_sending"
    POSTED = "posted"
    DATA_WAIT = "data_wait"
    COMPLETED = "completed"

    _SEND_TRANSITIONS = {
        CREATED: (QUEUED,),
        QUEUED: (SUBMITTED, RTS_SENT),
        SUBMITTED: (COMPLETED,),
        RTS_SENT: (DATA_SENDING,),
        DATA_SENDING: (COMPLETED,),
        COMPLETED: (),
    }
    _RECV_TRANSITIONS = {
        POSTED: (DATA_WAIT, COMPLETED),
        DATA_WAIT: (COMPLETED,),
        COMPLETED: (),
    }


class NmRequest:
    """One non-blocking send or receive.

    ``req_id`` names the request within its runtime: sessions draw it from
    the counter their :class:`~repro.sim.kernel.Simulator` owns
    (``sim.req_ids``), so two runs in one process number their requests
    alike.
    """

    __slots__ = (
        "req_id",
        "done",
        "kind",
        "node_index",
        "peer",
        "tag",
        "size",
        "payload",
        "buffer_id",
        "state",
        "protocol",
        "seq",
        "producer_core",
        "data",
        "received_size",
        "source",
        "posted_at",
        "submitted_at",
        "completed_at",
        "completion_event",
        "blocking_watch",
        "tx_chunks_total",
        "tx_chunks_left",
    )

    def __init__(
        self,
        kind: str,
        node_index: int,
        peer: int,
        tag: int,
        size: int,
        payload: Any = None,
        buffer_id: object = None,
        *,
        req_id: int,
    ) -> None:
        if kind not in ("send", "recv"):
            raise RequestError(f"request kind must be send/recv, got {kind!r}")
        if size < 0:
            raise RequestError(f"negative message size: {size}")
        if kind == "send" and tag < 0:
            raise RequestError(f"send tags must be >= 0, got {tag}")
        if kind == "recv" and tag < -1:
            raise RequestError(f"recv tag must be >= 0 or ANY (-1), got {tag}")
        self.req_id = req_id
        #: set once, by :meth:`complete`
        self.done = False
        self.kind = kind
        self.node_index = node_index
        self.peer = peer
        self.tag = tag
        self.size = size
        self.payload = payload
        #: identity of the application buffer (registration cache key)
        self.buffer_id = buffer_id if buffer_id is not None else f"req{self.req_id}"
        self.state = ReqState.CREATED if kind == "send" else ReqState.POSTED
        self.protocol: Optional[str] = None
        self.seq: Optional[int] = None
        #: core that produced the data (NUMA-aware copy costs)
        self.producer_core: Optional[int] = None
        #: received payload (recv side)
        self.data: Any = None
        #: actual matched message size (recv side; may be < posted size)
        self.received_size: Optional[int] = None
        self.source: Optional[int] = None
        # timestamps (virtual µs)
        self.posted_at: float = 0.0
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        #: lazily created one-shot thread event (waiters)
        self.completion_event: "ThreadEvent | None" = None
        #: set by PIOMan's blocking detection method while armed
        self.blocking_watch = False
        #: TX chunk accounting — how many wire chunks this send was split
        #: into (multirail eager striping or the pipelined RDV data phase)
        #: and how many are still in flight. 0/0 means "not yet split";
        #: completion paths treat that as a single implicit chunk.
        self.tx_chunks_total: int = 0
        self.tx_chunks_left: int = 0

    # -- TX chunk accounting ------------------------------------------------------

    def init_tx_chunks(self, nchunks: int) -> None:
        """Declare how many wire chunks must drain before this send is done."""
        if nchunks < 1:
            raise RequestError(f"send must have >= 1 chunk, got {nchunks}")
        if self.tx_chunks_total:
            return  # already declared (idempotent across per-chunk plans)
        self.tx_chunks_total = nchunks
        self.tx_chunks_left = nchunks

    def tx_chunk_done(self) -> bool:
        """Account one drained chunk; True when the last chunk just drained."""
        if self.tx_chunks_total == 0:
            self.init_tx_chunks(1)
        self.tx_chunks_left -= 1
        return self.tx_chunks_left <= 0

    # -- state ------------------------------------------------------------------

    def transition(self, new_state: str) -> None:
        table = (
            ReqState._SEND_TRANSITIONS if self.kind == "send" else ReqState._RECV_TRANSITIONS
        )
        if new_state not in table[self.state]:
            raise RequestError(
                f"request {self.req_id} ({self.kind}): illegal transition "
                f"{self.state} → {new_state}"
            )
        self.state = new_state

    def complete(self, now: float) -> None:
        """Mark completed and wake any waiters. Idempotence is an error —
        a request must complete exactly once."""
        self.transition(ReqState.COMPLETED)
        self.done = True
        self.completed_at = now
        event = self.completion_event
        if event is not None:
            # the fired event carries this request as its value: drop it
            # here so the two do not form a cycle
            self.completion_event = None
            if not event.triggered:
                event.trigger(self)

    def latency(self) -> float:
        """Post-to-completion virtual time (raises if not completed)."""
        if self.completed_at is None:
            raise RequestError(f"request {self.req_id} not completed")
        return self.completed_at - self.posted_at

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<NmRequest#{self.req_id} {self.kind} n{self.node_index}"
            f"{'->' if self.kind == 'send' else '<-'}n{self.peer} "
            f"tag={self.tag} {self.size}B {self.state}>"
        )
