"""Rendezvous protocol engine: RTS/CTS handshake, pipelined data phase.

The paper's §2.3 ships the rendezvous payload as one zero-copy DATA
transfer on one rail once the CTS arrives. This module holds the whole
rendezvous protocol:

* :class:`RdvEngine` — the engine :class:`repro.nmad.core.NmSession`
  calls for rendezvous sends, RTS/CTS/DATA packets, ordered RTS delivery
  and unexpected RTS matches: RTS emission and answering, CTS handling,
  the DATA phase (whole or pipelined), and the receiver-side rendezvous
  request/assembly state;
* :class:`RdvPlanner` — plans a *pipelined* data phase: the payload is
  first **striped** across the gate's healthy rails proportionally to rail
  bandwidth (the same arithmetic
  :func:`repro.nmad.strategies.base.stripe_by_bandwidth` applies to large
  eager sends), then each rail's share is cut into **pipeline chunks** —
  either a fixed ``RdvConfig.chunk_bytes``, or (adaptive mode) whatever
  that rail drains in ``adaptive_chunk_us``, so registration of chunk
  *k+1* overlaps the DMA drain of chunk *k* on every rail.

The planner is pure: it maps ``(size, rails)`` to a chunk list and never
touches the simulator, so it is deterministic by construction. The payload
codec below handles byte-identical reconstruction of real ``bytes``/numpy
payloads on the receive side; anything else rides chunk 0 whole ("opaque").
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..config import RdvConfig
from ..errors import ProtocolError
from ..network.message import Packet
from .drivers.base import Driver, ExecContext
from .request import NmRequest, ReqState
from .strategies.base import RailInfo, stripe_by_bandwidth
from .unexpected import UnexpectedRts
from .wire import CtsFrame, DataChunkFrame, NdarrayMeta, RtsFrame, data_frame, from_packet

if TYPE_CHECKING:  # pragma: no cover - engines are owned by the session
    from .core import NmSession

__all__ = [
    "RDV_STAT_KEYS",
    "RdvChunk",
    "RdvPlanner",
    "RdvEngine",
    "classify_payload",
    "slice_raw",
    "PayloadAssembler",
]

#: rendezvous data-phase session counters (surfaced as ``n{i}.rdv.*``
#: through the observability registry — see ``harness/runner.py``)
RDV_STAT_KEYS = (
    "rdv_chunks_sent",
    "rdv_chunks_received",
    "rdv_chunked_sends",
    "rdv_striped_sends",
    "rdv_chunk_retransmits",
)


@dataclass(frozen=True)
class RdvChunk:
    """One planned DATA packet of a rendezvous data phase."""

    index: int
    offset: int
    length: int
    rail_index: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ProtocolError(f"invalid RDV chunk geometry {self.offset}+{self.length}")


class RdvPlanner:
    """Maps a rendezvous payload onto chunks and rails."""

    def __init__(self, config: RdvConfig) -> None:
        self.config = config

    def plan(self, size: int, rails: Sequence[RailInfo]) -> list[RdvChunk]:
        """Plan the DATA packets for a ``size``-byte payload over ``rails``.

        With chunking off (the default config) the whole payload is one
        chunk on the first rail — the seed's single-DATA behaviour. With
        chunking on, the payload is striped across rails by bandwidth and
        each share is subdivided into pipeline chunks.
        """
        if not rails:
            raise ProtocolError("RDV plan needs at least one rail")
        if size <= 0:
            raise ProtocolError(f"RDV plan needs a positive payload size, got {size}")
        cfg = self.config
        if not cfg.enabled:
            return [RdvChunk(0, 0, size, rails[0].index)]
        use_rails = list(rails) if (cfg.multirail and len(rails) > 1) else [rails[0]]
        shares = stripe_by_bandwidth(size, use_rails)
        chunks: list[RdvChunk] = []
        offset = 0
        index = 0
        for rail, share in zip(use_rails, shares):
            if share <= 0:
                continue
            csize = self._chunk_size(rail, share)
            for chunk_off in range(0, share, csize):
                length = min(csize, share - chunk_off)
                chunks.append(RdvChunk(index, offset + chunk_off, length, rail.index))
                index += 1
            offset += share
        return chunks

    def _chunk_size(self, rail: RailInfo, share: int) -> int:
        cfg = self.config
        if cfg.adaptive:
            # size the chunk so one DMA drain takes ~adaptive_chunk_us on
            # this rail
            csize = int(rail.bandwidth * cfg.adaptive_chunk_us)
        else:
            csize = cfg.chunk_bytes
        csize = max(csize, cfg.min_chunk_bytes)
        # bound op-queue growth: never more than max_chunks_per_rail chunks
        csize = max(csize, math.ceil(share / cfg.max_chunks_per_rail))
        return csize


# --------------------------------------------------------------- payload codec


def classify_payload(payload: Any, size: int) -> tuple[str, Any, Optional[NdarrayMeta]]:
    """Classify a send payload for chunked transport.

    Returns ``(mode, raw, meta)``:

    * ``("none", None, None)`` — no payload attached;
    * ``("bytes", raw, None)`` — bytes-like of exactly ``size`` bytes,
      sliceable per chunk and reassembled byte-identical;
    * ``("ndarray", raw, meta)`` — numpy array whose buffer is exactly
      ``size`` bytes; ``raw`` is its byte image, ``meta`` is the
      :class:`repro.nmad.wire.NdarrayMeta` (dtype/shape) for
      reconstruction;
    * ``("opaque", payload, None)`` — anything else (or a length mismatch):
      the object rides chunk 0 whole, as the eager reassembly does.
    """
    if payload is None:
        return "none", None, None
    if isinstance(payload, (bytes, bytearray, memoryview)):
        raw = bytes(payload)
        if len(raw) == size:
            return "bytes", raw, None
        return "opaque", payload, None
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        if payload.nbytes == size:
            meta = NdarrayMeta(dtype=str(payload.dtype), shape=tuple(payload.shape))
            return "ndarray", payload.tobytes(), meta
        return "opaque", payload, None
    return "opaque", payload, None


def slice_raw(mode: str, raw: Any, offset: int, length: int, chunk_index: int) -> Any:
    """The per-chunk wire payload for a classified send payload."""
    if mode in ("bytes", "ndarray"):
        return raw[offset : offset + length]
    if mode == "opaque":
        return raw if chunk_index == 0 else None
    return None


class PayloadAssembler:
    """Receiver-side accumulator for one chunked rendezvous transfer."""

    def __init__(self, size: int, nchunks: int) -> None:
        self.size = size
        self.nchunks = nchunks
        self.received = 0
        self.chunks_seen = 0
        self._seen_offsets: set[int] = set()
        self._buf = bytearray(size)
        self._mode: Optional[str] = None
        self._meta: Optional[NdarrayMeta] = None
        self._opaque: Any = None

    def add(self, frame: DataChunkFrame) -> bool:
        """Fold one DATA chunk frame in; True once every chunk has landed."""
        if frame.offset in self._seen_offsets:
            return False  # duplicate delivery of a retransmitted chunk
        self._seen_offsets.add(frame.offset)
        self.received += frame.length
        self.chunks_seen += 1
        if self.received > self.size:
            raise ProtocolError(
                f"RDV reassembly overflow: {self.received} > {self.size}"
            )
        if self._mode is None or self._mode == "none":
            self._mode = frame.mode
        if frame.meta is not None:
            self._meta = frame.meta
        if frame.mode in ("bytes", "ndarray") and frame.payload is not None:
            self._buf[frame.offset : frame.offset + frame.length] = frame.payload
        elif frame.mode == "opaque" and frame.chunk_index == 0:
            self._opaque = frame.payload
        return self.chunks_seen >= self.nchunks

    def payload(self) -> Any:
        """Reconstruct the application payload (byte-identical for
        bytes/numpy sends)."""
        if self._mode == "bytes":
            return bytes(self._buf)
        if self._mode == "ndarray":
            np = sys.modules.get("numpy")
            if np is None:  # pragma: no cover - meta only exists with numpy
                return bytes(self._buf)
            meta = self._meta
            arr = np.frombuffer(bytes(self._buf), dtype=meta.dtype if meta else "u1")
            if meta is not None:
                arr = arr.reshape(meta.shape)
            return arr.copy()
        if self._mode == "opaque":
            return self._opaque
        return None


# -------------------------------------------------------------- protocol engine


class RdvEngine:
    """Protocol engine for the RTS/CTS/DATA rendezvous state machine."""

    def __init__(self, session: "NmSession") -> None:
        self.session = session
        #: rendezvous receives waiting for DATA, by recv req_id
        self._recvs: dict[int, NmRequest] = {}
        #: chunked rendezvous reassembly state, by recv req_id
        self._assembly: dict[int, PayloadAssembler] = {}
        #: rendezvous data-phase chunk/stripe planner
        self.planner = RdvPlanner(session.timing.rdv)

    # ---------------------------------------------------------------- TX side

    def start_send(self, req: NmRequest) -> None:
        """A send chose the rendezvous protocol: queue the RTS op."""
        self.session._enqueue_op(self.op_send_rts, req)

    def op_send_rts(self, ctx: ExecContext, req: NmRequest) -> None:
        """Emit the request-to-send handshake frame (§2.3 operation (a))."""
        session = self.session
        gate = session.gate_to(req.peer)
        rail_index = 0
        if session.reliability is not None:
            rail_index = session.reliability.select_rail(gate, 0)
        driver = gate.rails[rail_index]
        packet = RtsFrame(
            send_req_id=req.req_id,
            src=session.node_index,
            tag=req.tag,
            seq=req.seq,
            size=req.size,
        ).to_packet(req.peer)
        req.transition(ReqState.RTS_SENT)
        req.submitted_at = ctx.end
        if session.reliability is not None:
            session.reliability.track(gate, packet, "control", rail_index)
        driver.submit_control(ctx, packet)
        if session.reliability is not None:
            session.reliability.arm(ctx, packet)
        if session.tracer is not None:
            session._trace("nmad.rts", req)

    def on_rx_cts(self, ctx: ExecContext, driver: Driver, packet: Packet) -> None:
        """Sender side: the receiver is ready — send the data zero-copy
        (§2.3 operation (d)).

        With chunking configured (``TimingModel.rdv``), the data phase is
        planned as pipeline chunks striped across the gate's healthy rails:
        chunk 0 goes out here (as the one-shot DATA always did), the rest
        are queued as ops so idle cores register+submit chunk *k+1* while
        the NIC drains chunk *k*. With the default config the plan is one
        chunk on one rail — byte-identical to the seed's behaviour.
        """
        session = self.session
        frame = from_packet(packet)
        assert isinstance(frame, CtsFrame)  # from_packet checked the kind
        req = session._sends.get(frame.send_req_id)
        if req is None or req.state != ReqState.RTS_SENT:
            if session.reliability is not None:
                # stale CTS (the wire-seq dedup normally filters these, but
                # stay tolerant): the rendezvous already moved on
                return
            raise ProtocolError(f"CTS for unknown send #{frame.send_req_id}")
        gate = session.gate_to(req.peer)
        infos = gate.rail_infos
        if session.reliability is not None:
            infos = session.reliability.filter_rails(gate, infos)
        chunks = self.planner.plan(req.size, infos)
        nchunks = len(chunks)
        recv_req_id = frame.recv_req_id
        req.transition(ReqState.DATA_SENDING)
        req.init_tx_chunks(nchunks)
        mode: str
        raw: Any
        meta: Optional[NdarrayMeta]
        mode, raw, meta = ("none", None, None)
        if nchunks > 1:
            session.stats["rdv_chunked_sends"] += 1
            if len({c.rail_index for c in chunks}) > 1:
                session.stats["rdv_striped_sends"] += 1
            mode, raw, meta = classify_payload(req.payload, req.size)
        # chunk 0 is charged to the CTS handler, like the one-shot DATA was
        self.op_send_chunk(ctx, req, recv_req_id, chunks[0], nchunks, mode, raw, meta)
        for chunk in chunks[1:]:
            session._enqueue_op(
                self.op_send_chunk, req, recv_req_id, chunk, nchunks, mode, raw, meta
            )
        if session.tracer is not None:
            session._trace("nmad.data_send", req)

    def op_send_chunk(
        self,
        ctx: ExecContext,
        req: NmRequest,
        recv_req_id: int,
        chunk: RdvChunk,
        nchunks: int,
        mode: str,
        raw: Any,
        meta: Optional[NdarrayMeta],
    ) -> None:
        """Register and submit one DATA chunk of a rendezvous data phase.

        Registration is per-chunk (``register_range``) so the pinning cost
        of the next chunk overlaps the wire drain of the previous one. Each
        chunk is its own tracked packet in the reliability layer, so a lost
        chunk retransmits alone.
        """
        session = self.session
        gate = session.gate_to(req.peer)
        rail_index = chunk.rail_index
        if session.reliability is not None:
            rail_index = session.reliability.select_rail(gate, rail_index)
        out_driver = gate.rails[rail_index]
        if out_driver.supports_zero_copy:
            if nchunks == 1:
                ctx.charge(session.registry.register(req.buffer_id, req.size))
            else:
                ctx.charge(
                    session.registry.register_range(req.buffer_id, chunk.offset, chunk.length)
                )
        if nchunks == 1:
            frame = DataChunkFrame(
                tx_req_id=req.req_id,
                recv_req_id=recv_req_id,
                length=chunk.length,
                payload=req.payload,
            )
        else:
            frame = DataChunkFrame(
                tx_req_id=req.req_id,
                recv_req_id=recv_req_id,
                length=chunk.length,
                payload=slice_raw(mode, raw, chunk.offset, chunk.length, chunk.index),
                mode=mode,
                meta=meta if chunk.index == 0 else None,
                chunk_index=chunk.index,
                offset=chunk.offset,
                size=req.size,
                nchunks=nchunks,
            )
        data = frame.to_packet(session.node_index, req.peer)
        if session.reliability is not None:
            track_mode = "zero_copy" if out_driver.supports_zero_copy else "eager"
            session.reliability.track(gate, data, track_mode, rail_index)
        if out_driver.supports_zero_copy:
            out_driver.submit_zero_copy(ctx, data)
        else:
            session.stats["copies_bytes"] += chunk.length
            out_driver.submit_eager(
                ctx, data, chunk.length, session._numa_factor(ctx, req.producer_core)
            )
        if session.reliability is not None:
            session.reliability.arm(ctx, data)
        if nchunks > 1:
            session.stats["rdv_chunks_sent"] += 1

    # ---------------------------------------------------------------- RX side

    def on_rx_rts(self, ctx: ExecContext, driver: Driver, packet: Packet) -> None:
        """Dispatch-table entry for an arrived RTS: sequence-order the
        handshake against the eager flow of the same (src, tag)."""
        session = self.session
        frame = from_packet(packet)
        assert isinstance(frame, RtsFrame)  # from_packet checked the kind
        for ordered in session.seq_tracker.submit(frame.src, frame.tag, frame.seq, frame):
            session.deliver_in_order(ctx, driver, ordered)

    def deliver_rts(self, ctx: ExecContext, driver: Driver, frame: RtsFrame) -> None:
        """Sequence-ordered delivery of one RTS descriptor."""
        session = self.session
        req = session.match_table.match(frame.src, frame.tag)
        ctx.charge(driver.rx_consume_us)
        if req is not None:
            self.op_answer_rts(ctx, req, frame.src, frame.send_req_id, frame.size)
        else:
            session.stats["unexpected_rts"] += 1
            session.unexpected.add(UnexpectedRts.from_frame(frame, arrived_at=session.sim.now))

    def match_unexpected(self, req: NmRequest, item: UnexpectedRts) -> None:
        """A posted recv matched a buffered RTS: queue the CTS answer op."""
        self.session._enqueue_op(
            self.op_answer_rts, req, item.source, item.send_req_id, item.size
        )

    def op_answer_rts(
        self, ctx: ExecContext, recv_req: NmRequest, source: int, send_req_id: int, size: int
    ) -> None:
        """Answer a rendezvous handshake: register the application buffer
        and send the CTS (§2.3 operations (b)/(c))."""
        session = self.session
        gate = session.gate_to(source)
        rail_index = 0
        if session.reliability is not None:
            rail_index = session.reliability.select_rail(gate, 0)
        driver = gate.rails[rail_index]
        if driver.supports_zero_copy:
            ctx.charge(session.registry.register(recv_req.buffer_id, size))
        packet = CtsFrame(send_req_id=send_req_id, recv_req_id=recv_req.req_id).to_packet(
            session.node_index, source
        )
        recv_req.transition(ReqState.DATA_WAIT)
        recv_req.received_size = size
        recv_req.source = source
        self._recvs[recv_req.req_id] = recv_req
        if session.reliability is not None:
            session.reliability.track(gate, packet, "control", rail_index)
        driver.submit_control(ctx, packet)
        if session.reliability is not None:
            session.reliability.arm(ctx, packet)
        if session.tracer is not None:
            session._trace("nmad.cts", recv_req)

    def on_rx_data(self, ctx: ExecContext, driver: Driver, packet: Packet) -> None:
        """Dispatch-table entry for an arrived rendezvous DATA transfer."""
        session = self.session
        frame = data_frame(packet)
        recv_id = frame.recv_req_id
        if frame.nchunks <= 1:
            req = self._recvs.pop(recv_id, None)
            if req is None:
                if session.reliability is not None:
                    return  # duplicate DATA already satisfied this recv
                raise ProtocolError(f"DATA for unknown rendezvous recv #{recv_id}")
            ctx.charge(driver.rx_consume_us)
            req.data = frame.payload
            ctx.schedule_after(0.0, session._complete_req, req)
            if session.tracer is not None:
                session._trace("nmad.data_recv", req)
            return
        # chunked data phase: accumulate until every chunk has landed
        pending = self._recvs.get(recv_id)
        if pending is None:
            if session.reliability is not None:
                return  # duplicate chunk of an already-completed recv
            raise ProtocolError(f"DATA chunk for unknown rendezvous recv #{recv_id}")
        ctx.charge(driver.rx_consume_us)
        assembler = self._assembly.get(recv_id)
        if assembler is None:
            assembler = self._assembly[recv_id] = PayloadAssembler(frame.size, frame.nchunks)
        session.stats["rdv_chunks_received"] += 1
        if not assembler.add(frame):
            return
        self._recvs.pop(recv_id, None)
        self._assembly.pop(recv_id, None)
        pending.data = assembler.payload()
        ctx.schedule_after(0.0, session._complete_req, pending)
        if session.tracer is not None:
            session._trace("nmad.data_recv", pending)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RdvEngine n{self.session.node_index} recvs={len(self._recvs)} "
            f"assembling={len(self._assembly)}>"
        )
