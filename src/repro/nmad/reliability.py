"""Recovery machinery: sequence numbers, ACK/retransmit, degraded links.

The paper's engine runs over MX, whose firmware provides link-level
reliability, so NewMadeleine's protocols assume a lossless wire. When the
fabric misbehaves (see :mod:`repro.faults`), this layer — enabled through
:class:`repro.config.FaultConfig` — restores the lossless contract the
protocol state machines above it expect:

* every reliable packet (eager/PIO payloads, RTS/CTS handshake frames,
  rendezvous DATA) carries a per-gate **wire sequence number**;
* the receive side **deduplicates** by wire sequence (retransmissions and
  fabric-duplicated frames are swallowed before they can confuse the
  per-tag :class:`repro.nmad.tags.SequenceTracker`) and **acknowledges**
  every fresh reliable frame with an ACK control frame — duplicates are
  re-acknowledged, since a duplicate usually means the first ACK was lost;
* the send side keeps unacknowledged packets and **retransmits** on timeout
  with exponential backoff. Payload frames time out after ``ack_timeout_us``;
  the rendezvous handshake frames (RTS/CTS) use the separate
  ``rts_timeout_us``. Acking the RTS itself (rather than waiting for the
  CTS) matters: the CTS only comes back once the application posts the
  matching receive, which can be arbitrarily late — retries must stop when
  the RTS is *delivered*, and a lost CTS is re-sent by the receiver's own
  timer;
* packets flagged corrupted by the injector are discarded *without* an ACK,
  so corruption degenerates to loss and the same retransmit path heals it;
* repeated timeouts on one rail put it in a :class:`DegradedLink` state:
  new submissions and retransmissions reroute to an alternate rail of the
  gate (the multirail machinery — including the ``split`` strategy — simply
  sees a reduced rail set) until the link sits quiet for
  ``degraded_restore_us`` or a delivery on it proves it healthy again.

Retransmit timers fire in hardware (sim-callback) context: they only
enqueue a session op and notify the session's engine, which re-arms its
detection paths; the actual resubmission is charged to whichever execution context
runs the op, identically to any other deferred operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..network.message import Packet, PacketKind
from .strategies.base import RailInfo
from .wire import (
    AckFrame,
    data_frame,
    from_packet,
    is_corrupted,
    mark_wire_seq,
    tx_req_ids,
    wire_seq_of,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.events import EventHandle
    from .core import Gate, NmSession
    from .drivers.base import Driver, ExecContext

__all__ = ["DegradedLink", "ReliabilityLayer"]

#: packet kinds using the handshake timeout instead of the payload timeout
_HANDSHAKE_KINDS = (PacketKind.RTS, PacketKind.CTS)


@dataclass
class DegradedLink:
    """A rail currently avoided because its link timed out repeatedly."""

    peer: int
    rail_index: int
    since_us: float
    until_us: float


class _Pending:
    """One unacknowledged reliable packet on the send side."""

    __slots__ = ("key", "gate", "packet", "mode", "attempts", "timer", "rail_index")

    def __init__(
        self, key: tuple[int, int], gate: "Gate", packet: Packet, mode: str, rail_index: int
    ) -> None:
        self.key = key
        self.gate = gate
        self.packet = packet
        self.mode = mode  # "pio" | "eager" | "control" | "zero_copy"
        self.attempts = 0
        self.timer: Optional[EventHandle] = None
        self.rail_index = rail_index


class ReliabilityLayer:
    """Per-session reliability state machine (one per session core)."""

    #: session.stats keys owned by this layer
    STAT_KEYS = (
        "retransmits",
        "rts_retries",
        "timeouts",
        "acks_sent",
        "acks_received",
        "dup_drops",
        "corrupt_drops",
        "gave_up",
        "degraded_events",
    )

    def __init__(self, session: "NmSession") -> None:
        self.session = session
        self.sim = session.sim
        self.cfg = session.timing.faults
        #: next wire sequence per destination peer
        self._next_seq: dict[int, int] = {}
        #: unacked packets by (peer, wire_seq)
        self._pending: dict[tuple[int, int], _Pending] = {}
        #: receive-side dedup per source: (floor, sparse seqs >= floor);
        #: every wire_seq < floor has been seen
        self._rx_seen: dict[int, tuple[int, set[int]]] = {}
        #: consecutive timeouts per (peer, rail_index): (count, last seen at)
        self._rail_timeouts: dict[tuple[int, int], tuple[int, float]] = {}
        #: degraded rails by (peer, rail_index)
        self._degraded: dict[tuple[int, int], DegradedLink] = {}

    # ------------------------------------------------------------- send side

    def track(self, gate: "Gate", packet: Packet, mode: str, rail_index: int) -> None:
        """Assign a wire sequence number and register the packet for
        retransmission. Call before submitting; :meth:`arm` after."""
        if packet.src_node == packet.dst_node:
            return  # shared-memory loopback is not subject to fabric faults
        peer = packet.dst_node
        seq = self._next_seq.get(peer, 0)
        self._next_seq[peer] = seq + 1
        mark_wire_seq(packet, seq)
        key = (peer, seq)
        self._pending[key] = _Pending(key, gate, packet, mode, rail_index)

    def arm(self, ctx: "ExecContext", packet: Packet) -> None:
        """Start (or restart) the ack timeout for a tracked packet, anchored
        at the instant the charged submission work completes."""
        seq = wire_seq_of(packet)
        if seq is None:
            return  # untracked traffic (shm loopback)
        entry = self._pending.get((packet.dst_node, seq))
        if entry is None:
            return
        base = (
            self.cfg.rts_timeout_us
            if entry.packet.kind in _HANDSHAKE_KINDS
            else self.cfg.ack_timeout_us
        )
        # large frames serialize for longer than the ack round-trip floor:
        # budget two drain times (data out, margin for the ack) on top
        rail = entry.gate.rails[entry.rail_index]
        base += 2.0 * packet.wire_size / rail.wire_bw
        timeout = base * (self.cfg.backoff_factor ** entry.attempts)
        entry.timer = self.sim.timer(ctx.end + timeout, self._on_timeout, entry.key)

    def select_rail(self, gate: "Gate", preferred: int) -> int:
        """Rail to use for a submission, honouring degraded-link state."""
        self._purge_degraded()
        if (gate.peer, preferred) not in self._degraded:
            return preferred
        for i in range(len(gate.rails)):
            if (gate.peer, i) not in self._degraded:
                return i
        return preferred  # everything degraded: keep trying the original

    def filter_rails(self, gate: "Gate", infos: list[RailInfo]) -> list[RailInfo]:
        """Rail set offered to the strategy with degraded rails removed
        (rerouting reuses the multirail split/selection machinery)."""
        self._purge_degraded()
        healthy = [info for info in infos if (gate.peer, info.index) not in self._degraded]
        return healthy or infos

    def pending_count(self) -> int:
        return len(self._pending)

    def degraded_links(self) -> list[DegradedLink]:
        self._purge_degraded()
        return list(self._degraded.values())

    # ------------------------------------------------------------ timer path

    def _on_timeout(self, key: tuple[int, int]) -> None:
        """Hardware context: no ACK arrived in time."""
        entry = self._pending.get(key)
        if entry is None:
            return
        session = self.session
        session.stats["timeouts"] += 1
        self._note_rail_timeout(entry)
        if entry.attempts >= self.cfg.max_retries:
            session.stats["gave_up"] += 1
            self._pending.pop(key, None)
            # a DATA send waiting on its ACK must not hang forever once the
            # transport abandons it: release the buffer (best effort — after
            # max_retries deliveries the frame almost certainly arrived and
            # only the ACKs were lost, e.g. a peer that stopped polling)
            self._complete_data_reqs(None, entry)
            session.activity_flag.set()
            if session.tracer is not None:
                session._trace_raw(
                    "rel.gave_up", f"n{session.node_index}", f"wire_seq={key[1]} ->n{key[0]}"
                )
            return
        entry.attempts += 1
        session._enqueue_op(
            f"retransmit#{key[1]}->n{key[0]}",
            lambda ctx, k=key: self._op_retransmit(ctx, k),
        )
        # the engine re-arms its detection paths (idle kick / blocking server)
        session._hw_activity()

    def _op_retransmit(self, ctx: "ExecContext", key: tuple[int, int]) -> None:
        """Session op: resubmit one unacked packet (charged to ``ctx``)."""
        entry = self._pending.get(key)
        if entry is None:
            return  # acked while the op sat in the work list
        session = self.session
        if entry.packet.kind in _HANDSHAKE_KINDS:
            session.stats["rts_retries"] += 1
        else:
            session.stats["retransmits"] += 1
            if (
                entry.packet.kind == PacketKind.DATA
                and data_frame(entry.packet).nchunks > 1
            ):
                # pipelined RDV: only this chunk goes out again, not the
                # whole message — count it for the rdv.* observability lane
                session.stats["rdv_chunk_retransmits"] += 1
        entry.rail_index = self.select_rail(entry.gate, entry.rail_index)
        driver = entry.gate.rails[entry.rail_index]
        # the payload still sits in the registered region from the first
        # submission: a retransmit re-posts the descriptor, no host copy
        if entry.mode == "pio":
            driver.submit_pio(ctx, entry.packet)
        elif entry.mode == "control":
            driver.submit_control(ctx, entry.packet)
        elif entry.mode == "zero_copy":
            driver.submit_zero_copy(ctx, entry.packet)
        else:
            driver.submit_eager(ctx, entry.packet, 0)
        self.arm(ctx, entry.packet)
        if session.tracer is not None:
            session._trace_raw(
                "rel.retransmit",
                f"n{session.node_index}",
                f"{entry.packet.kind} wire_seq={key[1]} ->n{key[0]} attempt={entry.attempts}",
            )

    # -------------------------------------------------------- degraded links

    def _decay_window_us(self) -> float:
        """Quiet time after which accumulated rail timeouts go stale.

        A multiple of the ack timeout so the window comfortably spans the
        exponential-backoff gaps of a genuinely dead link (which must still
        trip ``degraded_threshold``) while sporadic timeouts hours apart in
        virtual time no longer count as *consecutive*.
        """
        return self.cfg.ack_timeout_us * self.cfg.degraded_decay_factor

    def _note_rail_timeout(self, entry: _Pending) -> None:
        gate = entry.gate
        rail_key = (gate.peer, entry.rail_index)
        now = self.sim.now
        count, last_at = self._rail_timeouts.get(rail_key, (0, now))
        if count and now - last_at > self._decay_window_us():
            count = 0  # the rail sat quiet past the window: start over
        count += 1
        self._rail_timeouts[rail_key] = (count, now)
        if (
            count >= self.cfg.degraded_threshold
            and len(gate.rails) > 1
            and rail_key not in self._degraded
        ):
            self._degraded[rail_key] = DegradedLink(
                peer=gate.peer,
                rail_index=entry.rail_index,
                since_us=self.sim.now,
                until_us=self.sim.now + self.cfg.degraded_restore_us,
            )
            self.session.stats["degraded_events"] += 1
            if self.session.tracer is not None:
                self.session._trace_raw(
                    "rel.degraded",
                    f"n{self.session.node_index}",
                    f"rail{entry.rail_index}->n{gate.peer}",
                )

    def _purge_degraded(self) -> None:
        now = self.sim.now
        for key in [k for k, d in self._degraded.items() if d.until_us <= now]:
            del self._degraded[key]
            self._rail_timeouts.pop(key, None)

    def _acked(self, entry: _Pending) -> None:
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        rail_key = (entry.gate.peer, entry.rail_index)
        # a delivery proves the link works again: forget accumulated
        # timeouts and lift any degradation early
        self._rail_timeouts.pop(rail_key, None)
        self._degraded.pop(rail_key, None)

    # ---------------------------------------------------------- receive side

    def on_rx(self, ctx: "ExecContext", driver: "Driver", packet: Packet) -> bool:
        """Filter one arrived packet. Returns False when the packet was
        consumed here (ACK, corrupted, or duplicate) and must not reach the
        protocol handlers."""
        session = self.session
        if is_corrupted(packet):
            # bad checksum: discard silently, whatever the frame claims to
            # be — a corrupted ACK must not cancel retransmission. No ACK
            # means the sender's timeout turns corruption into loss and
            # retransmits.
            ctx.charge(driver.rx_consume_us)
            session.stats["corrupt_drops"] += 1
            return False
        if packet.kind == PacketKind.ACK:
            ctx.charge(driver.rx_consume_us)
            self._on_ack(ctx, packet)
            return False
        wire_seq = wire_seq_of(packet)
        if wire_seq is None:
            return True  # unreliable traffic (shm loopback, legacy frames)
        if self._rx_mark_seen(packet.src_node, wire_seq):
            self._send_ack(ctx, driver, packet.src_node, wire_seq)
            return True
        # duplicate: our ACK may have been the lost frame — acknowledge again
        session.stats["dup_drops"] += 1
        self._send_ack(ctx, driver, packet.src_node, wire_seq)
        return False

    def _send_ack(self, ctx: "ExecContext", driver: "Driver", src: int, wire_seq: int) -> None:
        ack = AckFrame(ack_seq=wire_seq).to_packet(self.session.node_index, src)
        driver.submit_control(ctx, ack)
        self.session.stats["acks_sent"] += 1

    def _on_ack(self, ctx: "ExecContext", packet: Packet) -> None:
        frame = from_packet(packet)
        assert isinstance(frame, AckFrame)  # from_packet checked the kind
        key = (packet.src_node, frame.ack_seq)
        entry = self._pending.pop(key, None)
        if entry is None:
            return  # duplicate ACK for an already-settled packet
        self.session.stats["acks_received"] += 1
        self._acked(entry)
        self._complete_data_reqs(ctx, entry)

    def _complete_data_reqs(self, ctx: "Optional[ExecContext]", entry: _Pending) -> None:
        """The peer acknowledged a DATA frame (or the transport gave up on
        it): the pinned application buffer is released and the rendezvous
        send completes."""
        if entry.packet.kind != PacketKind.DATA:
            return
        session = self.session
        for req_id in tx_req_ids(entry.packet):
            req = session._sends.get(req_id)
            if req is None:
                continue
            if ctx is not None:
                ctx.schedule_after(0.0, session._complete_send_chunk, req)
            else:  # give-up path runs in timer context: complete directly
                session._complete_send_chunk(req)

    def _rx_mark_seen(self, src: int, wire_seq: int) -> bool:
        """Record ``wire_seq`` from ``src``; False if it was already seen."""
        floor, sparse = self._rx_seen.get(src, (0, set()))
        if wire_seq < floor or wire_seq in sparse:
            return False
        sparse.add(wire_seq)
        while floor in sparse:
            sparse.discard(floor)
            floor += 1
        self._rx_seen[src] = (floor, sparse)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ReliabilityLayer n{self.session.node_index} pending={len(self._pending)} "
            f"degraded={sorted(self._degraded)}>"
        )
