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

Every reliable frame passes :meth:`ReliabilityLayer.on_rx` once and
:meth:`ReliabilityLayer.arm` once per submission, so both stay lean. They
read the two wire-level adornments, ``corrupted`` and ``wire_seq``,
straight off ``packet.headers``. The receive-side dedup raises its floor
in place for an in-order frame. An ACK is built as one packet around an
:class:`~repro.nmad.wire.AckFrame`. The rail choices skip the
degraded-link purge until the earliest degradation is due to lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..network.message import Packet, PacketKind
from .strategies.base import RailInfo
from .wire import AckFrame, data_frame, mark_wire_seq, tx_req_ids

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
        #: receive-side dedup per source: [floor, sparse seqs > floor];
        #: every wire_seq < floor has been seen
        self._rx_seen: dict[int, list] = {}
        #: consecutive timeouts per (peer, rail_index): (count, last seen at)
        self._rail_timeouts: dict[tuple[int, int], tuple[int, float]] = {}
        #: degraded rails by (peer, rail_index)
        self._degraded: dict[tuple[int, int], DegradedLink] = {}
        #: no degradation expires before this instant (inf when none is
        #: left): the rail choices skip the purge until then
        self._next_restore_us = math.inf
        #: quiet time after which accumulated rail timeouts go stale. A
        #: multiple of the ack timeout so the window comfortably spans the
        #: exponential-backoff gaps of a genuinely dead link (which must
        #: still trip ``degraded_threshold``) while sporadic timeouts hours
        #: apart in virtual time no longer count as *consecutive*.
        self.decay_window_us = self.cfg.ack_timeout_us * self.cfg.degraded_decay_factor

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
        headers = packet.headers
        if "wire_seq" not in headers:
            return  # untracked traffic (shm loopback)
        try:
            entry = self._pending[(packet.dst_node, headers["wire_seq"])]
        except KeyError:
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
        entry.timer = self.sim.timer(
            ctx.start + ctx.cpu_us + timeout, self._on_timeout, entry.key
        )

    def select_rail(self, gate: "Gate", preferred: int) -> int:
        """Rail to use for a submission, honouring degraded-link state."""
        if self.sim.now >= self._next_restore_us:
            self._purge_degraded()
        degraded = self._degraded
        if not degraded or (gate.peer, preferred) not in degraded:
            return preferred
        for i in range(len(gate.rails)):
            if (gate.peer, i) not in degraded:
                return i
        return preferred  # everything degraded: keep trying the original

    def filter_rails(self, gate: "Gate", infos: list[RailInfo]) -> list[RailInfo]:
        """Rail set offered to the strategy with degraded rails removed
        (rerouting reuses the multirail split/selection machinery). Returns
        ``infos`` itself when no rail is removed, and when every rail is
        degraded (keep trying them all)."""
        if self.sim.now >= self._next_restore_us:
            self._purge_degraded()
        degraded = self._degraded
        if not degraded:
            return infos
        peer = gate.peer
        healthy = [info for info in infos if (peer, info.index) not in degraded]
        if not healthy or len(healthy) == len(infos):
            return infos
        return healthy

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
        session._enqueue_op(self._op_retransmit, key)
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

    def _note_rail_timeout(self, entry: _Pending) -> None:
        gate = entry.gate
        rail_key = (gate.peer, entry.rail_index)
        now = self.sim.now
        count, last_at = self._rail_timeouts.get(rail_key, (0, now))
        if count and now - last_at > self.decay_window_us:
            count = 0  # the rail sat quiet past the window: start over
        count += 1
        self._rail_timeouts[rail_key] = (count, now)
        if (
            count >= self.cfg.degraded_threshold
            and len(gate.rails) > 1
            and rail_key not in self._degraded
        ):
            until_us = now + self.cfg.degraded_restore_us
            self._degraded[rail_key] = DegradedLink(
                peer=gate.peer, rail_index=entry.rail_index, since_us=now, until_us=until_us
            )
            if until_us < self._next_restore_us:
                self._next_restore_us = until_us
            self.session.stats["degraded_events"] += 1
            if self.session.tracer is not None:
                self.session._trace_raw(
                    "rel.degraded",
                    f"n{self.session.node_index}",
                    f"rail{entry.rail_index}->n{gate.peer}",
                )

    def _purge_degraded(self) -> None:
        """Lift every degradation whose restore time has come."""
        now = self.sim.now
        for key in [k for k, d in self._degraded.items() if d.until_us <= now]:
            del self._degraded[key]
            self._rail_timeouts.pop(key, None)
        # an ACK may have lifted the earliest one already: recompute
        self._next_restore_us = min(
            [d.until_us for d in self._degraded.values()], default=math.inf
        )

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
        protocol handlers.

        The wire-level adornments are read straight off ``packet.headers``
        (the fabric sets ``corrupted`` only to True, :meth:`track` sets
        ``wire_seq`` only to an int), and ``rx_consume_us``, a checked
        non-negative model constant, is added to ``ctx`` directly.
        """
        headers = packet.headers
        if "corrupted" in headers:
            # bad checksum: discard silently, whatever the frame claims to
            # be — a corrupted ACK must not cancel retransmission. No ACK
            # means the sender's timeout turns corruption into loss and
            # retransmits.
            ctx.cpu_us += driver.rx_consume_us
            self.session.stats["corrupt_drops"] += 1
            return False
        if packet.kind == PacketKind.ACK:
            ctx.cpu_us += driver.rx_consume_us
            self._on_ack(ctx, packet)
            return False
        if "wire_seq" not in headers:
            return True  # unreliable traffic (shm loopback, legacy frames)
        wire_seq = headers["wire_seq"]
        src = packet.src_node
        fresh = self._rx_mark_seen(src, wire_seq)
        if not fresh:
            # duplicate: our ACK may have been the lost frame — acknowledge
            # again
            self.session.stats["dup_drops"] += 1
        self._send_ack(ctx, driver, src, wire_seq)
        return fresh

    def _send_ack(self, ctx: "ExecContext", driver: "Driver", src: int, wire_seq: int) -> None:
        session = self.session
        driver.submit_control(
            ctx, Packet(PacketKind.ACK, session.node_index, src, 0, {"frame": AckFrame(wire_seq)})
        )
        session.stats["acks_sent"] += 1

    def _on_ack(self, ctx: "ExecContext", packet: Packet) -> None:
        key = (packet.src_node, packet.headers["frame"].ack_seq)
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
        try:
            seen = self._rx_seen[src]
        except KeyError:
            seen = self._rx_seen[src] = [0, set()]
        floor, sparse = seen
        if wire_seq < floor or wire_seq in sparse:
            return False
        if wire_seq != floor:
            sparse.add(wire_seq)  # ahead of a gap
            return True
        # the next in order: raise the floor past every seq seen beyond it
        floor += 1
        while floor in sparse:
            sparse.discard(floor)
            floor += 1
        seen[0] = floor
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ReliabilityLayer n{self.session.node_index} pending={len(self._pending)} "
            f"degraded={sorted(self._degraded)}>"
        )
