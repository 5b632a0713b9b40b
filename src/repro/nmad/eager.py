"""Eager/PIO protocol engine (§2.2 of the paper).

Small messages are *buffered* sends: the payload is copied (eager) or
CPU-pushed (PIO) into the wire packet at submission and the send request
completes immediately — only the rendezvous DATA leg of
:class:`repro.nmad.rdv.RdvEngine` waits for DMA drain. On the receive
side, arrived :class:`repro.nmad.wire.EagerFrame` descriptors are
multirail-reassembled, sequence-ordered, and delivered either straight
into a matching posted receive or — unexpected — copied into the
:class:`repro.nmad.unexpected.UnexpectedStore` (§2.2: "only necessary
copies are performed").

The session (:class:`repro.nmad.core.NmSession`) calls this engine
directly for PIO/eager sends, EAGER/PIO packets, ordered
:class:`~repro.nmad.wire.EagerFrame` delivery and unexpected eager
matches; it never inspects eager frames itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import ProtocolError, RequestError
from ..network.message import Packet
from .drivers.base import Driver, ExecContext
from .request import NmRequest, ReqState
from .unexpected import UnexpectedEager
from .wire import EagerFrame, eager_frames, eager_to_packet

if TYPE_CHECKING:  # pragma: no cover - engines are owned by the session
    from .core import Gate, NmSession

__all__ = ["EagerEngine"]


class _Reassembly:
    """Accumulated state of one multirail-split eager message."""

    __slots__ = ("received", "payload")

    def __init__(self) -> None:
        self.received = 0
        self.payload: Any = None


class EagerEngine:
    """Protocol engine for the PIO and eager (copied) send paths."""

    def __init__(self, session: "NmSession") -> None:
        self.session = session
        #: multirail reassembly: (src, send req_id) -> accumulated state
        self._reassembly: dict[tuple[int, int], _Reassembly] = {}

    # ------------------------------------------------------------------ TX side

    def push_send(self, req: NmRequest, gate: "Gate") -> None:
        """Hand a PIO/eager send to the gate's optimizer strategy and make
        sure a flush op is queued — or an aggregation window opened — to
        drive it out."""
        gate.strategy.push(req)
        if gate.flush_pending:
            return
        window = getattr(gate.strategy, "flush_window_us", 0.0)
        if window > 0.0:
            session = self.session
            if gate in session.windowed_gates:
                return  # window already open: the push joined the batch
            # Defer the flush up to `window` µs so trailing sends can join
            # the packet. An idle core closes the window early through
            # progress() (it sees the gate via has_pending_ops and pays the
            # normal dispatch cost first — the accumulation gap); the timer
            # is the backstop when every core stays busy.
            session.windowed_gates[gate] = self.op_flush_gate
            gate.strategy.windows_opened += 1
            session.sim.schedule_at(
                session.sim.now + window,
                self._window_timer,
                gate,
            )
            if session.engine is not None:
                session.engine.notify_ops()
            return
        gate.flush_pending = True
        self.session._enqueue_op(self.op_flush_gate, gate)

    def _window_timer(self, gate: "Gate") -> None:
        """Backstop for an aggregation window nobody closed early: promote
        the deferred flush to a real queued op. Runs in timer (hardware)
        context — no CPU is charged here; the op's executor pays."""
        session = self.session
        if session.windowed_gates.pop(gate, None) is None:
            return  # already closed by an idle core or an inline drain
        gate.strategy.window_timer_flushes += 1
        if not gate.flush_pending:
            gate.flush_pending = True
            session._enqueue_op(self.op_flush_gate, gate)
        # parked waiters poll the activity flag, not the op queue
        session.activity_flag.set()

    def op_flush_gate(self, ctx: ExecContext, gate: "Gate") -> None:
        """Submit ONE wire packet; requeue if the gate still has more.

        Draining the strategy happens up front (so aggregation sees the
        whole burst), but submissions are one-per-event: concurrent idle
        cores and waiting threads interleave on the remaining packets
        instead of one executor hogging an entire burst.
        """
        session = self.session
        gate.flush_pending = False
        # any flush closes an open window: a stale entry would cost a
        # useless drain attempt later
        session.windowed_gates.pop(gate, None)
        if not gate.pending_plans:
            infos = gate.rail_infos
            if session.reliability is not None:
                infos = session.reliability.filter_rails(gate, infos)
            gate.pending_plans.extend(gate.strategy.take_plans(infos))
        if not gate.pending_plans:
            return
        plans = [gate.pending_plans.popleft()]
        # sends pushed while earlier plans were queued are still in the
        # strategy — the requeue must cover them too, or they are lost
        if (gate.pending_plans or gate.strategy.pending_count() > 0) and not gate.flush_pending:
            gate.flush_pending = True
            session._enqueue_op(self.op_flush_gate, gate)
        for plan in plans:
            driver = gate.rails[plan.rail_index]
            frames = []
            # the slowest copy in the packet sets its NUMA factor
            factor = 0.0
            for e in plan.entries:
                frames.append(
                    EagerFrame(
                        e.req.req_id,
                        session.node_index,
                        e.req.tag,
                        e.req.seq,
                        e.req.size,
                        e.offset,
                        e.length,
                        e.nchunks,
                        e.req.payload,
                    )
                )
                e.req.init_tx_chunks(e.nchunks)
                numa = session._numa_factor(ctx, e.req.producer_core)
                if numa > factor:
                    factor = numa
            packet = eager_to_packet(frames, plan.mode, session.node_index, gate.peer)
            for e in plan.entries:
                if e.req.state == ReqState.QUEUED:
                    e.req.transition(ReqState.SUBMITTED)
                    e.req.submitted_at = ctx.end
            if session.reliability is not None:
                session.reliability.track(gate, packet, plan.mode, plan.rail_index)
            hw = driver.plan_submit(ctx, packet, plan.mode, packet.payload_size, factor)
            if plan.mode != "pio":
                session.stats["copies_bytes"] += packet.payload_size
            if session.reliability is not None:
                session.reliability.arm(ctx, packet)
            # Both PIO and eager are *buffered* sends: the request completes
            # as soon as the CPU pushed/copied the payload (MX semantics —
            # the application buffer is reusable immediately). Only the
            # zero-copy rendezvous DATA completes at DMA drain. One event
            # rings the doorbell and then runs every completion inline.
            ctx.schedule_after(0.0, self._fused_submit, hw, [e.req for e in plan.entries])
            if session.tracer is not None:
                session._trace_raw(
                    "nmad.submit", f"gate->n{gate.peer}", f"{plan.mode} {packet.payload_size}B"
                )

    def _fused_submit(self, hw: Callable[[], None], reqs: list[NmRequest]) -> None:
        """The eager/PIO submit event: hardware doorbell, then every
        per-entry send completion inline, in plan order. Events the
        doorbell creates (NIC wakeups, fabric arrival) take their sequence
        numbers from inside this event."""
        hw()
        complete = self.session._complete_send_chunk
        for req in reqs:
            complete(req)

    # ------------------------------------------------------------------ RX side

    def on_rx(self, ctx: ExecContext, driver: Driver, packet: Packet) -> None:
        """Arrived EAGER/PIO packet: reassemble, order, deliver."""
        session = self.session
        for frame in eager_frames(packet):
            whole = frame
            if frame.nchunks > 1:
                merged = self._reassemble(frame)
                if merged is None:
                    continue
                whole = merged
            for ordered in session.seq_tracker.submit(whole.src, whole.tag, whole.seq, whole):
                session.deliver_in_order(ctx, driver, ordered)

    def _reassemble(self, frame: EagerFrame) -> Optional[EagerFrame]:
        """Fold one multirail chunk in; the merged whole-message frame once
        every chunk of the send has arrived, else None."""
        key = (frame.src, frame.req_id)
        state = self._reassembly.get(key)
        if state is None:
            state = self._reassembly[key] = _Reassembly()
        state.received += frame.length
        if frame.offset == 0:
            state.payload = frame.payload
        if state.received < frame.size:
            return None
        if state.received > frame.size:
            raise ProtocolError(
                f"reassembly overflow for send#{frame.req_id}: "
                f"{state.received} > {frame.size}"
            )
        self._reassembly.pop(key)
        return frame.merged(state.payload)

    def deliver(self, ctx: ExecContext, driver: Driver, frame: EagerFrame) -> None:
        """Sequence-ordered delivery of one whole eager message."""
        session = self.session
        req = session.match_table.match(frame.src, frame.tag)
        ctx.charge(driver.rx_consume_us)
        if req is not None:
            # expected: the NIC placed the data straight into the app buffer
            session.stats["expected_eager"] += 1
            if frame.size > req.size:
                raise RequestError(
                    f"message of {frame.size}B overflows posted recv of {req.size}B"
                )
            req.data = frame.payload
            req.received_size = frame.size
            req.source = frame.src
            ctx.schedule_after(0.0, session._complete_req, req)
            if session.tracer is not None:
                session._trace("nmad.recv_expected", req)
        else:
            # unexpected: pay the copy into the unexpected buffer now
            session.stats["unexpected_eager"] += 1
            ctx.charge(session.timing.host.memcpy_us(frame.size))
            session.stats["copies_bytes"] += frame.size
            session.unexpected.add(UnexpectedEager.from_frame(frame, arrived_at=session.sim.now))

    # ------------------------------------------------------- unexpected match

    def match_unexpected(self, req: NmRequest, item: UnexpectedEager) -> None:
        """A posted recv matched a buffered unexpected eager payload: queue
        the copy-out op (the second copy of the unexpected path)."""
        self.session._enqueue_op(self.op_copy_out, req, item)

    def op_copy_out(self, ctx: ExecContext, req: NmRequest, item: UnexpectedEager) -> None:
        """Second copy of the unexpected path: unexpected buffer → app."""
        session = self.session
        ctx.charge(session.timing.host.memcpy_us(item.size))
        session.stats["copies_bytes"] += item.size
        req.data = item.payload
        req.received_size = item.size
        req.source = item.source
        ctx.schedule_after(0.0, session._complete_req, req)
        if session.tracer is not None:
            session._trace("nmad.copy_out", req)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EagerEngine n{self.session.node_index} reassembling={len(self._reassembly)}>"
