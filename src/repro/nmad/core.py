"""NewMadeleine session core: protocol-agnostic state and dispatch.

One :class:`NmSession` lives on each node (the paper's "one MPI process
per node"). Since the layered refactor it is a thin composition shell: the
protocol state machines live in :class:`repro.nmad.eager.EagerEngine` and
:class:`repro.nmad.rdv.RdvEngine`, while :class:`SessionCore` keeps the
gates (:mod:`repro.nmad.gate`), the matching machinery (posted-receive
table, sequence tracker, unexpected store), the deferred-op work list the
progression engines drain (§2.1, Fig. 1), the **dispatch tables** the
protocol engines register their handlers against (send paths by
``Protocol``, receive handlers by ``PacketKind``, ordered delivery by
frame type, unexpected matches by item type), and the **unified
completion queue** (:class:`repro.nmad.progress.CompletionQueue`) that
wire completions drain through and finished requests are published to.

All CPU costs are charged to the execution context passed in (see
:mod:`repro.nmad.drivers.base`), so the same protocol code is priced
identically whether it runs inline or offloaded — only placement differs,
which is exactly the paper's point.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..config import TimingModel
from ..errors import ProtocolError
from ..marcel.scheduler import MarcelScheduler
from ..marcel.sync import ThreadEvent, ThreadFlag
from ..network.message import Packet, PacketKind
from ..network.registration import MemoryRegistry
from ..sim.kernel import Simulator
from ..sim.tracing import Tracer
from ..topology.machine import Node
from ..topology.numa import NumaModel
from .drivers.base import Driver, ExecContext
from .gate import Gate
from .progress import CompletionQueue, RequestCompletion, WireCompletion
from .reliability import ReliabilityLayer
from .request import NmRequest, Protocol, ReqState
from .strategies import Strategy
from .tags import ANY, MatchTable, SequenceTracker
from .rdv import RDV_STAT_KEYS
from .unexpected import ProbeInfo, UnexpectedStore
from .wire import tx_req_ids, wire_seq_of

__all__ = ["Gate", "SessionCore", "NmSession"]

#: a deferred operation body: runs under an execution context, returns nothing
OpFn = Callable[[ExecContext], None]
#: a registered send path: (request, gate) -> queue the protocol's work
SendPath = Callable[[NmRequest, "Gate"], None]
#: a registered receive handler: (ctx, driver, packet) -> advance the protocol
RxHandler = Callable[[ExecContext, Driver, Packet], None]
#: a registered ordered-delivery handler: (ctx, driver, frame)
OrderHandler = Callable[[ExecContext, Driver, Any], None]
#: a registered unexpected-match path: (recv request, store item)
UnexpectedPath = Callable[[NmRequest, Any], None]


def _trace_noop(*_args: Any, **_kw: Any) -> None:
    """Instance-level `_trace`/`_trace_raw` replacement for untraced sessions."""
    return None


class SessionCore:
    """Protocol-agnostic per-node session state and dispatch.

    Protocol engines (constructed by :class:`NmSession`) register their
    handlers against the four dispatch tables; the core never inspects
    protocol frames itself.
    """

    #: rendezvous data-phase counters (owned by :mod:`repro.nmad.rdv`,
    #: re-exported here for the ``n{i}.rdv.*`` observability lane)
    RDV_STAT_KEYS = RDV_STAT_KEYS

    def __init__(
        self,
        sim: Simulator,
        scheduler: MarcelScheduler,
        node: Node,
        timing: TimingModel | None = None,
        numa: NumaModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.node = node
        self.node_index = node.index
        self.timing = timing or TimingModel()
        self.numa = numa
        self.tracer = tracer
        if tracer is None:
            # hoist the `tracer is None` branch out of the per-event path:
            # untraced sessions dispatch straight to no-ops
            self._trace = _trace_noop  # type: ignore[method-assign]
            self._trace_raw = _trace_noop  # type: ignore[method-assign]
        self.gates: dict[int, Gate] = {}
        self.drivers: list[Driver] = []
        self.registry = MemoryRegistry(self.timing.nic)
        self.match_table = MatchTable()
        self.seq_tracker = SequenceTracker()
        self.unexpected = UnexpectedStore()
        self.ops: deque[tuple[str, OpFn]] = deque()
        #: gates with an open aggregation window: insertion-ordered so the
        #: draining order is deterministic (never a hash-ordered set). The
        #: value closes the window — it flushes the gate under the given
        #: execution context. Counted by :meth:`has_pending_ops` so idle
        #: cores, waiters, and inline drains all see the deferred work.
        self.windowed_gates: dict[Gate, OpFn] = {}
        #: unified completion queue: wire lane + published request records
        self.cq = CompletionQueue()
        #: in-flight sends by req_id (tx completion / CTS lookup)
        self._sends: dict[int, NmRequest] = {}
        # dispatch tables, filled by the protocol engines' constructors
        self._send_paths: dict[Protocol, SendPath] = {}
        self._rx_handlers: dict[str, RxHandler] = {}
        self._order_handlers: dict[type, OrderHandler] = {}
        self._unexpected_paths: dict[type, UnexpectedPath] = {}
        #: level-triggered flag set on any driver activity (baseline waits)
        self.activity_flag = ThreadFlag(scheduler, name=f"n{self.node_index}.nm.activity")
        #: callbacks fired when ops are enqueued (PIOMan wakes idle cores)
        self.on_ops_enqueued: list[Callable[[], None]] = []
        #: callbacks fired when a new driver joins the session
        self.on_driver_added: list[Callable[[Driver], None]] = []
        #: callbacks fired on each completed request
        self.on_request_complete: list[Callable[[NmRequest], None]] = []
        #: callbacks fired when a retransmit timer queued recovery work
        #: (engines re-arm their detection paths: idle kick, blocking server)
        self.on_retransmit_timer: list[Callable[[], None]] = []
        self._core_by_index = {c.core_index: c for c in node.cores}
        # statistics
        self.stats: dict[str, int] = {
            "sends": 0,
            "recvs": 0,
            "pio_sends": 0,
            "eager_sends": 0,
            "rdv_sends": 0,
            "unexpected_eager": 0,
            "unexpected_rts": 0,
            "expected_eager": 0,
            "copies_bytes": 0,
            "ops_executed": 0,
            "completions_handled": 0,
        }
        for key in self.RDV_STAT_KEYS:
            self.stats[key] = 0
        for key in ReliabilityLayer.STAT_KEYS:
            self.stats[key] = 0
        #: ack/retransmit recovery layer (None while the fault model is off,
        #: which keeps the lossless fast path byte-identical to the seed)
        self.reliability: Optional[ReliabilityLayer] = (
            ReliabilityLayer(self) if self.timing.faults.enabled else None
        )

    # ------------------------------------------------------- engine registration

    def register_send_path(self, protocol: Protocol, path: SendPath) -> None:
        """Claim the send path for ``protocol`` (one engine per protocol)."""
        if protocol in self._send_paths:
            raise ProtocolError(f"send path for {protocol} registered twice")
        self._send_paths[protocol] = path

    def register_rx_handler(self, kind: str, handler: RxHandler) -> None:
        """Claim receive dispatch for packets of ``kind``."""
        if kind in self._rx_handlers:
            raise ProtocolError(f"rx handler for {kind} registered twice")
        self._rx_handlers[kind] = handler

    def register_order_handler(self, frame_type: type, handler: OrderHandler) -> None:
        """Claim sequence-ordered delivery of ``frame_type`` descriptors."""
        if frame_type in self._order_handlers:
            raise ProtocolError(f"order handler for {frame_type.__name__} registered twice")
        self._order_handlers[frame_type] = handler

    def register_unexpected_path(self, item_type: type, path: UnexpectedPath) -> None:
        """Claim recv-matching of ``item_type`` unexpected-store items."""
        if item_type in self._unexpected_paths:
            raise ProtocolError(f"unexpected path for {item_type.__name__} registered twice")
        self._unexpected_paths[item_type] = path

    # ------------------------------------------------------------------ wiring

    def add_gate(self, peer: int, rails: list[Driver], strategy: Strategy | None = None) -> Gate:
        if peer in self.gates:
            raise ProtocolError(f"gate to n{peer} already exists")
        gate = Gate(peer, rails, strategy)
        self.gates[peer] = gate
        for rail in rails:
            if rail not in self.drivers:
                self.drivers.append(rail)
                rail.add_activity_listener(self.activity_flag.set)
                for cb in self.on_driver_added:
                    cb(rail)
        return gate

    def gate_to(self, peer: int) -> Gate:
        try:
            return self.gates[peer]
        except KeyError:
            raise ProtocolError(f"n{self.node_index} has no gate to n{peer}") from None

    # ---------------------------------------------------------------- requests

    def make_send(
        self,
        peer: int,
        tag: int,
        size: int,
        payload: Any = None,
        buffer_id: object = None,
        producer_core: Optional[int] = None,
    ) -> NmRequest:
        req = NmRequest("send", self.node_index, peer, tag, size, payload, buffer_id)
        req.posted_at = self.sim.now
        req.producer_core = producer_core
        return req

    def make_recv(
        self,
        source: int,
        tag: int,
        size: int,
        buffer_id: object = None,
    ) -> NmRequest:
        req = NmRequest("recv", self.node_index, source, tag, size, None, buffer_id)
        req.posted_at = self.sim.now
        return req

    def completion_event(self, req: NmRequest) -> ThreadEvent:
        """Lazily created one-shot event for waiters."""
        if req.completion_event is None:
            req.completion_event = ThreadEvent(self.scheduler, name=f"req{req.req_id}.done")
            if req.done:
                req.completion_event.trigger(req)
        return req.completion_event

    # --------------------------------------------------------------- post paths

    def post_send(self, req: NmRequest) -> None:
        """Register a send: choose protocol, hand to its engine. No CPU
        charged here — the caller (engine) charges the registration cost and
        decides when the queued work runs."""
        gate = self.gate_to(req.peer)
        infos = gate.rail_infos()
        if self.reliability is not None:
            infos = self.reliability.filter_rails(gate, infos)
        pio_threshold, rdv_threshold = gate.effective_thresholds(infos)
        req.seq = gate.next_seq(req.tag)
        self.stats["sends"] += 1
        if req.size <= pio_threshold:
            req.protocol = Protocol.PIO
            self.stats["pio_sends"] += 1
        elif req.size <= rdv_threshold:
            req.protocol = Protocol.EAGER
            self.stats["eager_sends"] += 1
        else:
            req.protocol = Protocol.RDV
            self.stats["rdv_sends"] += 1
        req.transition(ReqState.QUEUED)
        self._sends[req.req_id] = req
        path = self._send_paths.get(req.protocol)
        if path is None:  # pragma: no cover - engines cover every protocol
            raise ProtocolError(f"no engine registered for protocol {req.protocol}")
        path(req, gate)
        self._trace("nmad.post_send", req)

    def post_recv(self, req: NmRequest) -> None:
        """Register a receive: match against unexpected arrivals, else post."""
        self.stats["recvs"] += 1
        item = self.unexpected.match(req.peer, req.tag, ANY)
        if item is None:
            self.match_table.post(req)
            self._trace("nmad.post_recv", req)
            return
        path = self._unexpected_paths.get(type(item))
        if path is None:  # pragma: no cover - store only holds registered kinds
            raise ProtocolError(f"unknown unexpected item {item!r}")
        path(req, item)
        self._trace("nmad.post_recv_unexpected", req)

    def probe_unexpected(self, source: int, tag: int) -> Optional[ProbeInfo]:
        """Non-destructive probe of the unexpected store (MPI_Probe
        semantics: the matched item stays buffered)."""
        return self.unexpected.probe(source, tag, ANY)

    # ------------------------------------------------------------------- ops

    def _enqueue_op(self, name: str, fn: OpFn) -> None:
        self.ops.append((name, fn))
        for cb in self.on_ops_enqueued:
            cb()

    def defer(self, name: str, fn: OpFn) -> None:
        """Queue ``fn`` as a deferred op for the progression engines.

        Public entry point for layers above nmad (the MPI nbc schedule
        progressor, RMA window servicing): the op runs under whichever
        execution context next drains the queue — an idle core under
        PIOMan, the calling thread's next library call under the
        sequential engine — and charges its CPU there.
        """
        self._enqueue_op(name, fn)

    def _notify_retransmit(self) -> None:
        """Timer (hardware) context: a retransmit op was just queued. Wake
        baseline waiters blocked on the activity flag and give engines a
        chance to re-arm interrupt-based detection."""
        self.activity_flag.set()
        for cb in self.on_retransmit_timer:
            cb()

    def has_pending_ops(self) -> bool:
        return bool(self.ops) or bool(self.windowed_gates)

    def has_completions(self) -> bool:
        return self.cq.depth > 0 or any(d.has_completions() for d in self.drivers)

    def has_work(self) -> bool:
        return self.has_pending_ops() or self.has_completions()

    def progress(self, ctx: ExecContext, max_ops: Optional[int] = None, poll: bool = True) -> bool:
        """Execute deferred ops, then poll completion queues.

        Charges all CPU to ``ctx``. Returns True if anything was done.
        """
        did = False
        count = 0
        while max_ops is None or count < max_ops:
            if self.ops:
                name, fn = self.ops.popleft()
                fn(ctx)
            elif self.windowed_gates:
                # no queued op left: close the oldest open aggregation
                # window (insertion order keeps this deterministic)
                gate = next(iter(self.windowed_gates))
                flush = self.windowed_gates.pop(gate)
                flush(ctx)
            else:
                break
            self.stats["ops_executed"] += 1
            did = True
            count += 1
        if poll:
            did |= self.poll_completions(ctx)
        return did

    def poll_completions(self, ctx: ExecContext, max_events: int = 16) -> bool:
        """Poll every driver once; dispatch what surfaced.

        Each driver's harvest goes through the unified completion queue's
        wire lane — pushed, then drained straight through the receive
        dispatch table. Push-then-drain per driver keeps the handling order
        identical to dispatching each record inline (handlers never produce
        wire completions synchronously), while giving observability and
        backpressure a single queue to watch.
        """
        did = False
        for driver in self.drivers:
            driver.poll_into(ctx, self.cq, max_events)
            while True:
                wc = self.cq.pop_wire()
                if wc is None:
                    break
                self._dispatch_wire(ctx, wc)
                self.stats["completions_handled"] += 1
                did = True
        return did

    # ------------------------------------------------------ completion handling

    def _dispatch_wire(self, ctx: ExecContext, wc: WireCompletion) -> None:
        """Route one wire completion: TX drains complete sends; arrived
        packets pass the reliability filter, then the kind dispatch table."""
        packet = wc.packet
        if wc.event == "tx_done":
            self._on_tx_done(ctx, packet)
            return
        if self.reliability is not None and not self.reliability.on_rx(ctx, wc.driver, packet):
            return  # consumed at the wire level: ACK, corrupted, or duplicate
        handler = self._rx_handlers.get(packet.kind)
        if handler is None:  # pragma: no cover - ACKs are consumed above
            raise ProtocolError(f"unhandled packet kind {packet.kind}")
        handler(ctx, wc.driver, packet)

    def _on_tx_done(self, ctx: ExecContext, packet: Packet) -> None:
        # Only the rendezvous DATA leg completes on DMA drain: the
        # application buffer is involved until the NIC has read it all.
        # PIO/eager completed at submission; control frames complete nothing.
        if packet.kind != PacketKind.DATA:
            return
        if self.reliability is not None and wire_seq_of(packet) is not None:
            # recovery pins the application buffer until the peer
            # acknowledges (it is the retransmission source): the send
            # completes on ACK — or on give-up — not at DMA drain
            return
        for req_id in tx_req_ids(packet):
            req = self._sends.get(req_id)
            if req is None:
                continue
            ctx.schedule_after(0.0, self._complete_send_chunk, req)

    def _complete_send_chunk(self, req: NmRequest) -> None:
        if not req.tx_chunk_done():
            return  # more chunks still in flight
        if req.done:
            return
        if req.state != ReqState.COMPLETED:
            self._complete_req(req)

    def deliver_in_order(self, ctx: ExecContext, driver: Driver, item: Any) -> None:
        """Route a sequence-ordered descriptor to its protocol handler.

        The reorder buffer interleaves eager and RTS frames of one flow, so
        each drained item is re-dispatched by frame type.
        """
        handler = self._order_handlers.get(type(item))
        if handler is None:  # pragma: no cover - engines cover every frame
            raise ProtocolError(f"no ordered-delivery handler for {item!r}")
        handler(ctx, driver, item)

    # ----------------------------------------------------------------- helpers

    def _numa_factor(self, ctx: ExecContext, producer_core: Optional[int]) -> float:
        if self.numa is None or producer_core is None:
            return 1.0
        executor = self._core_by_index.get(getattr(ctx, "core_index", None))
        producer = self._core_by_index.get(producer_core)
        if executor is None or producer is None:
            return 1.0
        return self.numa.copy_factor(producer, executor)

    # -------------------------------------------------------------- completion

    def complete_local(self, req: NmRequest) -> None:
        """Complete a locally-owned request that never touches the wire.

        Higher layers synthesize proxy requests (e.g. one per nbc
        collective schedule) so multi-step operations plug into the
        ordinary wait/wait_any/event machinery; this publishes the
        completion exactly like a wire-backed request. Idempotent-hostile
        like :meth:`NmRequest.complete`: completing twice is an error.
        """
        if req.done:
            raise ProtocolError(f"request {req.req_id} already completed")
        self._complete_req(req)

    def _complete_req(self, req: NmRequest) -> None:
        if req.done:  # split chunks may race with direct completion paths
            return
        if req.kind == "send":
            self._sends.pop(req.req_id, None)
        req.complete(self.sim.now)
        self.cq.publish(RequestCompletion(req=req, time=self.sim.now))
        for cb in self.on_request_complete:
            cb(req)
        self._trace("nmad.complete", req)
        # completing a request is activity too: waiters polling on the
        # session flag must re-check
        self.activity_flag.set()

    # ------------------------------------------------------------------- misc

    def _trace(self, category: str, req: NmRequest) -> None:
        # sessions built without a tracer rebind this to `_trace_noop`
        assert self.tracer is not None
        self.tracer.record(
            self.sim.now, category, f"n{self.node_index}", f"req#{req.req_id}",
            kind=req.kind, peer=req.peer, tag=req.tag, size=req.size, state=req.state,
        )

    def _trace_raw(self, category: str, where: str, label: str) -> None:
        assert self.tracer is not None
        self.tracer.record(self.sim.now, category, where, label)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} n{self.node_index} gates={sorted(self.gates)} ops={len(self.ops)}>"


class NmSession(SessionCore):
    """Per-node communication session: the core plus its protocol engines."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: MarcelScheduler,
        node: Node,
        timing: TimingModel | None = None,
        numa: NumaModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(sim, scheduler, node, timing=timing, numa=numa, tracer=tracer)
        # engine construction registers the dispatch-table entries
        from .eager import EagerEngine
        from .rdv import RdvEngine

        #: eager/PIO protocol engine (small buffered sends)
        self.eager = EagerEngine(self)
        #: rendezvous protocol engine (RTS/CTS handshake + data phase)
        self.rdv = RdvEngine(self)
