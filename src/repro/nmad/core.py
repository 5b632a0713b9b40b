"""NewMadeleine session: per-node state and protocol dispatch.

One :class:`NmSession` lives on each node (the paper's "one MPI process
per node"). The protocol state machines live in
:class:`repro.nmad.eager.EagerEngine` (``session.eager``) and
:class:`repro.nmad.rdv.RdvEngine` (``session.rdv``); the session keeps the
gates (:mod:`repro.nmad.gate`), the matching machinery (posted-receive
table, sequence tracker, unexpected store) and the deferred-op work list
the progression engines drain (§2.1, Fig. 1). Its poll loop takes
completion records straight off each rail's hardware queue and calls the
protocol engines directly, chosen by ``Protocol``, ``PacketKind``, frame
type and unexpected-item type.

Events travel up through two direct paths: the session notifies its one
progression engine (``session.engine``) of queued ops and of hardware
activity, and announces every finished request to the
``on_request_complete`` listeners.

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
from ..network.message import CompletionRecord, Packet, PacketKind
from ..network.registration import MemoryRegistry
from ..sim.kernel import Simulator
from ..sim.tracing import Tracer
from ..topology.machine import Node
from ..topology.numa import NumaModel
from .drivers.base import Driver, ExecContext
from .eager import EagerEngine
from .gate import Gate
from .progress import EngineBase
from .rdv import RDV_STAT_KEYS, RdvEngine
from .reliability import ReliabilityLayer
from .request import NmRequest, Protocol, ReqState
from .strategies import Strategy
from .tags import ANY, MatchTable, SequenceTracker
from .unexpected import ProbeInfo, UnexpectedEager, UnexpectedStore
from .wire import EagerFrame, tx_req_ids

__all__ = ["Gate", "NmSession"]

#: a deferred operation body: runs under an execution context (its first
#: argument, then the arguments it was queued with), returns nothing
OpFn = Callable[..., None]


class NmSession:
    """Per-node communication session: state, dispatch and the two
    protocol engines."""

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
        #: the next request id, from the counter every session of the
        #: runtime shares; the counter's own ``__next__`` profiles apart
        #: from the ``builtins.next`` frame other layers share
        self._next_req_id = sim.req_ids.__next__
        self.scheduler = scheduler
        self.node = node
        self.node_index = node.index
        self.timing = timing or TimingModel()
        self.numa = numa
        #: callers test it for None before any trace call
        self.tracer = tracer
        self.gates: dict[int, Gate] = {}
        self.drivers: list[Driver] = []
        #: each driver's ``hw_cq``: ``any(session.hw_cqs)`` tells whether
        #: a poll would find a completion
        self.hw_cqs: list[deque[CompletionRecord]] = []
        self.registry = MemoryRegistry(self.timing.nic)
        self.match_table = MatchTable()
        self.seq_tracker = SequenceTracker()
        self.unexpected = UnexpectedStore()
        #: deferred ops, each ``(fn, args)``: run as ``fn(ctx, *args)``
        self.ops: deque[tuple[OpFn, tuple[Any, ...]]] = deque()
        #: gates with an open aggregation window: insertion-ordered so the
        #: draining order is deterministic (never a hash-ordered set). The
        #: value closes the window — called as ``value(ctx, gate)``, it
        #: flushes the gate under the given execution context. Counted by
        #: :meth:`has_pending_ops` so idle cores, waiters, and inline drains
        #: all see the deferred work.
        self.windowed_gates: dict[Gate, OpFn] = {}
        #: in-flight sends by req_id (tx completion / CTS lookup)
        self._sends: dict[int, NmRequest] = {}
        #: level-triggered flag set on any driver activity (baseline waits)
        self.activity_flag = ThreadFlag(scheduler, name=f"n{self.node_index}.nm.activity")
        #: the progression engine told about queued ops and hardware
        #: activity; set by :class:`repro.nmad.progress.EngineBase`
        self.engine: Optional[EngineBase] = None
        #: listeners called with each finished request, in registration
        #: order — the one place a completion is announced. They run in
        #: whatever context completed the request and must not block or
        #: charge CPU; real work goes through :meth:`defer`.
        self.on_request_complete: list[Callable[[NmRequest], None]] = []
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
        #: eager/PIO protocol engine (small buffered sends)
        self.eager = EagerEngine(self)
        #: rendezvous protocol engine (RTS/CTS handshake + data phase)
        self.rdv = RdvEngine(self)

    def close(self) -> None:
        """Drop the protocol engines and the queued ops, which hold this
        session (cycles the garbage collector would otherwise have to
        find): a closed session moves no more traffic; its statistics stay
        readable."""
        self.reliability = None
        self.engine = None
        self.on_request_complete.clear()
        self.ops.clear()
        self.windowed_gates.clear()
        if hasattr(self, "eager"):  # idempotent
            del self.eager, self.rdv

    # ------------------------------------------------------------------ wiring

    def add_gate(self, peer: int, rails: list[Driver], strategy: Strategy | None = None) -> Gate:
        if peer in self.gates:
            raise ProtocolError(f"gate to n{peer} already exists")
        gate = Gate(peer, rails, strategy)
        self.gates[peer] = gate
        for rail in rails:
            if rail not in self.drivers:
                self.drivers.append(rail)
                self.hw_cqs.append(rail.hw_cq)
                rail.device.add_activity_listener(self._hw_activity)
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
        req = NmRequest(
            "send", self.node_index, peer, tag, size, payload, buffer_id,
            req_id=self._next_req_id(),
        )
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
        req = NmRequest(
            "recv", self.node_index, source, tag, size, None, buffer_id,
            req_id=self._next_req_id(),
        )
        req.posted_at = self.sim.now
        return req

    def completion_event(self, req: NmRequest) -> ThreadEvent:
        """Lazily created one-shot event for waiters. The event of a done
        request comes triggered and is not kept on the request (see
        :meth:`NmRequest.complete`)."""
        event = req.completion_event
        if event is None:
            event = ThreadEvent(self.scheduler, name=f"req{req.req_id}.done")
            if req.done:
                event.trigger(req)
            else:
                req.completion_event = event
        return event

    # --------------------------------------------------------------- post paths

    def post_send(self, req: NmRequest) -> None:
        """Register a send: choose protocol, hand to its engine. No CPU
        charged here — the caller (engine) charges the registration cost and
        decides when the queued work runs."""
        gate = self.gate_to(req.peer)
        pio_threshold, rdv_threshold = gate.thresholds
        if self.reliability is not None:
            infos = self.reliability.filter_rails(gate, gate.rail_infos)
            if infos is not gate.rail_infos:
                # a degraded rail is out: the protocol must suit the rest
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
        if req.protocol == Protocol.RDV:
            self.rdv.start_send(req)
        else:
            self.eager.push_send(req, gate)
        if self.tracer is not None:
            self._trace("nmad.post_send", req)

    def post_recv(self, req: NmRequest) -> None:
        """Register a receive: match against unexpected arrivals, else post."""
        self.stats["recvs"] += 1
        item = self.unexpected.match(req.peer, req.tag, ANY)
        if item is None:
            self.match_table.post(req)
            if self.tracer is not None:
                self._trace("nmad.post_recv", req)
            return
        if isinstance(item, UnexpectedEager):
            self.eager.match_unexpected(req, item)
        else:
            self.rdv.match_unexpected(req, item)
        if self.tracer is not None:
            self._trace("nmad.post_recv_unexpected", req)

    def probe_unexpected(self, source: int, tag: int) -> Optional[ProbeInfo]:
        """Non-destructive probe of the unexpected store (MPI_Probe
        semantics: the matched item stays buffered)."""
        return self.unexpected.probe(source, tag, ANY)

    # ------------------------------------------------------------------- ops

    def _enqueue_op(self, fn: OpFn, *args: Any) -> None:
        self.ops.append((fn, args))
        if self.engine is not None:
            self.engine.notify_ops()

    def defer(self, fn: OpFn, *args: Any) -> None:
        """Queue ``fn(ctx, *args)`` as a deferred op for the progression
        engines.

        Public entry point for layers above nmad (the MPI nbc schedule
        progressor): the op runs under whichever
        execution context next drains the queue — an idle core under
        PIOMan, the calling thread's next library call under the
        sequential engine — and charges its CPU there.
        """
        self._enqueue_op(fn, *args)

    def _hw_activity(self) -> None:
        """Hardware context: a driver produced a completion, or a
        retransmit timer queued recovery work. Wake baseline waiters
        blocked on the activity flag, then let the engine re-arm its
        detection paths (an engine without any leaves its
        ``notify_activity`` None)."""
        self.activity_flag.set()
        engine = self.engine
        if engine is not None and engine.notify_activity is not None:
            engine.notify_activity()

    # the engines' hot paths inline has_pending_ops, has_completions and
    # has_work
    def has_pending_ops(self) -> bool:
        return bool(self.ops) or bool(self.windowed_gates)

    def has_completions(self) -> bool:
        return any(self.hw_cqs)

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
                fn, args = self.ops.popleft()
                fn(ctx, *args)
            elif self.windowed_gates:
                # no queued op left: close the oldest open aggregation
                # window (insertion order keeps this deterministic)
                gate = next(iter(self.windowed_gates))
                flush = self.windowed_gates.pop(gate)
                flush(ctx, gate)
            else:
                break
            self.stats["ops_executed"] += 1
            did = True
            count += 1
        if poll:
            did |= self.poll_completions(ctx)
        return did

    def poll_completions(self, ctx: ExecContext, max_events: int = 16) -> bool:
        """Poll every rail once; dispatch what surfaced.

        Each poll charges the rail's ``poll_us`` (polling an empty queue is
        not free) and counts on the driver, then takes up to
        ``max_events`` records off its hardware queue and dispatches each
        straight to the protocol engines. Handlers only schedule work and
        never append to a queue, so taking records one at a time handles
        them in the order a harvested batch would.
        """
        did = False
        stats = self.stats
        for driver in self.drivers:
            ctx.cpu_us += driver.poll_us
            driver.polls += 1
            hw_cq = driver.hw_cq
            if not hw_cq:
                continue
            n = len(hw_cq)
            if n > max_events:
                n = max_events
            driver.rx_completions += n
            stats["completions_handled"] += n
            popleft = hw_cq.popleft
            for _ in range(n):
                self._dispatch_wire(ctx, driver, popleft())
            did = True
        return did

    # ------------------------------------------------------ completion handling

    def _dispatch_wire(self, ctx: ExecContext, driver: Driver, rec: CompletionRecord) -> None:
        """Route one completion record of ``driver``'s queue: TX drains
        complete sends; arrived packets pass the reliability filter, then
        go to their protocol engine by packet kind."""
        packet = rec.packet
        if rec.event == "tx_done":
            # only the rendezvous DATA leg completes on DMA drain: PIO/eager
            # completed at submission; control frames complete nothing
            if packet.kind == PacketKind.DATA:
                self._on_tx_done(ctx, packet)
            return
        if self.reliability is not None and not self.reliability.on_rx(ctx, driver, packet):
            return  # consumed at the wire level: ACK, corrupted, or duplicate
        kind = packet.kind
        if kind == PacketKind.EAGER or kind == PacketKind.PIO:
            self.eager.on_rx(ctx, driver, packet)
        elif kind == PacketKind.RTS:
            self.rdv.on_rx_rts(ctx, driver, packet)
        elif kind == PacketKind.CTS:
            self.rdv.on_rx_cts(ctx, driver, packet)
        elif kind == PacketKind.DATA:
            self.rdv.on_rx_data(ctx, driver, packet)
        else:  # pragma: no cover - ACKs are consumed above
            raise ProtocolError(f"unhandled packet kind {kind}")

    def _on_tx_done(self, ctx: ExecContext, packet: Packet) -> None:
        """A rendezvous DATA packet drained: the application buffer was
        involved until the NIC had read it all."""
        if self.reliability is not None and "wire_seq" in packet.headers:
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
        # nothing to do while more chunks are in flight
        if req.tx_chunk_done():
            self._complete_req(req)

    def deliver_in_order(self, ctx: ExecContext, driver: Driver, item: Any) -> None:
        """Route a sequence-ordered descriptor to its protocol engine.

        The reorder buffer interleaves eager and RTS frames of one flow, so
        each drained item is re-dispatched by frame type.
        """
        if isinstance(item, EagerFrame):
            self.eager.deliver(ctx, driver, item)
        else:
            self.rdv.deliver_rts(ctx, driver, item)

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
        ordinary wait/wait_any/event machinery; this announces the
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
        for cb in self.on_request_complete:
            cb(req)
        if self.tracer is not None:
            self._trace("nmad.complete", req)
        # completing a request is activity too: waiters polling on the
        # session flag must re-check
        self.activity_flag.set()

    # ------------------------------------------------------------------- misc

    def _trace(self, category: str, req: NmRequest) -> None:
        self.tracer.record(
            self.sim.now, category, f"n{self.node_index}", f"req#{req.req_id}",
            kind=req.kind, peer=req.peer, tag=req.tag, size=req.size, state=req.state,
        )

    def _trace_raw(self, category: str, where: str, label: str) -> None:
        self.tracer.record(self.sim.now, category, where, label)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} n{self.node_index} gates={sorted(self.gates)} ops={len(self.ops)}>"
