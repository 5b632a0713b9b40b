"""Edge-case and error-path tests for the nmad session."""

from __future__ import annotations

import pytest

from repro.config import TimingModel
from repro.errors import ProtocolError, RequestError
from repro.marcel.scheduler import MarcelScheduler
from repro.nmad.core import Gate, NmSession
from repro.nmad.drivers.base import ExecContext
from repro.nmad.drivers.shm import ShmDriver
from repro.nmad.progress import EngineBase
from repro.nmad.wire import CtsFrame, DataChunkFrame, EagerFrame
from repro.network.shm import ShmChannel
from repro.units import KiB


@pytest.fixture
def session(sim, node8):
    scheduler = MarcelScheduler(sim, node8)
    return NmSession(sim, scheduler, node8)


@pytest.fixture
def wired_session(sim, session):
    shm = ShmChannel(sim, 0, TimingModel().shm)
    drv = ShmDriver(shm, TimingModel().host)
    session.add_gate(0, [drv])
    return session, drv


def _ctx(sim):
    return ExecContext(sim, 0, sim.now)


class TestGate:
    def test_needs_rails(self):
        with pytest.raises(ProtocolError, match="at least one rail"):
            Gate(1, [])

    def test_seq_per_tag(self, wired_session):
        session, _ = wired_session
        gate = session.gate_to(0)
        assert gate.next_seq(0) == 0
        assert gate.next_seq(0) == 1
        assert gate.next_seq(7) == 0  # independent per tag

    def test_duplicate_gate_rejected(self, sim, wired_session):
        session, drv = wired_session
        with pytest.raises(ProtocolError, match="already exists"):
            session.add_gate(0, [drv])

    def test_missing_gate_rejected(self, wired_session):
        session, _ = wired_session
        with pytest.raises(ProtocolError, match="no gate"):
            session.gate_to(5)


class TestErrorPaths:
    def test_cts_for_unknown_send(self, sim, wired_session):
        session, drv = wired_session
        bogus = CtsFrame(send_req_id=424242, recv_req_id=1).to_packet(0, 0)
        with pytest.raises(ProtocolError, match="unknown send"):
            session.rdv.on_rx_cts(_ctx(sim), drv, bogus)

    def test_data_for_unknown_recv(self, sim, wired_session):
        session, drv = wired_session
        bogus = DataChunkFrame(tx_req_id=1, recv_req_id=99, length=100).to_packet(0, 0)
        with pytest.raises(ProtocolError, match="unknown rendezvous recv"):
            session.rdv.on_rx_data(_ctx(sim), drv, bogus)

    def test_reassembly_overflow_detected(self, sim, wired_session):
        session, _ = wired_session
        frame = EagerFrame(
            req_id=1, src=0, tag=0, seq=0, size=100, offset=0, length=80, nchunks=2
        )
        assert session.eager._reassemble(frame) is None
        frame2 = EagerFrame(
            req_id=1, src=0, tag=0, seq=0, size=100, offset=80, length=40, nchunks=2
        )  # 80+40 > 100
        with pytest.raises(ProtocolError, match="overflow"):
            session.eager._reassemble(frame2)

    def test_message_overflows_posted_recv(self, sim, wired_session):
        session, drv = wired_session
        recv = session.make_recv(0, 0, size=10)
        session.post_recv(recv)
        frame = EagerFrame(
            req_id=5, src=0, tag=0, seq=0, size=100, offset=0, length=100,
            nchunks=1, payload="too-big",
        )
        with pytest.raises(RequestError, match="overflows"):
            session.eager.deliver(_ctx(sim), drv, frame)


class TestProgressBudget:
    def test_max_ops_bounds_activation(self, sim, wired_session):
        session, _ = wired_session
        ran = []
        for i in range(5):
            session._enqueue_op(lambda ctx, i: ran.append(i), i)
        ctx = _ctx(sim)
        session.progress(ctx, max_ops=2, poll=False)
        assert ran == [0, 1]
        assert session.has_pending_ops()

    def test_progress_returns_whether_work_done(self, sim, wired_session):
        session, _ = wired_session
        ctx = _ctx(sim)
        assert not session.progress(ctx, poll=False)
        session._enqueue_op(lambda c: None)
        assert session.progress(_ctx(sim), poll=False)

    def test_ops_listener_fires(self, sim, wired_session):
        """An enqueued op notifies the session's engine, once."""
        session, _ = wired_session
        session._enqueue_op(lambda c: None)  # no engine yet: no-op
        fired = []

        class Recorder(EngineBase):
            def notify_ops(self):
                fired.append(True)

        Recorder(session)
        session._enqueue_op(lambda c: None)
        assert fired == [True]


class TestCompletionPlumbing:
    def test_completion_event_pretriggered_for_done_request(self, sim, wired_session):
        session, _ = wired_session
        req = session.make_recv(0, 0, 10)
        req.complete(5.0)
        ev = session.completion_event(req)
        assert ev.triggered
        assert ev.value is req

    def test_on_request_complete_callbacks(self, sim, wired_session):
        session, _ = wired_session
        seen = []
        session.on_request_complete.append(seen.append)
        req = session.make_recv(0, 0, 10)
        session._complete_req(req)
        assert seen == [req]

    def test_double_complete_is_noop(self, sim, wired_session):
        session, _ = wired_session
        req = session.make_recv(0, 0, 10)
        session._complete_req(req)
        session._complete_req(req)  # split-chunk path tolerates repeats
        assert req.done


class TestFlushRequeue:
    """Regression for the lost-send bug: sends pushed while earlier plans
    were still queued must eventually flush (one packet per op execution,
    §2.1 'messages are submitted once at a time')."""

    def test_interleaved_posts_all_flush(self, sim, wired_session):
        session, _ = wired_session
        ctx = ExecContext(sim, 0, sim.now)
        r1 = session.make_send(0, 0, 64, payload=1)
        r2 = session.make_send(0, 0, 64, payload=2)
        session.post_send(r1)
        session.post_send(r2)
        # execute the single queued flush op: submits ONE packet, requeues
        fn, args = session.ops.popleft()
        fn(ctx, *args)
        assert session.has_pending_ops(), "second packet needs a requeued op"
        # a third send arrives while a plan is still queued
        r3 = session.make_send(0, 0, 64, payload=3)
        session.post_send(r3)
        # drain everything
        guard = 0
        while session.ops:
            fn, args = session.ops.popleft()
            fn(ExecContext(sim, 0, sim.now), *args)
            guard += 1
            assert guard < 20, "flush requeue loop diverged"
        sim.run()
        gate = session.gate_to(0)
        assert not gate.pending_plans
        assert gate.strategy.pending_count() == 0
        # all three packets reached the channel
        rx = [r for r in session.drivers[0].hw_cq if r.event == "rx"]
        assert len(rx) == 3

    def test_one_packet_per_op_execution(self, sim, wired_session):
        session, drv = wired_session
        for i in range(4):
            session.post_send(session.make_send(0, i, 64, payload=i))
        executions = 0
        while session.ops:
            fn, args = session.ops.popleft()
            fn(ExecContext(sim, 0, sim.now), *args)
            executions += 1
        assert executions == 4  # one submission event per packet
