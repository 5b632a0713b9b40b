"""Engine lifecycle regressions: hook deregistration and engine replacement.

Engines used to register scheduler/session/driver hooks they never
removed, so rebuilding an engine on live objects left the stale one
reacting to every event (duplicate kicks, double polling). The session
and the Marcel scheduler now each hold one engine reference
(``session.engine``, ``scheduler.pioman``): constructing an engine points
both at it, and ``close()`` clears whichever still points at it and drops
the engine's completion listener.
"""

from __future__ import annotations

from repro.config import EngineKind
from repro.faults import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.network.message import Packet, PacketKind
from repro.nmad.wire import RtsFrame
from repro.pioman.engine import PiomanEngine


def _hook_counts(nrt):
    sched, sess = nrt.scheduler, nrt.session
    return {
        "marcel": sched.pioman is not None,
        "request_complete": len(sess.on_request_complete),
        "nic_listeners": [len(nic._activity_listeners) for nic in nrt.nics],
    }


def _record_activity(engine):
    """Count the engine's hardware-activity notifications."""
    calls = []
    original = engine.notify_activity

    def notify_activity():
        calls.append(True)
        original()

    engine.notify_activity = notify_activity
    return calls


def test_close_deregisters_every_hook():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    nrt = rt.node(0)
    before = _hook_counts(nrt)
    # request_complete: the engine's hook + the runtime's metrics-latency
    # hook (removed by rt.close(), not by engine.close())
    assert before["request_complete"] == 2
    assert nrt.session.engine is nrt.scheduler.pioman is nrt.engine
    nrt.engine.close()
    after = _hook_counts(nrt)
    assert not after["marcel"]
    assert after["request_complete"] == 1  # only the metrics hook remains
    assert nrt.session.engine is None
    rt.close()
    assert len(nrt.session.on_request_complete) == 0
    # the session's own listener (registered at gate creation) is the
    # only one on each nic, with or without an engine
    assert before["nic_listeners"] == after["nic_listeners"] == [1] * len(nrt.nics)


def test_close_is_idempotent():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    rt.close()
    rt.close()  # second teardown must be a no-op, not a ValueError


def test_rebuild_after_close_does_not_accumulate_hooks():
    """The engine-comparison pattern: tear one engine down, build another
    on the same session — hook populations must not grow."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    nrt = rt.node(0)
    baseline = _hook_counts(nrt)
    nrt.engine.close()
    replacement = PiomanEngine(nrt.session)
    assert _hook_counts(nrt) == baseline
    assert nrt.scheduler.pioman is replacement
    replacement.close()


def test_replacement_engine_alone_receives_session_events():
    """After ``PiomanEngine(session)`` replaces a closed engine, an
    enqueued op, hardware activity and a retransmit timer each reach the
    new engine only."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, faults=FaultPlan.uniform_drop(0.5)
    )
    nrt = rt.node(0)
    session = nrt.session
    old = nrt.engine
    old.close()
    new = PiomanEngine(session)
    assert session.engine is nrt.scheduler.pioman is new
    old_activity, new_activity = _record_activity(old), _record_activity(new)

    # an enqueued op
    session.defer(lambda ctx: None)
    assert (old.kicks, new.kicks) == (0, 1)

    # hardware activity on a rail (a frame lands in the NIC's completion
    # queue): the session flag is set, then the engine
    sets = session.activity_flag.set_count
    nrt.nics[0].deliver(Packet(PacketKind.PIO, 1, 0, 8))
    assert session.activity_flag.set_count == sets + 1
    assert (len(old_activity), len(new_activity)) == (0, 1)

    # a retransmit timer: a tracked RTS whose ack never came
    rel = session.reliability
    packet = RtsFrame(send_req_id=1, src=0, tag=0, seq=0, size=1).to_packet(1)
    rel.track(session.gate_to(1), packet, "control", 0)
    (key,) = rel._pending
    rel._on_timeout(key)
    assert session.stats["timeouts"] == 1
    assert (len(old_activity), len(new_activity)) == (0, 2)
    assert (old.kicks, new.kicks) == (0, 2)  # the queued retransmit op

    new.close()
    new.close()  # idempotent
    old.close()  # closing the replaced engine again leaves the session alone
    assert session.engine is None and nrt.scheduler.pioman is None


def test_closing_a_replaced_engine_keeps_the_new_one_attached():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    session, scheduler = rt.node(0).session, rt.node(0).scheduler
    old = rt.node(0).engine
    new = PiomanEngine(session)
    old.close()
    assert session.engine is scheduler.pioman is new
    new.close()


def test_runtime_close_tears_down_all_nodes():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)
    rt.close()
    for nrt in rt.nodes:
        assert nrt.scheduler.pioman is None
        assert not nrt.session.on_request_complete
        assert nrt.session.engine is None


def test_sequential_engine_close_is_safe():
    """The baseline engine registers nothing; close() must still exist and
    be callable through the same teardown path."""
    rt = ClusterRuntime.build(engine=EngineKind.SEQUENTIAL)
    assert all(nrt.scheduler.pioman is None for nrt in rt.nodes)
    rt.close()
    rt.close()
