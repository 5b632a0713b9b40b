"""Unit tests for the engine's blocking-detection machinery (§2.3): the
watches a blocked wait arms and the interrupt that wakes them."""

from __future__ import annotations

import pytest

from repro.config import MarcelConfig, TimingModel
from repro.marcel.scheduler import MarcelScheduler
from repro.nmad.core import NmSession
from repro.pioman.engine import PiomanEngine


@pytest.fixture
def setup(sim, node8):
    scheduler = MarcelScheduler(sim, node8)
    session = NmSession(sim, scheduler, node8)
    engine = PiomanEngine(session)
    calls = []
    progress = session.progress

    def recording_progress(ctx, **kwargs):
        calls.append(sim.now)
        return progress(ctx, **kwargs)

    session.progress = recording_progress
    return sim, scheduler, session, engine, calls


def test_arm_and_disarm_on_completion(setup):
    sim, _sched, session, engine, _calls = setup
    req = session.make_recv(0, 0, 10)
    engine._arm(req)
    assert len(engine._armed) == 1
    assert req.blocking_watch
    session._complete_req(req)
    assert len(engine._armed) == 0
    assert not req.blocking_watch


def test_arm_idempotent(setup):
    _sim, _sched, session, engine, _calls = setup
    req = session.make_recv(0, 0, 10)
    engine._arm(req)
    engine._arm(req)
    assert len(engine._armed) == 1
    assert engine.blocking_waits == 1


def test_activity_without_watch_is_ignored(setup):
    sim, _sched, _session, engine, calls = setup
    engine._interrupt()
    sim.run()
    assert calls == []
    assert engine.interrupts_taken == 0


def test_activity_with_watch_schedules_delayed_detection(setup):
    sim, _sched, session, engine, calls = setup
    req = session.make_recv(0, 0, 10)
    engine._arm(req)
    engine._interrupt()
    sim.run()
    # detection falls due interrupt_us later and runs at a safe point
    assert len(calls) == 1
    assert calls[0] >= TimingModel().nic.interrupt_us
    assert engine.interrupts_taken == 1


def test_interrupt_coalescing(setup):
    """Back-to-back hardware activity while an interrupt is in flight must
    not stack detections."""
    sim, _sched, session, engine, calls = setup
    req = session.make_recv(0, 0, 10)
    engine._arm(req)
    engine._interrupt()
    engine._interrupt()
    engine._interrupt()
    sim.run()
    assert engine.interrupts_taken == 1
    assert len(calls) == 1


def test_detection_charges_syscall(setup):
    sim, sched, session, engine, _calls = setup
    req = session.make_recv(0, 0, 10)
    engine._arm(req)
    engine._interrupt()
    sim.run()
    service = sum(c.timeline.service_us for c in sched.cores)
    assert service >= TimingModel().host.syscall_us


def test_two_interrupts_before_a_safe_point_run_one_detection(sim, node8):
    """Every core computes and ticks come every 50 µs: the interrupts at 1
    and 8 both make the detection due before the tick at 50, which runs
    it once; the scheduler's ``tasklets_run`` counts that run."""
    timing = TimingModel().replace(marcel=MarcelConfig(timer_tick_us=50.0))
    scheduler = MarcelScheduler(sim, node8, timing)
    session = NmSession(sim, scheduler, node8, timing)
    engine = PiomanEngine(session)
    calls = []
    progress = session.progress

    def recording_progress(ctx, **kwargs):
        calls.append((ctx.core_index, sim.now))
        return progress(ctx, **kwargs)

    session.progress = recording_progress

    def body(ctx):
        yield ctx.compute(100.0)

    for i in range(len(scheduler.cores)):
        scheduler.spawn(body, core_index=i, migratable=False)
    engine._arm(session.make_recv(0, 0, 10))
    fired = []
    fire = engine._fire_detection

    def recording_fire():
        fire()
        fired.append((sim.now, engine.detect_pending))

    engine._fire_detection = recording_fire
    sim.schedule(1.0, engine._interrupt)
    sim.schedule(8.0, engine._interrupt)
    sim.run()
    interrupt_us = timing.nic.interrupt_us
    assert fired == [(1.0 + interrupt_us, True), (8.0 + interrupt_us, True)]
    assert engine.interrupts_taken == 2
    assert calls == [(0, 50.0)]
    assert not engine.detect_pending
    assert scheduler.stats()["tasklets_run"] == 1
