"""Unit tests for the Marcel two-level scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError, ThreadStateError
from repro.marcel.effects import Compute, Sleep, YieldNow
from repro.marcel.scheduler import CoreRuntime, MarcelScheduler
from repro.marcel.thread import Priority, ThreadState

from .stub_engine import stub_engine


def test_single_thread_computes(sim, scheduler):
    done = []

    def body(ctx):
        yield ctx.compute(25.0)
        done.append(sim.now)

    scheduler.spawn(body, name="t")
    sim.run()
    assert done == [25.0]


def test_threads_on_distinct_cores_run_in_parallel(sim, scheduler):
    ends = []

    def body(ctx):
        yield ctx.compute(30.0)
        ends.append(sim.now)

    for i in range(8):
        scheduler.spawn(body, name=f"t{i}", core_index=i)
    sim.run()
    assert ends == [30.0] * 8  # true parallelism over 8 cores


def test_round_robin_oversubscribed_core(sim, scheduler):
    """Two threads pinned to one core share it via quantum preemption."""
    ends = {}

    def body(ctx, name):
        yield ctx.compute(50.0)
        ends[name] = sim.now

    scheduler.spawn(lambda c: body(c, "a"), name="a", core_index=0, migratable=False)
    scheduler.spawn(lambda c: body(c, "b"), name="b", core_index=0, migratable=False)
    sim.run()
    # interleaved: both finish near 100 (plus context switches), not 50/100
    assert ends["a"] > 50.0 and ends["b"] > 90.0
    assert scheduler.cores[0].preemptions > 0


def test_woken_thread_migrates_to_free_core(sim, scheduler):
    """A migratable thread woken while its home core is busy moves."""
    log = {}

    def hog(ctx):
        yield ctx.compute(200.0)

    def sleeper(ctx):
        yield ctx.sleep(10.0)
        log["resumed_at"] = sim.now
        yield ctx.compute(5.0)

    scheduler.spawn(hog, name="hog", core_index=0)
    t = scheduler.spawn(sleeper, name="sleeper", core_index=0)
    sim.run()
    assert log["resumed_at"] == pytest.approx(10.0, abs=1.0)  # did not wait for hog
    assert t.core_index != 0


def test_pinned_thread_waits_for_its_core(sim, scheduler):
    def hog(ctx):
        yield ctx.compute(100.0)

    log = {}

    def sleeper(ctx):
        yield ctx.sleep(10.0)
        yield ctx.compute(5.0)
        log["end"] = sim.now

    scheduler.spawn(hog, name="hog", core_index=0, migratable=False)
    scheduler.spawn(sleeper, name="sleeper", core_index=0, migratable=False)
    sim.run()
    assert log["end"] > 50.0  # had to share core 0


def test_priority_preemption_at_tick(sim, scheduler):
    order = []

    def low(ctx):
        yield ctx.compute(100.0)
        order.append(("low", sim.now))

    def high(ctx):
        yield ctx.compute(10.0)
        order.append(("high", sim.now))

    scheduler.spawn(low, name="low", core_index=0, priority=Priority.LOW, migratable=False)

    def spawn_high():
        scheduler.spawn(high, name="high", core_index=0, priority=Priority.HIGH, migratable=False)

    sim.schedule(5.0, spawn_high)
    sim.run()
    assert order[0][0] == "high"
    # high priority preempted low at the next tick (10µs grid), so it
    # finished well before low
    assert order[0][1] < 40.0


def test_yield_now_rotates(sim, scheduler):
    order = []

    def body(ctx, name):
        for _ in range(3):
            order.append(name)
            yield ctx.yield_now()

    scheduler.spawn(lambda c: body(c, "a"), name="a", core_index=0, migratable=False)
    scheduler.spawn(lambda c: body(c, "b"), name="b", core_index=0, migratable=False)
    sim.run()
    assert order[:4] == ["a", "b", "a", "b"]


def test_sleep_releases_core(sim, scheduler):
    log = []

    def sleeper(ctx):
        yield ctx.sleep(50.0)
        log.append(("sleeper", sim.now))

    def worker(ctx):
        yield ctx.compute(20.0)
        log.append(("worker", sim.now))

    scheduler.spawn(sleeper, name="s", core_index=0, migratable=False)
    scheduler.spawn(worker, name="w", core_index=0, migratable=False)
    sim.run()
    # small context-switch costs on top of the nominal 20/50
    assert [name for name, _t in log] == ["worker", "sleeper"]
    assert log[0][1] == pytest.approx(20.0, abs=1.5)
    assert log[1][1] == pytest.approx(50.0, abs=1.5)


def test_join_returns_result(sim, scheduler):
    def child(ctx):
        yield ctx.compute(5.0)
        return "payload"

    results = []
    t = scheduler.spawn(child, name="child")

    def parent(ctx):
        value = yield ctx.join(t)
        results.append(value)

    scheduler.spawn(parent, name="parent")
    sim.run()
    assert results == ["payload"]


def test_join_already_finished_thread(sim, scheduler):
    def child(ctx):
        yield ctx.compute(1.0)
        return 42

    t = scheduler.spawn(child, name="child")

    results = []

    def parent(ctx):
        yield ctx.compute(30.0)  # child long done
        value = yield ctx.join(t)
        results.append(value)

    scheduler.spawn(parent, name="parent")
    sim.run()
    assert results == [42]


def test_thread_exception_propagates(sim, scheduler):
    def bad(ctx):
        yield ctx.compute(1.0)
        raise RuntimeError("kaboom")

    t = scheduler.spawn(bad, name="bad")
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run()
    assert t.done and isinstance(t.error, RuntimeError)


def test_body_must_be_generator(sim, scheduler):
    with pytest.raises(ThreadStateError, match="generator"):
        scheduler.spawn(lambda ctx: None, name="notagen")


def test_runaway_instantaneous_loop_detected(sim, scheduler):
    def spinner(ctx):
        while True:
            yield Compute(0.0)

    scheduler.spawn(spinner, name="spin")
    with pytest.raises(SchedulerError, match="instantaneous"):
        sim.run()


def test_compute_accounting(sim, scheduler):
    def body(ctx):
        yield ctx.compute(40.0)
        yield ctx.service(10.0)

    scheduler.spawn(body, name="t", core_index=0)
    sim.run()
    tl = scheduler.cores[0].timeline
    assert tl.busy_us == pytest.approx(40.0)
    assert tl.service_us == pytest.approx(10.0)


def test_timer_ticks_fire_during_compute(sim, scheduler):
    def body(ctx):
        yield ctx.compute(95.0)

    scheduler.spawn(body, name="t", core_index=0)
    sim.run()
    # 10µs tick period → ≈9 ticks over 95µs
    assert 7 <= scheduler.cores[0].ticks <= 10


def test_spawn_round_robin_placement(sim, scheduler):
    threads = [scheduler.spawn(lambda c: iter(()), name=f"t{i}") for i in range(0)]
    # explicit: spawn 10 threads without core_index on 8 cores
    def body(ctx):
        yield ctx.compute(1.0)

    threads = [scheduler.spawn(body, name=f"t{i}") for i in range(10)]
    cores = [t.core_index for t in threads]
    assert cores[:8] == list(range(8))
    assert cores[8:] == [0, 1]
    sim.run()


def test_stats_aggregation(sim, scheduler):
    def body(ctx):
        yield ctx.compute(15.0)

    for i in range(4):
        scheduler.spawn(body, name=f"t{i}")
    sim.run()
    stats = scheduler.stats()
    assert stats["threads"] == 4
    assert stats["busy_us"] == pytest.approx(60.0)
    assert stats["switches"] >= 4


def test_idle_hook_runs_when_core_idle(sim, scheduler):
    calls = []

    def hook(core: CoreRuntime):
        calls.append((core.index, sim.now))
        return (0.0, None)

    stub_engine(scheduler, idle=hook)

    def body(ctx):
        yield ctx.compute(5.0)

    scheduler.spawn(body, name="t", core_index=0)
    sim.run()
    assert calls, "idle trigger should run when cores have nothing to do"


def test_idle_hook_work_is_accounted_as_service(sim, scheduler):
    """Idle-hook CPU shows up as 'service' in the core timeline. Note:
    cores parked since birth never dispatch, so the hook runs on the core
    that ran (and finished) the thread."""
    state = {"granted": False}

    def hook(core: CoreRuntime):
        if not state["granted"] and core.index == 0:
            state["granted"] = True
            return (7.0, None)
        return (0.0, None)

    stub_engine(scheduler, idle=hook)

    def body(ctx):
        yield ctx.compute(1.0)

    scheduler.spawn(body, name="t", core_index=0)
    sim.run()
    assert scheduler.cores[0].timeline.service_us == pytest.approx(7.0)


def test_tick_hook_charges_busy_core(sim, scheduler):
    ticks = []

    def hook(core: CoreRuntime):
        ticks.append(sim.now)
        return 0.5

    stub_engine(scheduler, tick=hook)

    def body(ctx):
        yield ctx.compute(35.0)

    scheduler.spawn(body, name="t", core_index=0)
    end = sim.run()
    assert len(ticks) >= 3
    # each tick charged 0.5µs of service, stretching the wall clock
    assert end > 35.0 + 1.0


def test_kick_idle_wakes_parked_core(sim, scheduler):
    woken = []

    def hook(core: CoreRuntime):
        woken.append(core.index)
        return (0.0, None)

    stub_engine(scheduler, idle=hook)

    def kicker():
        assert scheduler.kick_idle()

    sim.schedule(5.0, kicker)
    sim.run()
    assert woken


def test_waking_finished_thread_rejected(sim, scheduler):
    def body(ctx):
        yield ctx.compute(1.0)

    t = scheduler.spawn(body, name="t")
    sim.run()
    with pytest.raises(ThreadStateError):
        scheduler.wake(t)
