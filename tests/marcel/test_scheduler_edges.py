"""Edge-case tests for scheduler stealing, ticks, and hooks."""

from __future__ import annotations

import pytest

from repro.config import MarcelConfig, TimingModel
from repro.marcel.scheduler import CoreRuntime, MarcelScheduler
from repro.marcel.thread import Priority

from .stub_engine import stub_engine


class TestWorkStealing:
    def test_queued_thread_stolen_from_busy_core(self, sim, scheduler):
        """Two threads pinned-queued on core 0 while core 1 is idle-kicked:
        the idle core steals the waiting one."""
        ends = {}

        def body(ctx, name):
            yield ctx.compute(30.0)
            ends[name] = sim.now

        scheduler.spawn(lambda c: body(c, "a"), name="a", core_index=0)
        # b lands on core 0's queue *behind* a but is migratable; spawn
        # placement already moves it to a free core
        t = scheduler.spawn(lambda c: body(c, "b"), name="b", core_index=0)
        sim.run()
        assert t.core_index != 0
        assert abs(ends["a"] - ends["b"]) < 2.0  # ran in parallel

    def test_pinned_threads_never_stolen(self, sim, scheduler):
        order = []

        def body(ctx, name):
            yield ctx.compute(25.0)
            order.append((name, sim.now))

        scheduler.spawn(lambda c: body(c, "a"), name="a", core_index=0, migratable=False)
        scheduler.spawn(lambda c: body(c, "b"), name="b", core_index=0, migratable=False)
        sim.run()
        # serialized on core 0 (round-robin) — neither finished at 25
        assert all(t > 25.0 for _n, t in order)

    def test_no_steal_from_dispatching_core(self, sim, scheduler):
        """The steal guard: a core whose current is None is about to run
        its own queue — its threads must not be stolen out from under it
        (this was the serialization pathology found during bring-up)."""
        ends = {}

        def body(ctx, name):
            yield ctx.compute(10.0)
            ends[name] = sim.now

        for i in range(8):
            scheduler.spawn(lambda c, n=f"t{i}": body(c, n), name=f"t{i}", core_index=i)
        sim.run()
        # all eight ran in parallel on their own cores
        assert all(t == pytest.approx(10.0) for t in ends.values())
        assert scheduler.stats()["steals"] == 0


class TestTickConfiguration:
    def test_custom_tick_period(self, sim, node8):
        import dataclasses

        timing = TimingModel().replace(marcel=MarcelConfig(timer_tick_us=5.0))
        sched = MarcelScheduler(sim, node8, timing)

        def body(ctx):
            yield ctx.compute(47.0)

        sched.spawn(body, core_index=0)
        sim.run()
        assert 8 <= sched.cores[0].ticks <= 11

    def test_quantum_longer_than_compute_no_preempt(self, sim, node8):
        timing = TimingModel().replace(
            marcel=MarcelConfig(timer_tick_us=10.0, quantum_us=1000.0)
        )
        sched = MarcelScheduler(sim, node8, timing)

        def body(ctx):
            yield ctx.compute(100.0)

        sched.spawn(body, core_index=0, migratable=False)
        sched.spawn(body, core_index=0, migratable=False)
        sim.run()
        assert sched.cores[0].preemptions == 0  # first ran to completion


def _recorder(sim, ran):
    """A detection that costs nothing and records where and when it ran."""

    def detect(core):
        ran.append((core.index, sim.now))
        return 0.0

    return detect


class TestTaskletIntegration:
    """PIOMan's kernel detection, the one piece of deferred work (a tasklet
    in the paper's terms), as the scheduler sees it: a flag on the engine
    that the first safe point of any core clears by running it."""

    def test_tasklet_runs_at_tick_on_busy_core(self, sim, scheduler):
        ran = []
        engine = stub_engine(scheduler, detect=_recorder(sim, ran))

        def body(ctx):
            yield ctx.compute(50.0)

        for i in range(len(scheduler.cores)):
            scheduler.spawn(body, core_index=i, migratable=False)
        sim.schedule(12.0, engine.fire)
        sim.run()
        # every core computes: the next safe point is the tick at 20
        assert ran == [(0, 20.0)]
        assert scheduler.stats()["tasklets_run"] == 1

    def test_tasklet_wakes_parked_core(self, sim, scheduler):
        ran = []
        engine = stub_engine(scheduler, detect=_recorder(sim, ran))
        sim.schedule(5.0, engine.fire)
        sim.run()
        assert ran == [(0, pytest.approx(5.0))]
        assert not engine.detect_pending

    def test_shared_tasklet_any_core(self, sim, scheduler):
        """The detection belongs to no core: the one core not computing
        wakes for it and runs it at once."""
        ran = []
        engine = stub_engine(scheduler, detect=_recorder(sim, ran))

        def body(ctx):
            yield ctx.compute(50.0)

        for i in range(len(scheduler.cores) - 1):
            scheduler.spawn(body, core_index=i, migratable=False)
        sim.schedule(12.0, engine.fire)
        sim.run()
        assert ran == [(len(scheduler.cores) - 1, 12.0)]

    def test_tasklet_runs_before_the_thread_a_dispatch_picks(self, sim, scheduler):
        log = []

        def detect(core):
            log.append(("detect", core.index, sim.now))
            return 1.0

        def body(ctx):
            log.append(("thread", ctx.thread.core_index, ctx.now))
            yield ctx.compute(1.0)

        engine = stub_engine(scheduler, detect=detect)
        engine.fire()
        scheduler.spawn(body, core_index=0, migratable=False)
        sim.run()
        # the detection's 1 µs is paid on the core before the thread starts
        assert log == [("detect", 0, 0.0), ("thread", 0, 1.0)]
        assert scheduler.cores[0].timeline.service_us == pytest.approx(1.0)


class TestHookInteractions:
    def test_repoll_delay_respected(self, sim, scheduler):
        calls = []
        state = {"count": 0}

        def hook(core: CoreRuntime):
            state["count"] += 1
            calls.append(sim.now)
            if state["count"] < 3:
                return (0.0, 7.0)  # ask to be re-polled in 7µs
            return (0.0, None)

        stub_engine(scheduler, idle=hook)
        scheduler.kick_idle()
        sim.run()
        assert calls == [pytest.approx(0.0), pytest.approx(7.0), pytest.approx(14.0)]

    def test_switch_hook_fires_on_thread_change(self, sim, scheduler):
        switches = []
        stub_engine(scheduler, switch=lambda core: (switches.append(sim.now), 0.0)[1])

        def body(ctx):
            yield ctx.compute(5.0)

        scheduler.spawn(body, name="a", core_index=0, migratable=False)
        scheduler.spawn(body, name="b", core_index=0, migratable=False)
        sim.run()
        assert len(switches) >= 2
