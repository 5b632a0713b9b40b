"""Unit tests for thread-level synchronization primitives."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.marcel.sync import ThreadBarrier, ThreadEvent, ThreadFlag, ThreadMutex


class TestThreadEvent:
    def test_wait_receives_value(self, sim, scheduler):
        ev = ThreadEvent(scheduler)
        got = []

        def waiter(ctx):
            value = yield ev.wait()
            got.append((value, sim.now))

        scheduler.spawn(waiter, name="w")
        sim.schedule(9.0, ev.trigger, "data")
        sim.run()
        assert got == [("data", 9.0)]

    def test_pre_triggered_no_block(self, sim, scheduler):
        ev = ThreadEvent(scheduler)
        ev.trigger(5)
        got = []

        def waiter(ctx):
            value = yield ev.wait()
            got.append(value)
            yield ctx.compute(1.0)

        scheduler.spawn(waiter, name="w")
        sim.run()
        assert got == [5]

    def test_double_trigger_rejected(self, sim, scheduler):
        ev = ThreadEvent(scheduler)
        ev.trigger(None)
        with pytest.raises(SchedulerError, match="twice"):
            ev.trigger(None)

    def test_multiple_waiters_all_woken(self, sim, scheduler):
        ev = ThreadEvent(scheduler)
        got = []

        def waiter(ctx, name):
            value = yield ev.wait()
            got.append((name, value))

        for name in "abc":
            scheduler.spawn(lambda c, n=name: waiter(c, n), name=name)
        sim.schedule(2.0, ev.trigger, 1)
        sim.run()
        assert sorted(got) == [("a", 1), ("b", 1), ("c", 1)]


class TestThreadFlag:
    def test_set_wakes_waiter(self, sim, scheduler):
        flag = ThreadFlag(scheduler)
        got = []

        def waiter(ctx):
            yield flag.wait()
            got.append(sim.now)

        scheduler.spawn(waiter, name="w")
        sim.schedule(4.0, flag.set)
        sim.run()
        assert got == [4.0]

    def test_level_triggered_no_block_when_set(self, sim, scheduler):
        flag = ThreadFlag(scheduler)
        flag.set()
        got = []

        def waiter(ctx):
            yield flag.wait()
            got.append(sim.now)

        scheduler.spawn(waiter, name="w")
        sim.run()
        assert got == [0.0]

    def test_clear_then_wait_blocks(self, sim, scheduler):
        flag = ThreadFlag(scheduler)
        flag.set()
        flag.clear()
        got = []

        def waiter(ctx):
            yield flag.wait()
            got.append(sim.now)

        scheduler.spawn(waiter, name="w")
        sim.schedule(6.0, flag.set)
        sim.run()
        assert got == [6.0]

    def test_set_count(self, sim, scheduler):
        flag = ThreadFlag(scheduler)
        flag.set()
        flag.set()
        assert flag.set_count == 2


class TestThreadMutex:
    def test_serializes_critical_sections(self, sim, scheduler):
        m = ThreadMutex(scheduler)
        trace = []

        def body(ctx, name):
            yield from m.acquire()
            trace.append((name, "in", sim.now))
            yield ctx.compute(10.0)
            trace.append((name, "out", sim.now))
            m.release()

        scheduler.spawn(lambda c: body(c, "a"), name="a", core_index=0)
        scheduler.spawn(lambda c: body(c, "b"), name="b", core_index=1)
        sim.run()
        # sections must not overlap
        a_out = next(t for n, k, t in trace if n == "a" and k == "out")
        b_in = next(t for n, k, t in trace if n == "b" and k == "in")
        assert b_in >= a_out
        assert m.contended_acquires == 1

    def test_recursive_acquire_rejected(self, sim, scheduler):
        m = ThreadMutex(scheduler)

        def body(ctx):
            yield from m.acquire()
            yield from m.acquire()

        scheduler.spawn(body, name="t")
        with pytest.raises(SchedulerError, match="re-acquiring"):
            sim.run()

    def test_release_by_non_owner_rejected(self, sim, scheduler):
        m = ThreadMutex(scheduler)

        def owner(ctx):
            yield from m.acquire()
            yield ctx.compute(20.0)
            m.release()

        def thief(ctx):
            yield ctx.compute(1.0)
            m.release()

        scheduler.spawn(owner, name="o", core_index=0)
        scheduler.spawn(thief, name="t", core_index=1)
        with pytest.raises(SchedulerError, match="owned by"):
            sim.run()

    def test_fifo_ownership_handoff(self, sim, scheduler):
        m = ThreadMutex(scheduler)
        order = []

        def body(ctx, name):
            yield from m.acquire()
            order.append(name)
            yield ctx.compute(2.0)
            m.release()

        for i, name in enumerate("abcd"):
            scheduler.spawn(lambda c, n=name: body(c, n), name=name, core_index=i)
        sim.run()
        assert order == list("abcd")


class TestThreadBarrier:
    def test_all_parties_released_together(self, sim, scheduler):
        bar = ThreadBarrier(scheduler, parties=3)
        releases = []

        def body(ctx, delay):
            yield ctx.compute(delay)
            yield from bar.wait()
            releases.append(sim.now)

        for i, d in enumerate((5.0, 15.0, 30.0)):
            scheduler.spawn(lambda c, dd=d: body(c, dd), name=f"t{i}", core_index=i)
        sim.run()
        assert len(releases) == 3
        assert max(releases) - min(releases) < 1.0
        assert min(releases) >= 30.0

    def test_reusable_generations(self, sim, scheduler):
        bar = ThreadBarrier(scheduler, parties=2)
        gens = []

        def body(ctx):
            g0 = yield from bar.wait()
            yield ctx.compute(1.0)
            g1 = yield from bar.wait()
            gens.append((g0, g1))

        scheduler.spawn(body, name="a", core_index=0)
        scheduler.spawn(body, name="b", core_index=1)
        sim.run()
        assert gens == [(0, 1), (0, 1)]

    def test_validation(self, sim, scheduler):
        with pytest.raises(SchedulerError):
            ThreadBarrier(scheduler, parties=0)
