"""Sub-tick computes run ahead of the event queue, and only when nothing
could interleave.

A thread's compute that ends before its core's next tick, with nothing
queued on the core, continues in the same scheduler step when
:meth:`Simulator.run_ahead` finds that its slice-end event would fire
next. Each test below drives one scenario twice — through :meth:`run`,
which may run ahead, and through :meth:`step`, which never does — and
the two must agree on every logged instant, every core timeline and
every thread's CPU time; the run-aheads stand for exactly the events
that ``step()`` fired and ``run()`` did not. One test per refusal pins
that ``run_ahead`` declines in that case.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.sync import ThreadEvent, ThreadFlag
from repro.sim.events import Priority as EventPriority
from repro.sim.kernel import Simulator
from repro.topology.builder import build_node


def _drive(scenario, mode: str = "run", until=(), max_events=None, observe=False):
    """Build a two-core scheduler, let ``scenario(sim, sched, log)`` set it
    up, and drive it to the end: ``mode="step"`` through ``step()``,
    otherwise through ``run(until=h)`` for each horizon then ``run()``
    again until nothing is pending (a ``stop()`` ends a run early)."""
    sim = Simulator()
    sched = MarcelScheduler(sim, build_node(0, sockets=1, cores_per_socket=2))
    log: list = []
    scenario(sim, sched, log)
    if observe:
        sim.add_observer(lambda now: None)
    if mode == "step":
        while sim.step():
            pass
    else:
        for h in until:
            sim.run(until=h, max_events=max_events)
        while sim.peek_time() is not None:
            sim.run(max_events=max_events)
    return {
        "log": log,
        "timelines": [
            (c.timeline.intervals, c.timeline.busy_us, c.timeline.service_us, c.timeline.idle_us)
            for c in sched.cores
        ],
        "cpu_us": [t.cpu_us for t in sched.threads],
        "stats": sched.stats(),
        "events": sim.events_fired,
        "boundaries": sim.chain_boundaries,
        "run_aheads": sim.run_aheads,
        "seq": sim._seq,
    }


def _agree(scenario, **kw):
    """Drive ``scenario`` by ``run()`` and by ``step()``; they must agree.
    Returns the ``run()`` result."""
    ran = _drive(scenario, **kw)
    stepped = _drive(scenario, mode="step")
    assert stepped["run_aheads"] == 0
    for key in ("log", "timelines", "cpu_us", "stats", "boundaries", "seq"):
        assert ran[key] == stepped[key], key
    assert ran["events"] + ran["run_aheads"] == stepped["events"]
    return ran


def _spawn(sched, log, *lengths: float, core: int = 0, name: str = "t"):
    """A thread pinned to ``core`` computing ``lengths`` one after another,
    logging each end."""

    def body(ctx):
        for i, us in enumerate(lengths):
            yield ctx.compute(us)
            log.append((name, i, ctx.now))

    return sched.spawn(body, name=name, core_index=core, migratable=False)


# -- the run-ahead itself --------------------------------------------------------


def test_sub_tick_computes_run_ahead():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0, 2.5, 3.0)

    out = _agree(scenario)
    assert out["log"] == [("t", 0, 1.0), ("t", 1, 3.5), ("t", 2, 6.5)]
    # the first dispatch is the one event; every compute ran ahead
    assert out["events"] == 1 and out["run_aheads"] == 3


def test_compute_reaching_the_tick_does_not_run_ahead():
    """A compute ending on (or within rounding of) the core's next tick
    ends on a timer interrupt: it stays an event."""

    def scenario(sim, sched, log):
        _spawn(sched, log, 4.0, 6.0, 1.0)

    out = _agree(scenario)
    assert out["log"] == [("t", 0, 4.0), ("t", 1, 10.0), ("t", 2, 11.0)]
    assert out["run_aheads"] == 2  # 4.0 and 11.0; the one ending at 10 ticks
    assert out["stats"]["ticks"] == 1


def test_busy_runqueue_does_not_run_ahead():
    """With a thread queued on the core, the slice end is a preemption
    point: the compute stays an event."""

    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0, 1.0, core=0, name="a")
        _spawn(sched, log, 1.0, core=0, name="b")

    out = _agree(scenario)
    assert out["run_aheads"] < 3


# -- one test per refusal --------------------------------------------------------


def test_refuses_for_an_earlier_queue_top():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0)
        sim.schedule_at(0.5, log.append, ("tick", 0.5))

    out = _agree(scenario)
    assert out["log"] == [("tick", 0.5), ("t", 0, 1.0)]
    assert out["run_aheads"] == 0


@pytest.mark.parametrize(
    "priority, ahead",
    [
        (EventPriority.INTERRUPT, 0),
        (EventPriority.TASKLET, 0),
        (EventPriority.NORMAL, 0),
        (EventPriority.LOW, 1),
        (EventPriority.IDLE, 1),
    ],
    ids=["interrupt", "tasklet", "normal", "low", "idle"],
)
def test_refuses_for_a_same_instant_top_that_fires_first(priority, ahead):
    """An entry at the compute's end with an older seq fires first unless
    its priority is later than NORMAL."""

    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0)
        sim.schedule_at(1.0, log.append, ("other", 1.0), priority=priority)

    out = _agree(scenario)
    assert out["run_aheads"] == ahead
    first = [("other", 1.0), ("t", 0, 1.0)]
    assert out["log"] == (first if not ahead else first[::-1])


def test_a_cancelled_top_does_not_refuse():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0)
        sim.timer(0.5, log.append, "cancelled").cancel()

    out = _agree(scenario)
    assert out["run_aheads"] == 1 and out["log"] == [("t", 0, 1.0)]


def test_refuses_for_a_chain_boundary():
    """Core 1 computes quietly on a tick chain (boundaries at 10, 20, …);
    core 0's compute from 5 to 11 ends after that chain's pending boundary
    and before its own tick at 15, so it must not run ahead of it."""

    def scenario(sim, sched, log):
        _spawn(sched, log, 100.0, core=1, name="long")

        def late(ctx):
            yield ctx.sleep(5.0)
            yield ctx.compute(6.0)
            log.append(("late", ctx.now))
            yield ctx.compute(1.0)
            log.append(("late", ctx.now))

        sched.spawn(late, name="late", core_index=0, migratable=False)

    out = _agree(scenario)
    assert ("late", 11.0) in out["log"]
    # 11 → 12 runs ahead: the chain's next boundary is at 20 by then
    assert out["run_aheads"] == 1
    assert out["boundaries"] > 0


def test_refuses_past_the_until_horizon():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0, 1.0)

    out = _agree(scenario, until=(0.5, 1.5))
    # 0 → 1 is past the first horizon; 1 → 2 is past the second
    assert out["run_aheads"] == 0
    horizon_ok = _agree(scenario, until=(2.0,))
    assert horizon_ok["run_aheads"] == 2


def test_refuses_with_a_pending_stop():
    def scenario(sim, sched, log):
        def body(ctx):
            sim.stop()
            yield ctx.compute(1.0)
            log.append(("t", ctx.now))
            yield ctx.compute(1.0)
            log.append(("t", ctx.now))

        sched.spawn(body, name="t", core_index=0, migratable=False)

    out = _agree(scenario)
    assert out["log"] == [("t", 1.0), ("t", 2.0)]
    assert out["run_aheads"] == 1  # the second compute, in the next run


def test_refuses_with_an_observer():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0, 2.0)

    out = _agree(scenario, observe=True)
    assert out["run_aheads"] == 0


def test_refuses_under_max_events():
    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0, 2.0)

    out = _agree(scenario, max_events=1_000)
    assert out["run_aheads"] == 0


def test_refuses_outside_run():
    """``step()`` is the reference path: it never runs ahead, and neither
    does a scheduler call made with no loop running."""
    sim = Simulator()
    assert not sim.run_ahead(1.0)
    assert sim.now == 0.0 and sim._seq == 0

    def scenario(sim, sched, log):
        _spawn(sched, log, 1.0)

    assert _drive(scenario, mode="step")["run_aheads"] == 0


def test_run_ahead_takes_the_skipped_event_seq():
    sim = Simulator()
    seen: list = []

    def first() -> None:
        assert sim.run_ahead(3.0)
        seen.append((sim.now, sim._seq))
        sim.schedule(1.0, seen.append, "after")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [(3.0, 2), "after"]
    assert sim.events_fired == 2 and sim.run_aheads == 1


# -- random programs -------------------------------------------------------------

#: sub-tick and multi-tick compute lengths on and off the 10 µs tick grid
lengths = st.one_of(
    st.sampled_from((0.5, 1.0, 2.5, 4.0, 6.0, 9.5, 10.0)),
    st.sampled_from((15.0, 25.0, 40.0)),
)
steps = st.one_of(
    st.tuples(st.just("compute"), lengths),
    st.tuples(st.just("sleep"), st.sampled_from((0.5, 3.0, 12.0))),
    st.tuples(st.just("flag"), st.integers(0, 1)),
    st.tuples(st.just("event"), st.integers(0, 1)),
    st.tuples(st.just("yield"), st.just(0)),
)
threads = st.tuples(
    st.one_of(st.none(), st.integers(0, 1)),  # pinned core
    st.lists(steps, min_size=1, max_size=6),
)
callbacks = st.tuples(
    st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.0, 10.0, 12.5, 30.0)),
    st.sampled_from(
        (EventPriority.INTERRUPT, EventPriority.TASKLET, EventPriority.NORMAL, EventPriority.LOW)
    ),
    st.sampled_from(("log", "flag0", "flag1", "event0", "event1", "stop")),
)
programs = st.fixed_dictionaries(
    {
        "threads": st.lists(threads, min_size=1, max_size=4),
        "callbacks": st.lists(callbacks, max_size=6),
        "until": st.lists(st.sampled_from((0.5, 1.0, 5.0, 11.0, 40.0)), max_size=2).map(sorted),
        "observe": st.booleans(),
    }
)


def _program(cfg):
    def scenario(sim, sched, log):
        flags = [ThreadFlag(sched, name=f"f{i}") for i in range(2)]
        events = [ThreadEvent(sched, name=f"e{i}") for i in range(2)]

        def act(what: str) -> None:
            log.append(("cb", what, sim.now))
            if what == "stop":
                sim.stop()
            elif what.startswith("flag"):
                flags[int(what[-1])].set()
            elif what.startswith("event"):
                event = events[int(what[-1])]
                if not event.triggered:
                    event.trigger(what)

        def release() -> None:
            # the last word: every waiter can finish
            for flag in flags:
                flag.set()
            for event in events:
                if not event.triggered:
                    event.trigger("late")

        for time, prio, what in cfg["callbacks"]:
            sim.schedule_at(time, act, what, priority=prio)
        sim.schedule_at(200.0, release, priority=EventPriority.LOW)
        for i, (pin, program) in enumerate(cfg["threads"]):

            def body(ctx, i=i, program=program):
                for kind, arg in program:
                    if kind == "compute":
                        yield ctx.compute(arg)
                    elif kind == "sleep":
                        yield ctx.sleep(arg)
                    elif kind == "flag":
                        yield flags[arg].wait()
                    elif kind == "event":
                        yield events[arg].wait()
                    else:
                        yield ctx.yield_now()
                    log.append((i, kind, ctx.now))

            sched.spawn(body, name=f"t{i}", core_index=pin, migratable=pin is None)

    return scenario


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_random_programs_run_ahead_invisibly(cfg):
    out = _agree(_program(cfg), until=tuple(cfg["until"]), observe=cfg["observe"])
    if cfg["observe"]:
        assert out["run_aheads"] == 0
