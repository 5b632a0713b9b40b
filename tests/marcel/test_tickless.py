"""Tickless compute in the Marcel scheduler: quiet ticks run as a kernel
tick chain, and every way a tick can start to matter re-arms it.

Each scenario runs twice — as is, and with :meth:`MarcelScheduler._quiet`
patched to False so every slice end is a kernel event — and the two runs
must agree on the trace, the statistics and the end time.
"""

from __future__ import annotations

from unittest import mock

from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.thread import Priority
from repro.sim.events import Priority as EventPriority
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer
from repro.topology.builder import build_node

from .stub_engine import stub_engine


def _run(scenario, ticking: bool, until: float | None = None):
    sim = Simulator()
    tracer = Tracer()
    sched = MarcelScheduler(sim, build_node(0, sockets=1, cores_per_socket=2), tracer=tracer)
    log: list = []
    scenario(sim, sched, log)
    if ticking:
        with mock.patch.object(MarcelScheduler, "_quiet", lambda self, core, thread: False):
            end = sim.run(until=until)
    else:
        end = sim.run(until=until)
    return {
        "end": end,
        "trace": tracer.signature(),
        "stats": sched.stats(),
        "log": log,
        "work": sim.events_fired + sim.chain_boundaries + sim.run_aheads,
        "boundaries": sim.chain_boundaries,
    }


def _agree(scenario, until: float | None = None):
    tickless = _run(scenario, ticking=False, until=until)
    ticking = _run(scenario, ticking=True, until=until)
    assert ticking["boundaries"] == 0
    for key in ("end", "trace", "stats", "log", "work"):
        assert tickless[key] == ticking[key], key
    return tickless


def _compute(us: float, log: list | None = None):
    def body(ctx):
        yield ctx.compute(us)
        if log is not None:
            log.append(("done", ctx.now))

    return body


def test_quiet_compute_is_one_chain():
    def scenario(sim, sched, log):
        sched.spawn(_compute(100.0, log), name="t", core_index=0)

    out = _agree(scenario)
    # ten slice ends, all ticks, all chain boundaries; the last one ends
    # the compute through the ordinary slice end
    assert out["stats"]["ticks"] == 10
    assert out["boundaries"] == 10


def test_stats_mid_chain_equal_ticking():
    def scenario(sim, sched, log):
        sched.spawn(_compute(100.0), name="t", core_index=0)

    out = _agree(scenario, until=35.0)
    assert out["end"] == 35.0 and out["boundaries"] == 3


def test_low_priority_threads_keep_ticking():
    def scenario(sim, sched, log):
        sched.spawn(_compute(100.0), name="t", core_index=0, priority=Priority.LOW)

    assert _agree(scenario)["boundaries"] == 0


def test_hook_without_predicate_keeps_ticking():
    def scenario(sim, sched, log):
        stub_engine(sched, tick=lambda core: log.append(sim.now) or 0.0)
        sched.spawn(_compute(50.0), name="t", core_index=0)

    out = _agree(scenario)
    assert out["boundaries"] == 0 and out["log"] == [10.0, 20.0, 30.0, 40.0, 50.0]


def test_hook_whose_predicate_is_false_goes_tickless():
    def scenario(sim, sched, log):
        stub_engine(sched, tick=lambda core: 0.0, wants=lambda core: False)
        sched.spawn(_compute(50.0), name="t", core_index=0)

    out = _agree(scenario)
    assert out["boundaries"] == 5


def test_registering_a_plain_hook_mid_compute_rearms():
    def scenario(sim, sched, log):
        def hook(core):
            log.append(sim.now)
            return 0.5

        def attach():
            # an engine that wants every tick, attached mid-compute
            stub_engine(sched, tick=hook)
            sched.resume_ticks()

        sim.schedule(25.0, attach)
        sched.spawn(_compute(60.0), name="t", core_index=0)

    out = _agree(scenario)
    assert out["log"][0] == 30.0


def test_resume_ticks_rearms_a_wanted_tick():
    def scenario(sim, sched, log):
        wanted = []

        def hook(core):
            if wanted:
                wanted.clear()
                log.append(sim.now)
                return 1.0
            return 0.0

        def arrive():
            wanted.append(True)
            sched.resume_ticks()

        stub_engine(sched, tick=hook, wants=lambda core: bool(wanted))
        sim.schedule(42.0, arrive)
        sched.spawn(_compute(100.0), name="t", core_index=0)

    out = _agree(scenario)
    assert out["log"] == [50.0]
    assert out["end"] == 101.0


def test_wake_onto_a_computing_core_rearms_preemption():
    def scenario(sim, sched, log):
        def sleeper(ctx):
            yield ctx.sleep(13.0)
            yield ctx.compute(5.0)
            log.append(("hi", ctx.now))

        sched.spawn(_compute(100.0, log), name="lo", core_index=0, migratable=False)
        sched.spawn(sleeper, name="hi", core_index=0, priority=Priority.HIGH, migratable=False)

    out = _agree(scenario)
    assert out["stats"]["preemptions"] == 1
    assert out["log"][0][0] == "hi"


def test_a_due_detection_rearms_every_core():
    def scenario(sim, sched, log):
        def detect(core):
            log.append((core.index, sim.now))
            return 1.0

        def fire():
            engine.fire()
            log.append([core.chain is None for core in sched.cores])

        engine = stub_engine(sched, detect=detect)
        sim.schedule(21.0, fire)
        sim.schedule(47.0, fire)
        sched.spawn(_compute(80.0), name="a", core_index=0, migratable=False)
        sched.spawn(_compute(80.0), name="b", core_index=1, migratable=False)

    out = _agree(scenario)
    # both cores tick again once a detection is due and the first tick runs
    # it: at 50 that is core 1's, which ticks ahead of core 0 once core 0
    # has paid for the first
    assert out["log"] == [[True, True], (0, 30.0), [True, True], (1, 50.0)]
    assert out["stats"]["tasklets_run"] == 2


def _compute_after(start: float, us: float, log: list):
    def body(ctx):
        yield ctx.sleep(start)
        yield ctx.compute(us)
        log.append((ctx.name, ctx.now))

    return body


def test_in_phase_cores_keep_their_order():
    """Two cores tick in phase, core 0 first; an event between their
    first ticks lets core 0 pass its tick at 10 alone. Core 1's batch
    must not run ahead of core 0's pending tick, or the computes' ends at
    400 swap."""

    def scenario(sim, sched, log):
        sched.spawn(_compute(400.0, log), name="a", core_index=0, migratable=False)
        # dispatched between the two: its event at 10 falls between the
        # two chains' first boundaries
        sim.call_soon(sim.schedule_at, 10.0, lambda: None, priority=EventPriority.TASKLET)
        sched.spawn(_compute(400.0, log), name="b", core_index=1, migratable=False)

    out = _agree(scenario)
    assert out["log"] == [("done", 400.0), ("done", 400.0)]
    assert [name for _t, cat, _where, name in out["trace"] if cat == "marcel.exit"] == ["a", "b"]


def test_tick_grids_that_merge_by_rounding_keep_their_order():
    """Core 0's ticks fall an ulp before core 1's (19.999999999999996 vs
    20) until rounding past 32 merges them at 40. Tie order then follows
    the earlier, different, instants: core 0 first. Core 1, a tick behind
    after the event at 20, must stop its batch near core 0's pending tick
    instead of running past it and ending first."""

    def scenario(sim, sched, log):
        start = 9.999999999999996
        sim.schedule_at(20.0, lambda: None)
        sched.spawn(_compute_after(start, 100.0 - start, log), name="a", core_index=0, migratable=False)
        sched.spawn(_compute_after(10.0, 90.0, log), name="b", core_index=1, migratable=False)

    out = _agree(scenario)
    assert out["log"] == [("a", 100.0), ("b", 100.0)]


def test_a_compute_end_off_the_tick_orders_by_the_ticks_before():
    """Core 0 ticks at 5 mod 10 and its compute ends at 103; core 1 ticks
    at 3 mod 10 and ticks at 103 too. Core 1's tick before (93) precedes
    core 0's last (95), so core 1 passes 103 before core 0's compute ends
    and spawns a HIGH thread onto it: the preemption waits for 113. After
    the event at 84 core 0 is due first (at 85); the order holds only if
    core 0 then passes 95 first in a batch, after core 1's 93."""

    def scenario(sim, sched, log):
        def urgent(ctx):
            log.append(("urgent", ctx.now))
            yield ctx.compute(1.0)

        def spawner(ctx):
            yield ctx.sleep(5.0)
            yield ctx.compute(98.0)
            sched.spawn(urgent, name="h", core_index=1, priority=Priority.HIGH, migratable=False)

        sim.schedule_at(84.0, lambda: None)
        sched.spawn(spawner, name="a", core_index=0, migratable=False)
        sched.spawn(_compute_after(3.0, 200.0, log), name="b", core_index=1, migratable=False)

    out = _agree(scenario)
    # preempted at the tick at 113, plus the context switch
    assert out["log"][0][0] == "urgent" and 113.0 < out["log"][0][1] < 114.0
