"""The inlined ``Simulator.run`` loop is behaviourally identical to
driving the simulation one :meth:`Simulator.step` at a time.

``run()`` does not delegate to ``step()`` (it pops the heap and fires
inline), so this file pins the equivalences the docstrings promise: same
firing order, same times, same ``events_fired``, same observer callbacks,
and stable trace signatures on full traced workloads — whether the heap
drops cancelled entries lazily or compacts them eagerly under the loop.
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.errors import SimulationError
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.harness.runner import ClusterRuntime
from repro.sim import kernel
from repro.sim.events import Priority
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer
from repro.units import KiB


def _storm(sim: Simulator, log: list, n_events: int = 400, timers: bool = False) -> None:
    """Mixed-priority self-rearming chains with lazy cancellations. With
    ``timers``, every tick also re-arms a far-future retransmit-shaped
    timer and cancels the chain's previous one, so cancelled entries
    pile up behind the chains."""
    counter = [0]
    armed: dict[int, object] = {}

    def tick(chain: int) -> None:
        counter[0] += 1
        log.append((sim.now, chain, counter[0]))
        if counter[0] < n_events:
            sim.schedule(1.0, tick, chain, priority=chain % 3)
            if counter[0] % 5 == 0:
                sim.timer(sim.now + 2.0, tick, chain).cancel()
            if timers:
                old = armed.get(chain)
                if old is not None:
                    old.cancel()
                armed[chain] = sim.timer(sim.now + 50_000.0, log.append, ("rto", chain))

    for c in range(4):
        sim.schedule(float(c) * 0.25, tick, c)


def _run_with_run(n_events: int = 400):
    sim, log = Simulator(), []
    _storm(sim, log, n_events)
    end = sim.run()
    return end, sim.events_fired, log


def _run_with_step(n_events: int = 400):
    sim, log = Simulator(), []
    _storm(sim, log, n_events)
    while sim.step():
        pass
    return sim.now, sim.events_fired, log


def test_run_matches_step_driven_execution():
    assert _run_with_run() == _run_with_step()


def test_all_queues_fire_identically(monkeypatch):
    """The determinism contract across the heap's storage disciplines: with
    a compaction floor of 1, the storm's cancelled timers are compacted in
    place mid-run, and the full event log (time, chain, counter, and the
    surviving timers) and ``pending_count``/``peek_time`` after every event
    are still equal element-for-element to the lazily-deleting heap's."""

    def observed_storm():
        sim, log, seen = Simulator(), [], []
        sim.add_observer(lambda now: seen.append((sim.pending_count(), sim.peek_time())))
        _storm(sim, log, 1_000, timers=True)
        end = sim.run()
        return (end, sim.events_fired, log, seen), sim.queue_stats()["compactions"]

    lazy, lazy_compactions = observed_storm()
    monkeypatch.setattr(kernel, "_COMPACT_MIN", 1)
    eager, eager_compactions = observed_storm()
    assert lazy_compactions == 0 < eager_compactions
    assert eager == lazy


def test_events_fired_counter_identical():
    _, fired_run, _ = _run_with_run(1_000)
    _, fired_step, _ = _run_with_step(1_000)
    assert fired_run == fired_step > 1_000  # chains + their rearms


def test_observers_fire_identically_in_both_loops():
    samples = {}
    for mode in ("run", "step"):
        sim, log = Simulator(), []
        seen: list[float] = []
        sim.add_observer(seen.append)
        _storm(sim, log, 100)
        if mode == "run":
            sim.run()
        else:
            while sim.step():
                pass
        samples[mode] = seen
    assert samples["run"] == samples["step"]
    assert len(samples["run"]) > 100


def test_observer_can_detach_itself_mid_run():
    sim = Simulator()
    seen: list[float] = []

    def once(now: float) -> None:
        seen.append(now)
        sim.remove_observer(once)

    sim.add_observer(once)
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert len(seen) == 1


def test_until_and_stop_still_honoured():
    sim = Simulator()
    fired: list[float] = []
    for i in range(10):
        sim.schedule(float(i), fired.append, float(i))
    assert sim.run(until=4.5) == 4.5
    assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]
    sim.schedule(0.0, sim.stop)  # at t=4.5, before the 5.0..9.0 events
    sim.run()
    assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]
    sim.run()
    assert fired == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]


def test_max_events_guard_still_raises():
    sim = Simulator()

    def rearm() -> None:
        sim.schedule(1.0, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)


def test_cancelled_events_never_fire_in_fast_loop():
    sim = Simulator()
    fired: list[str] = []
    keep = sim.timer(1.0, fired.append, "keep")
    dead = sim.timer(1.0, fired.append, "dead", priority=Priority.TASKLET)
    dead.cancel()
    sim.timer(2.0, fired.append, "late").cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.fired and not dead.fired


def test_priority_order_preserved_at_equal_time():
    sim = Simulator()
    fired: list[str] = []
    sim.schedule(1.0, fired.append, "normal", priority=Priority.NORMAL)
    sim.schedule(1.0, fired.append, "tasklet", priority=Priority.TASKLET)
    sim.schedule(1.0, fired.append, "low", priority=Priority.LOW)
    sim.run()
    assert fired == ["tasklet", "normal", "low"]


def _traced_signature(engine: str, lossy: bool = False) -> tuple[float, list]:
    """A full traced communication workload, as in test_determinism.
    ``lossy`` drops every 7th frame, so the reliability layer arms
    retransmit timers that ACKs cancel."""
    tracer = Tracer()
    faults = FaultPlan(rules=[FaultRule(FaultAction.DROP, every_nth=7)]) if lossy else None
    rt = ClusterRuntime.build(engine=engine, tracer=tracer, faults=faults)

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i in range(3):
            r = yield from nm.isend(ctx, 1, i, KiB(4) * (i + 1), payload=i)
            reqs.append(r)
            yield ctx.compute(10.0)
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for i in range(3):
            yield from nm.recv(ctx, 0, i, KiB(16))

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    shape = [(t, c, w) for t, c, w, _label in tracer.signature()]
    return end, shape


@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
def test_traced_workload_signature_stable(engine):
    """The fast loop must not perturb full traced runs: two executions of
    the same workload produce identical trace shapes and end times."""
    assert _traced_signature(engine) == _traced_signature(engine)


@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
def test_traced_workload_signature_identical_across_queues(engine, monkeypatch):
    """The heap's storage discipline is invisible to a full engine run: a
    heap compacting on almost every cancellation (floor 1) produces the
    same trace signature and end time as the default lazily-deleting
    heap on a traced communication workload over a lossy wire (where the
    PIOMan run's ACK-cancelled retransmit timers get compacted mid-run)."""
    lazy = _traced_signature(engine, lossy=True)
    monkeypatch.setattr(kernel, "_COMPACT_MIN", 1)
    assert _traced_signature(engine, lossy=True) == lazy

