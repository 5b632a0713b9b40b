"""Kernel tick chains: boundaries merged with real events in key order.

A chain entry carries the ``(time, priority, seq)`` key its boundary's
event would have had, so every test here is an equivalence: the chain
against the same boundaries scheduled as ordinary self-rescheduling
events.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Priority
from repro.sim.kernel import Simulator


class Ticker:
    """Boundaries every ``period`` µs until ``end``; logs each with the
    time it was passed. ``as_events`` schedules them as real events."""

    def __init__(self, sim: Simulator, log: list, name: str, period: float, end: float) -> None:
        self.sim, self.log, self.name = sim, log, name
        self.period, self.end = period, end

    def boundary(self):
        self.log.append((self.sim.now, self.name))
        nxt = self.sim.now + self.period
        return nxt if nxt <= self.end else None

    def start(self, as_events: bool):
        first = self.sim.now + self.period
        if as_events:
            self.sim.schedule_at(first, self._event)
            return None
        return self.sim.start_chain(first, self.boundary)

    def _event(self) -> None:
        nxt = self.boundary()
        if nxt is not None:
            self.sim.schedule_at(nxt, self._event)


def _mixed(sim: Simulator, as_events: bool, by_step: bool = False) -> list:
    """Two chains sharing a tick phase plus real NORMAL events at the same
    instants, scheduled before and after the chains start; run to the end
    by ``run()`` or by ``step()``."""
    log: list = []
    sim.schedule_at(10.0, log.append, (10.0, "early"))
    Ticker(sim, log, "a", 10.0, 60.0).start(as_events)
    sim.schedule_at(20.0, log.append, (20.0, "mid"))
    Ticker(sim, log, "b", 5.0, 60.0).start(as_events)
    sim.schedule_at(30.0, log.append, (30.0, "late"))
    sim.schedule_at(30.0, log.append, (30.0, "irq"), priority=Priority.INTERRUPT)
    if by_step:
        while sim.step():
            pass
    else:
        sim.run()
    return log


def test_boundaries_and_events_fire_in_key_order(sim):
    chained = _mixed(sim, as_events=False)
    ref = Simulator()
    assert chained == _mixed(ref, as_events=True)
    assert sim.chain_boundaries == ref.events_fired - sim.events_fired
    # same-instant NORMAL entries order by seq, which a boundary takes when
    # the one before it is passed: a's first boundary took its seq when the
    # chain started, after "early"; every later one after all setup events
    at = lambda t: [name for time, name in chained if time == t]  # noqa: E731
    assert at(10.0) == ["early", "a", "b"]
    assert at(20.0) == ["mid", "a", "b"]
    assert at(30.0) == ["irq", "late", "a", "b"]


def test_boundary_precedes_same_instant_events_with_later_keys(sim):
    """A boundary ties with events at its instant on time alone: a
    NORMAL event scheduled after the boundary took its seq, and a LOW
    one scheduled before, both fire after it; an INTERRUPT one before."""
    log: list = []
    sim.schedule_at(10.0, log.append, (10.0, "low"), priority=Priority.LOW)
    Ticker(sim, log, "a", 10.0, 10.0).start(as_events=False)
    sim.schedule_at(10.0, log.append, (10.0, "normal"))
    sim.schedule_at(10.0, log.append, (10.0, "irq"), priority=Priority.INTERRUPT)
    sim.run()
    assert [name for _t, name in log] == ["irq", "a", "normal", "low"]


def test_materialize_keeps_the_key(sim):
    log: list = []
    ticker = Ticker(sim, log, "a", 10.0, 100.0)
    entry = ticker.start(as_events=False)
    sim.schedule_at(30.0, log.append, (30.0, "same-instant, later seq"))

    def rearm() -> None:
        key = tuple(entry[:3])
        handle = sim.materialize(entry, ticker._event)
        assert handle.sort_key() == key
        log.append((sim.now, "rearm"))

    sim.schedule_at(25.0, rearm)
    sim.run()
    ref_log: list = []
    ref = Simulator()
    Ticker(ref, ref_log, "a", 10.0, 100.0).start(as_events=True)
    ref.schedule_at(30.0, ref_log.append, (30.0, "same-instant, later seq"))
    ref.schedule_at(25.0, ref_log.append, (25.0, "rearm"))
    ref.run()
    assert log == ref_log
    assert sim.chain_boundaries == 2  # 10 and 20; 30 onwards are real events
    with pytest.raises(SimulationError, match="retired"):
        sim.materialize(entry, ticker._event)
    ended = Ticker(sim, log, "c", 1.0, sim.now + 1.0).start(as_events=False)
    sim.run()
    with pytest.raises(SimulationError, match="retired"):
        sim.materialize(ended, ticker._event)


def test_materialized_chain_is_gone(sim):
    log: list = []
    entry = Ticker(sim, log, "a", 10.0, 100.0).start(as_events=False)
    other = Ticker(sim, log, "b", 7.0, 7.0).start(as_events=False)
    assert sim.pending_count() == 2
    assert sim.peek_time() == 7.0
    sim.materialize(entry, log.append, (10.0, "real"))
    # one pending event replaces the chain, which never fires again
    assert sim.pending_count() == 2
    assert sim.run(until=8.0) == 8.0 and sim.chain_boundaries == 1
    assert sim.pending_count() == 1
    assert sim.run() == 10.0
    assert log == [(7.0, "b"), (10.0, "real")]
    assert sim.chain_boundaries == 1
    assert sim.pending_count() == 0 and sim.peek_time() is None


def test_run_until_inside_a_chain_stops_and_resumes(sim):
    log: list = []
    Ticker(sim, log, "a", 10.0, 50.0).start(as_events=False)
    assert sim.run(until=25.0) == 25.0
    assert [t for t, _ in log] == [10.0, 20.0]
    assert sim.pending_count() == 1 and sim.peek_time() == 30.0
    assert sim.run(until=25.0) == 25.0  # nothing due: clock stays
    sim.run()
    assert [t for t, _ in log] == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert sim.events_fired == 0 and sim.chain_boundaries == 5


def test_step_and_observers_see_each_boundary(sim):
    log: list = []
    seen: list = []
    sim.add_observer(seen.append)
    Ticker(sim, log, "a", 10.0, 30.0).start(as_events=False)
    sim.schedule_at(15.0, log.append, (15.0, "ev"))
    steps = 0
    while sim.step():
        steps += 1
    assert steps == 4
    assert seen == [10.0, 15.0, 20.0, 30.0]
    assert sim.events_fired == 1 and sim.chain_boundaries == 3


def test_max_events_counts_boundaries(sim):
    log: list = []
    Ticker(sim, log, "a", 1.0, 100.0).start(as_events=False)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)
    assert len(log) == 10


def test_live_chain_is_pending_work_for_the_liveness_check(sim):
    blocked = ["t"]
    sim.add_liveness_probe(lambda: list(blocked))

    def boundary():
        if sim.now < 30.0:
            return sim.now + 10.0
        blocked.clear()  # only the chain's last boundary unblocks
        return None

    sim.start_chain(10.0, boundary)
    assert sim.run() == 30.0  # the queue was empty all along: no deadlock
    blocked.append("t")
    with pytest.raises(DeadlockError):
        sim.run()


def test_chain_cannot_start_in_the_past(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="before now"):
        sim.start_chain(1.0, lambda: None)


@pytest.mark.parametrize("as_events", [False, True])
def test_run_and_step_agree(as_events):
    logs = {}
    for by_step in (False, True):
        sim = Simulator()
        logs[by_step] = (_mixed(sim, as_events, by_step), sim.events_fired, sim.chain_boundaries)
    assert logs[False] == logs[True]
