"""Kernel tick chains: boundaries merged with real events in key order,
passed in batches.

A chain entry carries the ``(time, priority, seq)`` key its boundary's
event would have had, so every test here is an equivalence: the chain
against the same boundaries scheduled as ordinary self-rescheduling
events. A batch's later boundaries act only on their own chain, so the
tests compare what each chain passed, and what every event saw of the
chains when it fired, rather than one interleaved log.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Priority
from repro.sim.kernel import Simulator


class Ticker:
    """Boundaries every ``period`` µs from ``first`` (one period from now
    by default) until ``end``, then one at ``final`` if given. ``passed``
    holds the time of each boundary passed, ``batches`` one ``(now, stop,
    n)`` per batch; the last boundary calls ``on_last``. ``as_events``
    schedules the boundaries as real events."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        end: float,
        first: float | None = None,
        final: float | None = None,
        on_last=None,
    ) -> None:
        self.sim, self.period, self.end = sim, period, end
        self.first, self.final, self.on_last = first, final, on_last
        self.passed: list[float] = []
        self.batches: list[tuple[float, float, int]] = []
        self.entry: list | None = None
        #: ``end`` bound handed to ``start_chain``: no later than the last
        #: boundary when it acts beyond the ticker
        self.bound = math.inf

    def after(self, t: float) -> float | None:
        nxt = t + self.period
        if nxt <= self.end:
            return nxt
        if self.final is not None and t < self.final:
            return self.final
        return None

    def batch(self, stop: float):
        """The chain-function contract: the pending boundary, then the
        following ones before ``stop`` and before another chain's
        pending instant; the last boundary, and the one before it when
        the last acts, first in a batch."""
        now = t = self.sim.now
        n = 0
        ties = None
        while True:
            nxt = self.after(t)
            if n and (nxt is None or self.on_last is not None and self.after(nxt) is None):
                break  # the last two boundaries: first in a batch
            self.passed.append(t)
            n += 1
            if nxt is None:
                if self.on_last is not None:
                    self.on_last()
                self.batches.append((now, stop, n))
                return n, None
            t = nxt
            if t >= stop:
                break
            if ties is None:
                ties = self.sim.chain_times()
            if t in ties:
                break
        self.batches.append((now, stop, n))
        return n, t

    def start(self, as_events: bool) -> "Ticker":
        first = self.sim.now + self.period if self.first is None else self.first
        if as_events:
            self.sim.schedule_at(first, self._event)
        else:
            self.entry = self.sim.start_chain(first, self.batch, end=self.bound)
        return self

    def _event(self) -> None:
        _n, nxt = self.batch(-math.inf)
        if nxt is not None:
            self.sim.schedule_at(nxt, self._event)


class Seen:
    """Real events that log, when they fire, how many boundaries each
    ticker had passed."""

    def __init__(self, sim: Simulator, tickers: dict[str, Ticker]) -> None:
        self.sim, self.tickers = sim, tickers
        self.log: list[tuple[float, str, dict[str, int]]] = []

    def at(self, time: float, name: str, priority: int = Priority.NORMAL):
        return self.sim.schedule_at(time, self._fire, name, priority=priority)

    def _fire(self, name: str) -> None:
        counts = {k: len(t.passed) for k, t in self.tickers.items()}
        self.log.append((self.sim.now, name, counts))


def _mixed(sim: Simulator, as_events: bool, by_step: bool = False):
    """Two chains sharing a tick phase plus real events at the same
    instants, scheduled before and after the chains start; run to the end
    by ``run()`` or by ``step()``."""
    tickers: dict[str, Ticker] = {}
    seen = Seen(sim, tickers)
    seen.at(10.0, "early")
    tickers["a"] = Ticker(sim, 10.0, 60.0).start(as_events)
    seen.at(20.0, "mid")
    tickers["b"] = Ticker(sim, 5.0, 60.0).start(as_events)
    seen.at(30.0, "late")
    seen.at(30.0, "irq", Priority.INTERRUPT)
    if by_step:
        while sim.step():
            pass
    else:
        sim.run()
    return seen.log, {k: t.passed for k, t in tickers.items()}


def test_boundaries_and_events_fire_in_key_order(sim):
    chained = _mixed(sim, as_events=False)
    ref = Simulator()
    assert chained == _mixed(ref, as_events=True)
    assert sim.chain_boundaries == ref.events_fired - sim.events_fired
    assert sim.chain_batches < sim.chain_boundaries
    # same-instant NORMAL entries order by seq, which a boundary takes when
    # the one before it is passed: a's first boundary took its seq when the
    # chain started, after "early"; every later one after all setup events
    log = {name: (time, counts) for time, name, counts in chained[0]}
    assert log["early"] == (10.0, {"a": 0, "b": 1})
    assert log["mid"] == (20.0, {"a": 1, "b": 3})
    assert log["irq"] == (30.0, {"a": 2, "b": 5})
    assert log["late"] == (30.0, {"a": 2, "b": 5})


def test_boundary_precedes_same_instant_events_with_later_keys(sim):
    """A boundary ties with events at its instant on time alone: a
    NORMAL event scheduled after the boundary took its seq, and a LOW
    one scheduled before, both fire after it; an INTERRUPT one before."""
    tickers: dict[str, Ticker] = {}
    seen = Seen(sim, tickers)
    seen.at(10.0, "low", Priority.LOW)
    tickers["a"] = Ticker(sim, 10.0, 10.0).start(as_events=False)
    seen.at(10.0, "normal")
    seen.at(10.0, "irq", Priority.INTERRUPT)
    sim.run()
    assert [(name, counts["a"]) for _t, name, counts in seen.log] == [
        ("irq", 0),
        ("normal", 1),
        ("low", 1),
    ]


@pytest.mark.parametrize(
    "priority, first_batch",
    [
        (Priority.INTERRUPT, 49),
        (Priority.TASKLET, 49),
        (Priority.NORMAL, 49),
        (Priority.LOW, 50),
    ],
)
def test_batch_stops_at_the_heap_top(sim, priority, first_batch):
    """The queued event at 50 bounds the batch that starts at 1: a
    boundary at 50 took its seq after the event, so it passes first only
    when the event's priority is later than NORMAL."""
    ticker = Ticker(sim, 1.0, 100.0)
    seen = Seen(sim, {"t": ticker})
    seen.at(50.0, "ev", priority)
    ticker.start(as_events=False)
    sim.run()
    assert ticker.batches[0][2] == first_batch
    assert seen.log == [(50.0, "ev", {"t": first_batch})]
    assert ticker.passed == [float(t) for t in range(1, 101)]
    # the rest up to 99, then the last boundary alone
    assert [n for _now, _stop, n in ticker.batches] == [first_batch, 99 - first_batch, 1]
    assert sim.chain_boundaries == 100 and sim.now == 100.0


def test_batch_stops_at_a_cancelled_top(sim):
    """A cancelled entry on top of the queue still bounds the batch; the
    next batch carries on past it, as if it were never scheduled."""
    ticker = Ticker(sim, 1.0, 100.0)
    ticker.start(as_events=False)
    sim.timer(50.0, lambda: None).cancel()
    sim.run()
    assert [n for _now, _stop, n in ticker.batches] == [49, 50, 1]
    assert ticker.batches[0][1] == 50.0
    assert ticker.passed == [float(t) for t in range(1, 101)]
    assert sim.events_fired == 0


@pytest.mark.parametrize("as_events", [False, True])
def test_batch_stops_at_another_chains_end(as_events):
    """The ender's last boundary, at 30, halves the pace of the worker's
    later ones, as a compute's end can re-arm ticking on another core."""
    sim = Simulator()
    worker = Ticker(sim, 1.0, 60.0)
    ender = Ticker(sim, 10.0, 30.0, on_last=lambda: setattr(worker, "period", 2.0))
    ender.bound = 25.0  # half a tick before its last boundary
    ender.start(as_events)
    worker.start(as_events)
    sim.run()
    # the ender passes 30 before the worker's boundary at 30 (its seq is
    # older), so the worker's boundaries go 1..30, then every 2 µs
    assert ender.passed == [10.0, 20.0, 30.0]
    assert worker.passed == [float(t) for t in range(1, 31)] + [float(t) for t in range(32, 61, 2)]
    if not as_events:
        # no worker batch ran past the ender's end bound while it lived
        live = [(now, stop, n) for now, stop, n in worker.batches if now < 30.0]
        assert all(stop <= ender.bound for _now, stop, _n in live)
        assert max(n for _now, _stop, n in live) > 1


@pytest.mark.parametrize("as_events", [False, True])
def test_the_boundary_before_an_acting_last_passes_alone(as_events):
    """x's last boundary, at 97, ties with y's; y's boundary before it (at
    92) precedes x's (at 95), so y passes 97 first, and x's last boundary
    then changes y's pace. That holds only if x passes 95 in key order,
    first in its batch, not early in a long one."""
    sim = Simulator()
    y = Ticker(sim, 5.0, 200.0, first=2.0)
    x = Ticker(sim, 10.0, 95.0, first=5.0, final=97.0, on_last=lambda: setattr(y, "period", 2.0))
    x.bound = 97.0 - 5.0
    x.start(as_events)
    y.start(as_events)
    sim.run()
    assert x.passed[-3:] == [85.0, 95.0, 97.0]
    assert y.passed[18:23] == [92.0, 97.0, 102.0, 104.0, 106.0]


@pytest.mark.parametrize("as_events", [False, True])
def test_in_phase_chains_keep_their_order(as_events):
    """a and b tick in phase, a first; an event between a's boundary at
    10 and b's lets a pass 10 alone. b's batch then stops at a's pending
    instant (20) instead of running ahead, so a still ends first."""
    sim = Simulator()
    order: list[str] = []
    a = Ticker(sim, 10.0, 100.0, on_last=lambda: order.append("a"))
    b = Ticker(sim, 10.0, 100.0, on_last=lambda: order.append("b"))
    a.bound = b.bound = 95.0
    a.start(as_events)
    sim.schedule_at(10.0, lambda: None)
    b.start(as_events)
    sim.run()
    assert order == ["a", "b"]
    if not as_events:
        assert [n for _now, _stop, n in b.batches[:2]] == [1, 7]


def test_run_until_lands_on_the_horizon_and_resumes():
    """Bounded runs stop batches at the horizon (a boundary on it passes)
    and leave the clock there; resuming gives what one run gives."""

    def build(sim: Simulator):
        tickers = {"a": Ticker(sim, 2.5, 100.0).start(False), "b": Ticker(sim, 10.0, 80.0).start(False)}
        seen = Seen(sim, tickers)
        for t in (12.5, 40.0, 41.0):
            seen.at(t, f"ev{t}")
        return tickers, seen

    whole = Simulator()
    ref_tickers, ref_seen = build(whole)
    end = whole.run()
    assert end == 100.0  # the clock is on the last boundary passed
    sim = Simulator()
    tickers, seen = build(sim)
    assert sim.run(until=37.5) == 37.5
    assert tickers["a"].passed[-1] == 37.5 and tickers["b"].passed[-1] == 30.0
    assert sim.run(until=37.5) == 37.5  # nothing due: clock stays
    assert sim.run(until=55.0) == 55.0
    assert sim.run() == end
    assert seen.log == ref_seen.log
    assert {k: t.passed for k, t in tickers.items()} == {k: t.passed for k, t in ref_tickers.items()}
    assert sim.chain_boundaries == whole.chain_boundaries
    assert sim.chain_batches > whole.chain_batches


def test_materialize_keeps_the_key(sim):
    ticker = Ticker(sim, 10.0, 100.0).start(as_events=False)
    seen = Seen(sim, {"a": ticker})
    seen.at(30.0, "same-instant, later seq")
    entry = ticker.entry

    def rearm() -> None:
        key = tuple(entry[:3])
        assert sim.materialize(entry, ticker._event) is None
        # the boundary became a bare event entry with the boundary's key
        assert [e[:3] for e in sim._heap if e[3] == ticker._event] == [key]
        seen._fire("rearm")

    sim.schedule_at(25.0, rearm)
    sim.run()
    ref = Simulator()
    ref_ticker = Ticker(ref, 10.0, 100.0).start(as_events=True)
    ref_seen = Seen(ref, {"a": ref_ticker})
    ref_seen.at(30.0, "same-instant, later seq")
    ref.schedule_at(25.0, ref_seen._fire, "rearm")
    ref.run()
    assert seen.log == ref_seen.log
    assert ticker.passed == ref_ticker.passed
    assert sim.chain_boundaries == 2  # 10 and 20; 30 onwards are real events
    with pytest.raises(SimulationError, match="retired"):
        sim.materialize(entry, ticker._event)
    ended = Ticker(sim, 1.0, sim.now + 1.0).start(as_events=False)
    sim.run()
    with pytest.raises(SimulationError, match="retired"):
        sim.materialize(ended.entry, ticker._event)


def test_materialized_chain_is_gone(sim):
    a = Ticker(sim, 10.0, 100.0).start(as_events=False)
    b = Ticker(sim, 7.0, 7.0).start(as_events=False)
    log: list = []
    assert sim.pending_count() == 2
    assert sim.peek_time() == 7.0
    sim.materialize(a.entry, log.append, (10.0, "real"))
    # one pending event replaces the chain, which never fires again
    assert sim.pending_count() == 2
    assert sim.run(until=8.0) == 8.0 and sim.chain_boundaries == 1
    assert sim.pending_count() == 1
    assert sim.run() == 10.0
    assert log == [(10.0, "real")] and a.passed == [] and b.passed == [7.0]
    assert sim.chain_boundaries == 1
    assert sim.pending_count() == 0 and sim.peek_time() is None


def test_run_until_inside_a_chain_stops_and_resumes(sim):
    ticker = Ticker(sim, 10.0, 50.0).start(as_events=False)
    assert sim.run(until=25.0) == 25.0
    assert ticker.passed == [10.0, 20.0]
    assert sim.pending_count() == 1 and sim.peek_time() == 30.0
    assert sim.run(until=25.0) == 25.0  # nothing due: clock stays
    sim.run()
    assert ticker.passed == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert sim.events_fired == 0 and sim.chain_boundaries == 5
    assert sim.chain_batches == 3  # 10-20, 30-40 with nothing in between, 50


def test_step_and_observers_see_each_boundary(sim):
    seen_times: list = []
    sim.add_observer(seen_times.append)
    ticker = Ticker(sim, 10.0, 30.0).start(as_events=False)
    sim.schedule_at(15.0, lambda: None)
    steps = 0
    while sim.step():
        steps += 1
    assert steps == 4
    assert seen_times == [10.0, 15.0, 20.0, 30.0]
    assert sim.events_fired == 1 and sim.chain_boundaries == 3
    assert sim.chain_batches == 3 and ticker.passed == [10.0, 20.0, 30.0]
    # an observer keeps run() at one boundary per batch too
    run_seen: list = []
    other = Simulator()
    other.add_observer(run_seen.append)
    Ticker(other, 10.0, 30.0).start(as_events=False)
    other.schedule_at(15.0, lambda: None)
    other.run()
    assert run_seen == seen_times and other.chain_batches == 3


def test_max_events_counts_boundaries(sim):
    ticker = Ticker(sim, 1.0, 100.0).start(as_events=False)
    sim.schedule_at(4.5, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)
    # ten steps get exactly as far
    ref = Simulator()
    ref_ticker = Ticker(ref, 1.0, 100.0).start(as_events=False)
    ref.schedule_at(4.5, lambda: None)
    for _ in range(10):
        assert ref.step()
    assert ticker.passed == ref_ticker.passed == [float(t) for t in range(1, 10)]
    assert (sim.now, sim.events_fired, sim.chain_boundaries, sim.chain_batches) == (
        ref.now,
        ref.events_fired,
        ref.chain_boundaries,
        ref.chain_batches,
    )
    assert sim.chain_batches == 9  # one boundary per batch


def test_chain_ends_only_first_in_a_batch(sim):
    """A chain ends at the first boundary of a batch, so the clock is on
    the last boundary passed; ending later in one is refused."""
    sim.start_chain(1.0, lambda stop: (2, None), end=1.0)
    with pytest.raises(SimulationError, match="ends only first in a batch"):
        sim.run()


def test_live_chain_is_pending_work_for_the_liveness_check(sim):
    blocked = ["t"]
    sim.add_liveness_probe(lambda: list(blocked))

    def batch(stop):
        if sim.now < 30.0:
            return 1, sim.now + 10.0
        blocked.clear()  # only the chain's last boundary unblocks
        return 1, None

    sim.start_chain(10.0, batch, end=30.0)
    assert sim.run() == 30.0  # the queue was empty all along: no deadlock
    blocked.append("t")
    with pytest.raises(DeadlockError):
        sim.run()


def test_chain_cannot_start_in_the_past(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="before now"):
        sim.start_chain(1.0, lambda stop: (1, None), end=1.0)


@pytest.mark.parametrize("as_events", [False, True])
def test_run_and_step_agree(as_events):
    outs = {}
    for by_step in (False, True):
        sim = Simulator()
        outs[by_step] = (_mixed(sim, as_events, by_step), sim.events_fired, sim.chain_boundaries)
    assert outs[False] == outs[True]
