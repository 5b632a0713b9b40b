"""Property tests: discrete-event kernel ordering invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Priority
from repro.sim.kernel import Simulator

delays = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
priorities = st.sampled_from(
    [Priority.INTERRUPT, Priority.TASKLET, Priority.NORMAL, Priority.LOW, Priority.IDLE]
)


@given(st.lists(st.tuples(delays, priorities), min_size=1, max_size=60))
def test_events_fire_in_total_order(entries):
    """Regardless of insertion order, events fire sorted by
    (time, priority, insertion-sequence)."""
    sim = Simulator()
    fired: list[tuple[float, int, int]] = []
    for seq, (delay, prio) in enumerate(entries):
        sim.schedule(delay, lambda d=delay, p=prio, s=seq: fired.append((d, p, s)), priority=prio)
    sim.run()
    assert len(fired) == len(entries)
    assert fired == sorted(fired)


@given(
    st.lists(delays, min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
def test_cancellation_removes_exactly_the_cancelled(all_delays, cancel_idx):
    sim = Simulator()
    fired: list[int] = []
    handles = [
        sim.timer(d, lambda i=i: fired.append(i)) for i, d in enumerate(all_delays)
    ]
    for i in cancel_idx:
        if i < len(handles):
            handles[i].cancel()
    sim.run()
    expected = {i for i in range(len(all_delays))} - {
        i for i in cancel_idx if i < len(all_delays)
    }
    assert set(fired) == expected


@given(st.lists(delays, min_size=1, max_size=40))
def test_clock_is_monotone(all_delays):
    sim = Simulator()
    seen: list[float] = []
    for d in all_delays:
        sim.schedule(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert sim.now == max(all_delays)


@given(st.lists(delays, min_size=1, max_size=30), delays)
def test_run_until_partitions_events(all_delays, horizon):
    sim = Simulator()
    fired: list[float] = []
    for d in all_delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=horizon)
    assert all(d <= horizon for d in fired)
    sim.run()
    assert sorted(fired) == sorted(all_delays)
