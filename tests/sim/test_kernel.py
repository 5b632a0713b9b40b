"""Unit tests for the discrete-event kernel: ordering, bounded runs,
stop, liveness (the ``sim`` fixture is a fresh :class:`Simulator`)."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Priority


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_fires_in_time_order(sim):
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_fifo_order(sim):
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_same_time_ties(sim):
    order = []
    sim.schedule(1.0, order.append, "normal", priority=Priority.NORMAL)
    sim.schedule(1.0, order.append, "interrupt", priority=Priority.INTERRUPT)
    sim.schedule(1.0, order.append, "tasklet", priority=Priority.TASKLET)
    sim.run()
    assert order == ["interrupt", "tasklet", "normal"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_firing(sim):
    fired = []
    handle = sim.timer(1.0, fired.append, 1)
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.fired


def test_cancel_after_fire_is_noop(sim):
    fired = []
    handle = sim.timer(1.0, fired.append, 1)
    sim.run()
    handle.cancel()
    assert fired == [1]
    assert handle.fired


def test_call_soon_runs_at_current_instant(sim):
    times = []
    sim.schedule(3.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [3.0]


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    end = sim.run(until=5.0)
    assert fired == ["early"]
    assert end == 5.0
    assert sim.pending_count() == 1
    sim.run()
    assert fired == ["early", "late"]


def test_nested_scheduling_from_callbacks(sim):
    order = []

    def outer():
        order.append(("outer", sim.now))
        sim.schedule(2.0, inner)

    def inner():
        order.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == [("outer", 1.0), ("inner", 3.0)]


def test_stop_halts_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0


def test_max_events_guard(sim):
    def rearm():
        sim.schedule(0.1, rearm)

    sim.schedule(0.1, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_liveness_probe_raises_deadlock(sim):
    sim.add_liveness_probe(lambda: ["thread-x"])
    sim.schedule(1.0, lambda: None)
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "thread-x" in str(exc.value)
    assert exc.value.blocked == ("thread-x",)


def test_liveness_probe_quiet_when_nothing_blocked(sim):
    sim.add_liveness_probe(lambda: [])
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1.0


def test_bounded_run_skips_liveness_check(sim):
    sim.add_liveness_probe(lambda: ["stuck"])
    sim.schedule(1.0, lambda: None)
    # bounded runs may stop early legitimately
    sim.run(until=10.0)


def test_events_fired_counter(sim):
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_fired == 7


def test_peek_time(sim):
    assert sim.peek_time() is None
    h = sim.timer(4.0, lambda: None)
    assert sim.peek_time() == 4.0
    h.cancel()
    assert sim.peek_time() is None


def test_run_not_reentrant(sim):
    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError, match="reentrant"):
        sim.run()


def test_zero_delay_event_fires(sim):
    fired = []
    sim.schedule(0.0, fired.append, True)
    sim.run()
    assert fired == [True]
    assert sim.now == 0.0


# -- bounded-run edge cases (regressions) --------------------------------------
# Three bugs fixed together; each test pins one. See the kernel module
# docstring ("Bounded-run semantics") for the contract.


def test_max_events_exact_completion_by_drain(sim):
    """Regression: a run that *drains* in exactly ``max_events`` events is
    a legitimate completion, not a runaway."""
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.run(max_events=5) == 5.0
    assert sim.events_fired == 5


def test_max_events_exact_completion_by_stop(sim):
    """Regression: ``stop()`` during the Nth event beats the runaway check."""
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
    sim.schedule(3.0, fired.append, 3)
    sim.run(max_events=2)
    assert fired == [1, 2]


def test_max_events_exact_completion_by_until(sim):
    """Regression: reaching ``until`` on the Nth event is a completion even
    when later events remain beyond the bound."""
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.schedule(50.0, lambda: None)
    assert sim.run(until=10.0, max_events=3) == 10.0


def test_max_events_still_raises_when_work_remains(sim):
    for i in range(6):
        sim.schedule(float(i + 1), lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=5)


def test_max_events_leaves_the_next_event_pending(sim):
    """The event the runaway guard stops at is not lost: the next run
    fires it."""
    fired = []
    for i in range(3):
        sim.schedule(float(i + 1), fired.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=2)
    assert fired == [0, 1] and sim.events_fired == 2
    assert sim.pending_count() == 1 and sim.peek_time() == 3.0
    assert sim.run() == 3.0
    assert fired == [0, 1, 2]


def test_run_until_advances_clock_when_queue_drains_early(sim):
    """Regression: ``run(until=T)`` used to leave the clock at the last
    event when the queue drained before ``T`` but advance it to ``T`` when
    events remained — callers interleaving bounded runs with
    ``schedule_at`` saw an inconsistent clock."""
    sim.schedule(2.0, lambda: None)
    assert sim.run(until=10.0) == 10.0
    assert sim.now == 10.0
    # the clock really is at T: scheduling before it is rejected...
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)
    # ...and a zero-delay event fires at T
    fired = []
    sim.schedule(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0]


def test_run_until_advances_clock_on_empty_queue(sim):
    assert sim.run(until=7.0) == 7.0
    assert sim.now == 7.0


def test_run_until_never_rewinds_clock(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    # a bound in the past is a no-op on the clock
    assert sim.run(until=1.0) == 5.0
    assert sim.now == 5.0


def test_stop_before_run_fires_zero_events(sim):
    """Regression: a ``stop()`` requested before ``run()`` was silently
    discarded (the flag was reset on entry); it must fire zero events,
    leave the clock untouched, and be consumed by that run."""
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.stop()
    assert sim.run() == 0.0
    assert fired == []
    assert sim.events_fired == 0
    # the stop is consumed: the next run proceeds normally
    assert sim.run() == 1.0
    assert fired == [1]


def test_stop_mid_run_does_not_leak_into_next_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 3]
