"""Property tests: the kernel's one run loop against its reference path.

Hypothesis generates random scheduling programs — colliding delays, all
five priorities, bare events mixed with cancellable timers, cancellations,
callbacks that schedule events and arm and cancel timers, segmented
bounded runs — and
checks them against the guarantees of the single heap:

* ``run()`` equals ``step()``-driven execution: the full fire log, the
  clock, ``events_fired``, and ``pending_count``/``peek_time`` sampled
  after every event;
* a run cut into ``run(until=…)`` segments fires what one run fires;
* the fire log is sorted by ``(time, priority, seq)`` among the events
  pending together: an event scheduled by a callback at the current
  instant with a smaller priority number legitimately fires after the
  event that scheduled it;
* no cancelled timer fires;
* the heap's two storage disciplines — lazy deletion below the
  compaction floor and eager compaction (a floor of 1, so cancellations
  rewrite the heap in place under the running loop) — are
  observationally identical.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import kernel
from repro.sim.events import EventHandle, Priority
from repro.sim.kernel import Simulator

_PRIORITIES = [
    Priority.INTERRUPT,
    Priority.TASKLET,
    Priority.NORMAL,
    Priority.LOW,
    Priority.IDLE,
]

# Coarse delays deliberately collide at the same instant (same-time
# ordering is decided by priority and seq alone); fine delays interleave;
# huge delays sit far behind everything else, like retransmit timers.
delays = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e4, max_value=1e6, allow_nan=False, allow_infinity=False),
)
priorities = st.sampled_from(_PRIORITIES)
horizons = st.lists(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)

# One scheduling instruction: (delay, priority, n_children, child_delay,
# cancel_child, cancel_self_reschedule)
ops = st.tuples(
    delays,
    priorities,
    st.integers(min_value=0, max_value=3),
    delays,
    st.booleans(),
    st.booleans(),
)


@contextmanager
def _compact_min(floor: int):
    """Run the body with the heap's compaction floor set to ``floor``."""
    saved = kernel._COMPACT_MIN
    kernel._COMPACT_MIN = floor
    try:
        yield
    finally:
        kernel._COMPACT_MIN = saved


def _execute(program, by_step: bool = False, until=()) -> dict:
    """Run one generated program and collect every observable the
    determinism contract covers. ``by_step`` drives it through ``step()``;
    otherwise ``until`` lists the horizons of bounded runs made before the
    final ``run()``."""
    sim = Simulator()
    log: list[tuple[float, str]] = []
    #: tag -> the (time, priority, seq) key it was scheduled with
    keys: dict[str, tuple[float, int, int]] = {}
    #: tag -> the handle of a timer (events have none)
    handles: dict[str, EventHandle] = {}
    #: tag -> number of events scheduled (the highest seq) when it fired
    scheduled_before: dict[str, int] = {}

    def sched(
        delay: float, tag: str, *args, priority: int = Priority.NORMAL, timer: bool = False
    ) -> EventHandle | None:
        """An event, or with ``timer`` a cancellable timer, ``delay`` from now."""
        time = sim.now + delay
        if timer:
            handles[tag] = sim.timer(time, fire, tag, *args, priority=priority)
        else:
            sim.schedule(delay, fire, tag, *args, priority=priority)
        keys[tag] = (time, priority, len(keys) + 1)
        return handles.get(tag)

    def fire(tag: str, children, child_delay, cancel_child, rearm) -> None:
        log.append((sim.now, tag))
        scheduled_before[tag] = len(keys)
        kids = [
            sched(child_delay, f"{tag}.{i}", 0, 0.0, False, False, timer=cancel_child)
            for i in range(children)
        ]
        if cancel_child and kids:
            kids[0].cancel()
            log.append((sim.now, f"{tag}:cancelled-child"))
        if rearm:
            # schedule-then-cancel from inside a callback: the classic
            # retransmit-timer shape
            sched(child_delay + 1.0, f"{tag}:ghost", 0, 0.0, False, False, timer=True).cancel()

    pre_cancel = []
    for i, (delay, prio, children, child_delay, cancel_child, rearm) in enumerate(program):
        h = sched(delay, f"op{i}", children, child_delay, cancel_child, rearm, priority=prio,
                  timer=i % 7 in (3, 5))
        if i % 7 == 3:
            pre_cancel.append(h)
    for h in pre_cancel:
        h.cancel()

    samples: list[tuple[float, int, float | None]] = []
    sim.add_observer(lambda now: samples.append((now, sim.pending_count(), sim.peek_time())))
    clocks = []
    if by_step:
        while sim.step():
            pass
    else:
        clocks = [sim.run(until=h) for h in until]
        clocks.append(sim.run())

    fired = [tag for _t, tag in log if ":cancelled-child" not in tag]
    for k, tag in enumerate(fired):
        key = keys[tag]
        for later in fired[k + 1:]:
            if keys[later][2] <= scheduled_before[tag]:
                assert keys[later] > key, (
                    f"{later} was pending when {tag} fired but has a smaller key")
    assert all(handles[tag].fired for tag in fired if tag in handles)
    assert all(h.sort_key() == keys[tag] for tag, h in handles.items())
    assert not any(h.fired for h in handles.values() if h.cancelled)
    assert len(set(fired)) == len(fired)
    return {
        "log": log,
        "clocks": clocks,
        "compactions": sim.queue_stats()["compactions"],
        "end": sim.now,
        "fired": sim.events_fired,
        "samples": samples,
        "final_pending": sim.pending_count(),
        "final_peek": sim.peek_time(),
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25))
def test_run_matches_step_driven_execution(program):
    by_run = _execute(program)
    by_step = _execute(program, by_step=True)
    by_run.pop("clocks")
    by_step.pop("clocks")
    assert by_run == by_step


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25))
def test_queues_observationally_identical(program):
    """A heap that compacts on almost every cancellation — rewriting the
    list the run loop holds an alias to, mid-run — fires exactly what the
    default lazily-deleting heap fires, through run() and through step()."""
    lazy = _execute(program)
    with _compact_min(1):
        eager = _execute(program)
        eager_by_step = _execute(program, by_step=True)
    assert lazy["compactions"] == 0
    for observed in (eager, eager_by_step):
        observed.pop("compactions")
        observed.pop("clocks")
    lazy.pop("compactions")
    lazy.pop("clocks")
    assert eager == lazy
    assert eager_by_step == lazy


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25), horizons)
def test_segmented_runs_match_one_run(program, until):
    """run(until=…) segments, then a final drain, fire what one run fires.
    The clock lands on each horizon even when the queue drains early, and
    never goes backwards."""
    until = sorted(until)
    segmented = _execute(program, until=until)
    whole = _execute(program)
    for key in ("log", "fired", "samples", "final_pending", "final_peek"):
        assert segmented[key] == whole[key], key
    clocks = segmented["clocks"]
    for h, c in zip(until, clocks):
        assert c >= h
    assert clocks == sorted(clocks)
    assert clocks[-1] == max(whole["end"], until[-1])


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=25), horizons)
def test_segmented_runs_agree_across_queues(program, until):
    """Segmented runs on the eagerly compacting heap — compaction may
    rewrite the heap between segments, and an entry past the horizon is
    pushed back into it — match segmented runs on the default heap,
    clocks included."""
    until = sorted(until)
    lazy = _execute(program, until=until)
    with _compact_min(1):
        eager = _execute(program, until=until)
    eager.pop("compactions")
    lazy.pop("compactions")
    assert eager == lazy


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(delays, priorities), min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
def test_cancelled_handles_never_fire(entries, cancel_idx):
    """Static schedules with arbitrary cancellation subsets: exactly the
    surviving handles fire, once each, in ``(time, priority, seq)`` order."""
    sim = Simulator()
    fired: list[int] = []
    handles = [
        sim.timer(d, lambda i=i: fired.append(i), priority=p)
        for i, (d, p) in enumerate(entries)
    ]
    for i in cancel_idx:
        if i < len(handles):
            handles[i].cancel()
    sim.run()
    live = [i for i in range(len(handles)) if i not in cancel_idx]
    assert fired == sorted(live, key=lambda i: handles[i].sort_key())
    assert sim.events_fired == len(live)
    assert sim.pending_count() == 0 and sim.peek_time() is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(delays, priorities), min_size=1, max_size=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
def test_cancellation_sets_agree_across_queues(entries, cancel_idx):
    """Cancellation subsets compacted away before the run (floor 1) leave
    the same fire order, counters and drained state as the same subsets
    dropped lazily as they surface."""
    results = []
    for floor in (kernel._COMPACT_MIN, 1):
        with _compact_min(floor):
            sim = Simulator()
            fired: list[int] = []
            handles = [
                sim.timer(d, lambda i=i: fired.append(i), priority=p)
                for i, (d, p) in enumerate(entries)
            ]
            for i in cancel_idx:
                if i < len(handles):
                    handles[i].cancel()
            stats_before = sim.queue_stats()
            sim.run()
        live = sum(1 for h in handles if not h.cancelled)
        # the floor bounds the heap at 2 × max(live, floor) entries
        assert stats_before["entries"] <= 2 * max(live, floor)
        results.append((fired, sim.events_fired, sim.pending_count(), sim.peek_time()))
    assert results[0] == results[1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(delays, priorities), min_size=1, max_size=30))
def test_pending_count_and_peek_agree_during_run(entries):
    """Mid-run observables sampled from an observer — pending_count and
    peek_time after every event — agree between run() and step()."""
    samples = []
    for by_step in (False, True):
        sim = Simulator()
        seen: list[tuple[float, int, float | None]] = []
        sim.add_observer(
            lambda now: seen.append((now, sim.pending_count(), sim.peek_time()))
        )
        for d, p in entries:
            sim.schedule(d, lambda: None, priority=p)
        if by_step:
            while sim.step():
                pass
        else:
            sim.run()
        samples.append(seen)
    assert samples[0] == samples[1]
