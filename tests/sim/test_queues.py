"""Unit tests for the kernel's event queue, the heap a :class:`Simulator` owns.

Ordering against ``step()``-driven execution is pinned by
``test_kernel_fastpath`` and the property suite; this module covers the
queue mechanics themselves — its counters, cancelled-entry compaction
(the retransmit-timer bloat fix), compaction under a running loop,
retained handles, and the bloat regression guards.
"""

from __future__ import annotations

import pytest

from repro.sim.events import Priority
from repro.sim.kernel import Simulator
from repro.sim.kernel import _COMPACT_MIN


def _entries(sim: Simulator) -> int:
    return sim.queue_stats()["entries"]


def test_queue_stats_shape():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.timer(2.0, lambda: None).cancel()
    assert sim.queue_stats() == {"entries": 2, "cancelled": 1, "compactions": 0}
    sim.run()
    assert sim.queue_stats() == {"entries": 0, "cancelled": 0, "compactions": 0}


def test_call_soon_at_higher_priority_overtakes_queued_same_instant_events():
    """An event scheduled mid-run for the current instant at INTERRUPT
    priority fires before same-time NORMAL events queued long before it;
    one at NORMAL priority fires after them (its seq is later)."""
    sim = Simulator()
    log: list = []

    def first() -> None:
        log.append(("first", sim.now))
        sim.call_soon(lambda: log.append(("soon-interrupt", sim.now)),
                      priority=Priority.INTERRUPT)
        sim.call_soon(lambda: log.append(("soon-normal", sim.now)))

    sim.schedule(1.0, first)
    for i in range(4):
        sim.schedule(1.0, log.append, ("tail", i))
    sim.run()
    assert log == [
        ("first", 1.0),
        ("soon-interrupt", 1.0),
        ("tail", 0), ("tail", 1), ("tail", 2), ("tail", 3),
        ("soon-normal", 1.0),
    ]


# -- cancelled-entry compaction (the bloat fix) --------------------------------


def test_cancelled_far_future_timers_are_compacted():
    """A heap without compaction carries every ack-cancelled retransmit
    timer until its timestamp surfaces — hours of virtual time away.
    Stored entries must stay bounded while far-future timers are
    cancelled en masse."""
    sim = Simulator()
    n = 20_000
    peak = 0

    def churn(i: int) -> None:
        nonlocal peak
        h = sim.timer(sim.now + 1e9, lambda: None)  # retransmit timer, RTO ~forever
        h.cancel()  # ack arrives immediately
        peak = max(peak, _entries(sim))
        if i + 1 < n:
            sim.schedule(1.0, churn, i + 1)

    sim.schedule(1.0, churn, 0)
    sim.run()
    assert peak < 2 * _COMPACT_MIN + 64, f"queue bloated to {peak} entries"
    assert sim.queue_stats()["compactions"] >= 1


def test_compaction_preserves_live_entries():
    sim = Simulator()
    fired = []
    keep = [sim.timer(float(i) + 2.0, fired.append, i) for i in range(10)]
    for _ in range(2 * _COMPACT_MIN):
        sim.timer(1e9, lambda: None).cancel()
    assert sim.queue_stats()["compactions"] >= 1
    sim.run()
    assert fired == list(range(10))
    assert all(h.fired for h in keep)


def test_compaction_inside_the_run_loop_keeps_order():
    """A callback cancels more than ``_COMPACT_MIN`` pending timers, so the
    heap compacts while ``run()`` holds its alias to the heap list. Every
    live event must still fire, in ``(time, priority, seq)`` order, and no
    cancelled one may fire."""
    sim = Simulator()
    n = 3 * _COMPACT_MIN
    fired: list[int] = []
    handles = [
        sim.timer(20.0 + (i * 37) % 101, fired.append, i, priority=i % 5)
        for i in range(n)
    ]
    doomed = [i for i in range(n) if i % 3]
    survivors = sorted(
        (i for i in range(n) if i % 3 == 0),
        key=lambda i: (20.0 + (i * 37) % 101, i % 5, i),
    )
    seen: dict[str, object] = {}

    def cancel_most() -> None:
        for i in doomed:
            handles[i].cancel()
        seen.update(sim.queue_stats())

    sim.schedule(10.0, cancel_most)
    sim.run()
    assert len(doomed) >= _COMPACT_MIN
    assert seen["compactions"] >= 1
    assert fired == survivors
    assert not any(handles[i].fired for i in doomed)
    assert sim.queue_stats() == {
        "entries": 0, "cancelled": 0, "compactions": seen["compactions"],
    }


def test_cancel_before_run_with_no_queue_is_safe():
    # a handle constructed directly (never pushed) can still be cancelled
    from repro.sim.events import EventHandle

    h = EventHandle(1.0, Priority.NORMAL, 1, lambda: None, ())
    h.cancel()
    assert h.cancelled


# -- fired handles ---------------------------------------------------------------


def test_retained_handles_keep_their_fields_after_firing():
    """A handle the caller kept a reference to stays readable after it
    fires (fired, time, seq), while the kernel drops its callback so a
    retained timer does not pin its closure."""
    sim = Simulator()
    log: list[int] = []
    kept = [sim.timer(float(i) + 1.0, log.append, i) for i in range(50)]
    assert [(h._fn, h._args) for h in kept] == [(log.append, (i,)) for i in range(50)]
    seqs = [h.seq for h in kept]
    for i in range(50):
        sim.schedule(float(i) + 1.5, lambda: None)  # interleaved churn
    sim.run()
    assert log == list(range(50))
    assert all(h.fired and not h.pending for h in kept)
    assert [h.time for h in kept] == [float(i) + 1.0 for i in range(50)]
    assert [h.seq for h in kept] == seqs
    assert all(h._fn != log.append and h._args == () for h in kept)


# -- bloat regression guard (perf lane) ---------------------------------------


@pytest.mark.perf
def test_reliability_ack_storm_queue_stays_bounded():
    """Ack-heavy reliability traffic: every send arms a retransmit timer
    the ack cancels almost immediately. Stored entries — sampled from an
    observer after every event — must stay bounded instead of growing
    with message count."""
    sim = Simulator()
    n = 20_000
    peak = [0]
    sim.add_observer(lambda _now: peak.__setitem__(0, max(peak[0], _entries(sim))))

    def send(i: int) -> None:
        timer = sim.timer(sim.now + 1e8, lambda: None)  # RTO far beyond the run
        sim.schedule(0.5, timer.cancel)  # the ack
        if i + 1 < n:
            sim.schedule(1.0, send, i + 1)

    sim.schedule(1.0, send, 0)
    sim.run()
    assert peak[0] < 2 * _COMPACT_MIN + 256, (
        f"queue bloated to {peak[0]} entries for {n} sends")
