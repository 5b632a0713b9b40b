"""Unit tests for the pluggable event-queue layer (:mod:`repro.sim.queues`).

Ordering equivalence across implementations is pinned by
``test_kernel_fastpath`` and the property suite; this module covers the
queue mechanics themselves — selection, calendar resizing, cancelled-entry
compaction (the retransmit-timer bloat fix), incursion ordering, handle
pooling, and the bloat regression guards.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import Priority
from repro.sim.kernel import Simulator
from repro.sim.queues import (
    QUEUE_KINDS,
    CalendarQueue,
    EventQueue,
    HeapQueue,
    _COMPACT_MIN,
    make_queue,
)

# -- selection -----------------------------------------------------------------


def test_make_queue_by_kind():
    assert isinstance(make_queue("heap"), HeapQueue)
    assert isinstance(make_queue("calendar"), CalendarQueue)


def test_make_queue_passthrough_instance():
    q = CalendarQueue()
    assert make_queue(q) is q


def test_make_queue_rejects_unknown_kind():
    with pytest.raises(SimulationError, match="unknown event queue"):
        make_queue("splay")


def test_simulator_queue_selection():
    assert Simulator().queue.kind == "heap"  # conservative default
    assert Simulator(queue="calendar").queue.kind == "calendar"
    custom = HeapQueue()
    assert Simulator(queue=custom).queue is custom


def test_timing_model_defaults_to_calendar():
    from repro.config import KernelConfig, TimingModel
    from repro.errors import ConfigError

    assert TimingModel().kernel.queue == "calendar"
    with pytest.raises(ConfigError):
        KernelConfig(queue="splay")


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_queue_stats_shape(kind):
    sim = Simulator(queue=kind)
    sim.schedule(1.0, lambda: None)
    stats = sim.queue_stats()
    assert stats["kind"] == kind
    assert stats["entries"] == 1
    assert stats["cancelled"] == 0
    assert "compactions" in stats


# -- calendar resizing ---------------------------------------------------------


def test_calendar_grows_buckets_under_load():
    sim = Simulator(queue="calendar")
    fired = []
    for i in range(4_000):
        sim.schedule(float(i) * 0.5 + 1.0, fired.append, i)
    sim.run()
    assert fired == list(range(4_000))
    stats = sim.queue_stats()
    assert stats["resizes"] >= 1
    assert stats["batches"] >= 1


def test_calendar_shrinks_after_drain_burst():
    sim = Simulator(queue="calendar")
    peak = [0]
    sim.add_observer(
        lambda _now: peak.__setitem__(0, max(peak[0], sim.queue_stats()["buckets"])))
    # a dense burst forces growth mid-run...
    for i in range(3_000):
        sim.schedule(float(i) * 0.1, lambda: None)
    sim.run()
    stats = sim.queue_stats()
    assert peak[0] >= 1_024  # grew to hold the burst
    assert stats["buckets"] <= 64  # ...and shrank back as it drained
    assert stats["resizes"] >= 2  # at least one grow and one shrink


def test_calendar_handles_sparse_far_future_jumps():
    """Cursor must jump over long empty stretches, not crawl bucket by
    bucket for each of the 10^6 widths between events."""
    sim = Simulator(queue="calendar")
    fired = []
    sim.schedule(0.5, fired.append, "near")
    sim.schedule(1_000_000.0, fired.append, "far")
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == 1_000_000.0


def test_calendar_batch_incursion_preserves_priority_order():
    """An event scheduled mid-batch for the current instant at INTERRUPT
    priority must fire before same-time NORMAL events already extracted
    into the batch — exactly as the heap orders it."""
    logs = {}
    for kind in QUEUE_KINDS:
        sim = Simulator(queue=kind)
        log = logs.setdefault(kind, [])

        def first(sim=sim, log=log):
            log.append(("first", sim.now))
            sim.call_soon(lambda: log.append(("soon-interrupt", sim.now)),
                          priority=Priority.INTERRUPT)
            sim.call_soon(lambda: log.append(("soon-normal", sim.now)))

        sim.schedule(1.0, first)
        for i in range(4):
            sim.schedule(1.0, log.append, ("tail", i))
        sim.run()
    assert logs["calendar"] == logs["heap"]


def test_calendar_push_behind_skipped_cursor():
    """A callback scheduling into a region the cursor already skipped past
    (possible after a sparse jump) must still fire in time order."""
    sim = Simulator(queue="calendar")
    fired = []

    def at_far():
        fired.append(sim.now)
        # now is huge; schedule slightly ahead — lands behind the cursor's
        # absolute index after the sparse jump unless the queue rewinds
        sim.schedule(0.25, lambda: fired.append(sim.now))

    sim.schedule(500_000.0, at_far)
    sim.run()
    assert fired == [500_000.0, 500_000.25]


# -- cancelled-entry compaction (the bloat fix) --------------------------------


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_cancelled_far_future_timers_are_compacted(kind):
    """The historical heap carried every ack-cancelled retransmit timer
    until its timestamp surfaced — hours of virtual time away. Both queues
    must now keep stored entries bounded while cancelling far-future
    timers en masse."""
    sim = Simulator(queue=kind)
    n = 20_000
    peak = 0

    def churn(i: int) -> None:
        nonlocal peak
        h = sim.schedule(1e9, lambda: None)  # retransmit timer, RTO ~forever
        h.cancel()  # ack arrives immediately
        peak = max(peak, len(sim.queue))
        if i + 1 < n:
            sim.schedule(1.0, churn, i + 1)

    sim.schedule(1.0, churn, 0)
    sim.run()
    assert peak < 2 * _COMPACT_MIN + 64, f"queue bloated to {peak} entries"
    assert sim.queue_stats()["compactions"] >= 1


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_compaction_preserves_live_entries(kind):
    sim = Simulator(queue=kind)
    fired = []
    keep = [sim.schedule(float(i) + 2.0, fired.append, i) for i in range(10)]
    for _ in range(2 * _COMPACT_MIN):
        sim.schedule(1e9, lambda: None).cancel()
    assert sim.queue_stats()["compactions"] >= 1
    sim.run()
    assert fired == list(range(10))
    assert all(h.fired for h in keep)


def test_cancel_before_run_with_no_queue_is_safe():
    # a handle constructed directly (never pushed) can still be cancelled
    from repro.sim.events import EventHandle

    h = EventHandle(1.0, Priority.NORMAL, 1, lambda: None, (), "")
    h.cancel()
    assert h.cancelled


# -- fired handles ---------------------------------------------------------------


@pytest.mark.parametrize("kind", QUEUE_KINDS)
def test_retained_handles_keep_their_fields_after_firing(kind):
    """A handle the caller kept a reference to stays readable after it
    fires (fired, time, label), while the kernel drops its callback so a
    retained timer does not pin its closure."""
    sim = Simulator(queue=kind)
    log: list[int] = []
    kept = [sim.schedule(float(i) + 1.0, log.append, i, label=f"ev{i}") for i in range(50)]
    for i in range(50):
        sim.schedule(float(i) + 1.5, lambda: None)  # interleaved churn
    sim.run()
    assert log == list(range(50))
    assert all(h.fired and not h.pending for h in kept)
    assert [h.time for h in kept] == [float(i) + 1.0 for i in range(50)]
    assert [h.label for h in kept] == [f"ev{i}" for i in range(50)]
    assert all(h._fn != log.append and h._args == () for h in kept)


# -- generic EventQueue fallback ----------------------------------------------


class _ListQueue(EventQueue):
    """Deliberately naive third-party implementation: sorted list."""

    kind = "list"

    def __init__(self) -> None:
        self._entries = []

    def push(self, handle) -> None:
        handle._queue = self
        self._entries.append(handle)
        self._entries.sort(key=lambda h: h._key)

    def pop_next(self):
        while self._entries:
            h = self._entries.pop(0)
            if not h.cancelled:
                return h
        return None

    def peek_time(self):
        while self._entries and self._entries[0].cancelled:
            self._entries.pop(0)
        return self._entries[0].time if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def _note_cancel(self) -> None:
        pass

    def stats(self):
        return {"kind": self.kind, "entries": len(self._entries)}


def test_generic_queue_runs_through_fallback_loop():
    sim = Simulator(queue=_ListQueue())
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(1.0, sim.stop)  # exercises stop in the generic loop
    sim.run()
    assert fired == ["a"]
    assert sim.run() == 2.0
    assert fired == ["a", "b"]


def test_generic_queue_bounded_run():
    sim = Simulator(queue=_ListQueue())
    fired = []
    for i in range(4):
        sim.schedule(float(i) + 1.0, fired.append, i)
    assert sim.run(until=2.5) == 2.5
    assert fired == [0, 1]
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=1)


# -- bloat regression guard (perf lane) ---------------------------------------


@pytest.mark.perf
def test_reliability_ack_storm_queue_stays_bounded():
    """Ack-heavy reliability traffic: every send arms a retransmit timer
    the ack cancels almost immediately. Stored entries — sampled from an
    observer after every event — must stay bounded instead of growing
    with message count, on both queue implementations."""
    for kind in QUEUE_KINDS:
        sim = Simulator(queue=kind)
        n = 20_000
        peak = [0]
        sim.add_observer(lambda _now: peak.__setitem__(0, max(peak[0], len(sim.queue))))

        def send(i: int) -> None:
            timer = sim.schedule(1e8, lambda: None)  # RTO far beyond the run
            sim.schedule(0.5, timer.cancel)  # the ack
            if i + 1 < n:
                sim.schedule(1.0, send, i + 1)

        sim.schedule(1.0, send, 0)
        sim.run()
        assert peak[0] < 2 * _COMPACT_MIN + 256, (
            f"{kind} queue bloated to {peak[0]} entries for {n} sends")
