"""Unit tests for tracing and core timelines."""

from __future__ import annotations

import pytest

from repro.sim.tracing import CoreTimeline, TraceRecord, Tracer


class TestTracer:
    def test_record_and_filter(self):
        t = Tracer()
        t.record(1.0, "marcel.switch", "n0.c0", "t1")
        t.record(2.0, "pioman.poll", "n0.c1", "")
        t.record(3.0, "marcel.wake", "n0.c0", "t2")
        assert t.count("marcel") == 2
        assert t.count("marcel.switch") == 1
        assert t.count("", where="n0.c0") == 2

    def test_category_filtering_at_record_time(self):
        t = Tracer(enabled_categories=["pioman"])
        t.record(1.0, "marcel.switch", "c", "x")
        t.record(1.0, "pioman.poll", "c", "y")
        assert len(t.records) == 1
        assert t.records[0].category == "pioman.poll"

    def test_empty_enabled_records_nothing(self):
        t = Tracer(enabled_categories=[])
        t.record(1.0, "anything", "w", "l")
        assert t.records == []

    def test_record_data_accessible(self):
        t = Tracer()
        t.record(1.0, "x", "w", "l", size=42, peer=1)
        assert t.records[0].get("size") == 42
        assert t.records[0].get("missing", "d") == "d"

    def test_signature_hashable_and_stable(self):
        t1, t2 = Tracer(), Tracer()
        for t in (t1, t2):
            t.record(1.0, "a", "w", "l")
            t.record(2.0, "b", "w", "m")
        assert t1.signature() == t2.signature()
        hash(t1.signature())

    def test_sink_called_live(self):
        seen = []
        t = Tracer()
        t.sink = seen.append
        t.record(1.0, "x", "w", "l")
        assert len(seen) == 1 and isinstance(seen[0], TraceRecord)

    def test_dump_format(self):
        t = Tracer()
        t.record(1.5, "cat", "where", "label", k=1)
        out = t.dump()
        assert "cat" in out and "where" in out and "k=1" in out


class TestTracerRingBuffer:
    def test_cap_keeps_newest(self):
        t = Tracer(max_records=3)
        for i in range(5):
            t.record(float(i), "cat", "w", f"l{i}")
        assert [r.label for r in t.records] == ["l2", "l3", "l4"]
        assert t.total_recorded == 5
        assert t.dropped_records == 2

    def test_uncapped_default_unlimited(self):
        t = Tracer()
        for i in range(5):
            t.record(float(i), "cat", "w", f"l{i}")
        assert len(t.records) == 5
        assert t.dropped_records == 0

    def test_capped_signature_deterministic(self):
        t1, t2 = Tracer(max_records=4), Tracer(max_records=4)
        for t in (t1, t2):
            for i in range(10):
                t.record(float(i), "a", "w", f"l{i}")
        assert t1.signature() == t2.signature()
        assert len(t1.signature()) == 4

    def test_dump_limit_works_on_capped_trace(self):
        t = Tracer(max_records=3)
        for i in range(5):
            t.record(float(i), "cat", "w", f"l{i}")
        assert t.dump(limit=2).count("\n") == 1  # two lines

    def test_invalid_cap_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Tracer(max_records=0)


class TestCoreTimeline:
    def test_accumulates_by_kind(self):
        tl = CoreTimeline("c0")
        tl.add(0.0, 10.0, "busy")
        tl.add(10.0, 12.0, "service")
        tl.add(12.0, 20.0, "idle")
        assert tl.busy_us == 10.0
        assert tl.service_us == 2.0
        assert tl.idle_us == 8.0
        assert tl.total_us == 20.0

    def test_utilization(self):
        tl = CoreTimeline("c0")
        tl.add(0.0, 5.0, "busy")
        tl.add(5.0, 10.0, "idle")
        assert tl.utilization() == pytest.approx(0.5)
        assert tl.service_fraction() == 0.0

    def test_empty_utilization_is_zero(self):
        assert CoreTimeline("c0").utilization() == 0.0

    def test_contiguous_same_kind_intervals_merge(self):
        tl = CoreTimeline("c0")
        for start in (0.0, 0.1, 0.2):
            tl.add(start, start + 0.1, "busy")  # ends at 0.1, 0.2, 0.30000000000000004
        tl.add(0.3, 0.5, "busy")  # starts 4e-17 off the last end: kept apart
        tl.add(0.5, 0.6, "service")
        tl.add(0.7, 0.8, "service")
        assert tl.intervals == [
            (0.0, 0.30000000000000004, "busy"),
            (0.3, 0.5, "busy"),
            (0.5, 0.6, "service"),
            (0.7, 0.8, "service"),
        ]
        # the sums still add each span, in order
        total = 0.0
        for start, end in ((0.0, 0.1), (0.1, 0.2), (0.2, 0.2 + 0.1), (0.3, 0.5)):
            total += end - start
        assert tl.busy_us == total

    def test_invalid_interval_rejected(self):
        tl = CoreTimeline("c0")
        with pytest.raises(ValueError):
            tl.add(5.0, 1.0, "busy")

    def test_unknown_kind_rejected(self):
        tl = CoreTimeline("c0")
        with pytest.raises(ValueError):
            tl.add(0.0, 1.0, "sleeping")
