"""Unit tests for the optimizer strategies."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.nmad.request import NmRequest
from repro.nmad.strategies import (
    AggregationStrategy,
    DefaultStrategy,
    MultirailSplitStrategy,
    make_strategy,
)
from repro.nmad.strategies.base import PacketPlan, RailInfo, SendEntry
from repro.units import KiB

#: request ids for requests built outside a session
_IDS = itertools.count(1)

RAIL = RailInfo(index=0, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=1000.0)
RAIL2 = RailInfo(index=1, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=1000.0)


def _send(size, tag=0):
    return NmRequest("send", node_index=0, peer=1, tag=tag, size=size, req_id=next(_IDS))


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_strategy("default"), DefaultStrategy)
        assert isinstance(make_strategy("aggreg"), AggregationStrategy)
        assert isinstance(make_strategy("split"), MultirailSplitStrategy)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("quantum")

    def test_kwargs_forwarded(self):
        s = make_strategy("split", split_threshold=2048)
        assert s.split_threshold == 2048


class TestDefault:
    def test_one_packet_per_request(self):
        s = DefaultStrategy()
        for size in (100, 2000, 3000):
            s.push(_send(size))
        plans = s.take_plans([RAIL])
        assert len(plans) == 3
        assert all(len(p.entries) == 1 for p in plans)

    def test_pio_mode_for_tiny(self):
        s = DefaultStrategy()
        s.push(_send(64))
        s.push(_send(1024))
        modes = [p.mode for p in s.take_plans([RAIL])]
        assert modes == ["pio", "eager"]

    def test_drains_pending(self):
        s = DefaultStrategy()
        s.push(_send(100))
        s.take_plans([RAIL])
        assert s.pending_count() == 0
        assert s.take_plans([RAIL]) == []

    def test_only_sends_accepted(self):
        s = DefaultStrategy()
        with pytest.raises(ProtocolError):
            s.push(NmRequest("recv", 0, 1, 0, 10, req_id=next(_IDS)))


class TestAggregation:
    def test_small_sends_coalesced(self):
        s = AggregationStrategy()
        for i in range(6):
            s.push(_send(KiB(1), tag=i))
        plans = s.take_plans([RAIL])
        assert len(plans) == 1
        assert len(plans[0].entries) == 6
        assert plans[0].payload_size() == 6 * KiB(1)
        assert s.aggregated_requests == 6

    def test_limit_splits_batches(self):
        s = AggregationStrategy(max_packet_bytes=KiB(4))
        for i in range(6):
            s.push(_send(KiB(1), tag=i))
        plans = s.take_plans([RAIL])
        assert len(plans) >= 2
        assert sum(len(p.entries) for p in plans) == 6
        for p in plans:
            assert p.payload_size() <= KiB(4)

    def test_single_tiny_uses_pio(self):
        s = AggregationStrategy()
        s.push(_send(64))
        plans = s.take_plans([RAIL])
        assert plans[0].mode == "pio"

    def test_rdv_threshold_caps_packet(self):
        s = AggregationStrategy()
        for i in range(4):
            s.push(_send(KiB(16), tag=i))
        plans = s.take_plans([RAIL])
        for p in plans:
            assert p.payload_size() <= KiB(32)

    def test_bad_limit_rejected(self):
        with pytest.raises(ConfigError):
            AggregationStrategy(max_packet_bytes=8)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            AggregationStrategy(flush_window_us=-1.0)

    def test_no_rails_rejected(self):
        s = AggregationStrategy()
        s.push(_send(KiB(1)))
        with pytest.raises(ConfigError, match="no usable rails"):
            s.take_plans([])
        assert s.pending_count() == 1  # the refusal must not drop sends

    def test_multirail_uses_every_rail(self):
        """Regression: the old strategy silently drained everything through
        rails[0], leaving the second rail idle."""
        s = AggregationStrategy(max_packet_bytes=KiB(4))
        for i in range(8):
            s.push(_send(KiB(1), tag=i))
        plans = s.take_plans([RAIL, RAIL2])
        assert {p.rail_index for p in plans} == {0, 1}
        assert sum(len(p.entries) for p in plans) == 8

    def test_multirail_bandwidth_proportional(self):
        fast = RailInfo(index=1, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=3000.0)
        s = AggregationStrategy()
        for i in range(8):
            s.push(_send(KiB(1), tag=i))
        plans = s.take_plans([RAIL, fast])
        bytes_by_rail = {0: 0, 1: 0}
        for p in plans:
            bytes_by_rail[p.rail_index] += p.payload_size()
        assert bytes_by_rail[1] > bytes_by_rail[0]  # the fast rail carries more

    def test_multirail_preserves_fifo_within_rail(self):
        """Striping hands whole requests to rails in push order: entries on
        each rail must stay a subsequence of the pushed order."""
        s = AggregationStrategy()
        reqs = [_send(KiB(1), tag=i) for i in range(10)]
        for r in reqs:
            s.push(r)
        order = {r.req_id: i for i, r in enumerate(reqs)}
        plans = s.take_plans([RAIL, RAIL2])
        for rail_index in (0, 1):
            seq = [
                order[e.req.req_id]
                for p in plans
                if p.rail_index == rail_index
                for e in p.entries
            ]
            assert seq == sorted(seq)

    def test_multirail_false_rejects_multi_rail_gate(self):
        """Regression for the silent rails[0] fallback: a strategy pinned
        to single-rail service must refuse a multi-rail gate loudly."""
        s = AggregationStrategy(multirail=False)
        s.push(_send(KiB(1)))
        with pytest.raises(ConfigError, match="single-rail"):
            s.take_plans([RAIL, RAIL2])
        assert s.pending_count() == 1  # the refusal must not drop sends

    def test_multirail_false_single_rail_ok(self):
        s = AggregationStrategy(multirail=False)
        for i in range(4):
            s.push(_send(KiB(1), tag=i))
        plans = s.take_plans([RAIL])
        assert len(plans) == 1
        assert len(plans[0].entries) == 4


class TestSplit:
    def test_small_message_single_rail(self):
        s = MultirailSplitStrategy(split_threshold=KiB(8))
        s.push(_send(KiB(2)))
        plans = s.take_plans([RAIL, RAIL2])
        assert len(plans) == 1
        assert plans[0].entries[0].nchunks == 1

    def test_large_message_striped(self):
        s = MultirailSplitStrategy(split_threshold=KiB(8))
        s.push(_send(KiB(16)))
        plans = s.take_plans([RAIL, RAIL2])
        assert len(plans) == 2
        assert {p.rail_index for p in plans} == {0, 1}
        total = sum(p.payload_size() for p in plans)
        assert total == KiB(16)
        assert all(p.entries[0].nchunks == 2 for p in plans)
        assert s.split_messages == 1

    def test_chunks_cover_message_contiguously(self):
        s = MultirailSplitStrategy(split_threshold=1)
        s.push(_send(10001))
        plans = s.take_plans([RAIL, RAIL2])
        entries = sorted((p.entries[0] for p in plans), key=lambda e: e.offset)
        pos = 0
        for e in entries:
            assert e.offset == pos
            pos += e.length
        assert pos == 10001

    def test_bandwidth_proportional_striping(self):
        fast = RailInfo(1, 128, KiB(32), bandwidth=3000.0)
        s = MultirailSplitStrategy(split_threshold=1)
        s.push(_send(KiB(16)))
        plans = s.take_plans([RAIL, fast])
        sizes = {p.rail_index: p.payload_size() for p in plans}
        assert sizes[1] > sizes[0]  # the fast rail carries more

    def test_single_rail_no_split(self):
        s = MultirailSplitStrategy(split_threshold=1)
        s.push(_send(KiB(64)))
        plans = s.take_plans([RAIL])
        assert len(plans) == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            MultirailSplitStrategy(split_threshold=0)


class TestPlanTypes:
    def test_entry_geometry_validated(self):
        req = _send(100)
        with pytest.raises(ProtocolError):
            SendEntry(req=req, offset=50, length=100)

    def test_plan_mode_validated(self):
        req = _send(100)
        entry = SendEntry(req=req, offset=0, length=100)
        with pytest.raises(ProtocolError):
            PacketPlan(rail_index=0, entries=[entry], mode="teleport")

    def test_empty_plan_rejected(self):
        with pytest.raises(ProtocolError):
            PacketPlan(rail_index=0, entries=[], mode="eager")
