"""Property tests: optimizer strategies conserve bytes and respect limits."""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.nmad.request import NmRequest
from repro.nmad.strategies import (
    AggregationStrategy,
    DefaultStrategy,
    MultirailSplitStrategy,
)
from repro.nmad.strategies.base import RailInfo
from repro.units import KiB

#: request ids for requests built outside a session
_IDS = itertools.count(1)

RAIL = RailInfo(index=0, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=1000.0)
RAIL_FAST = RailInfo(index=1, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=2500.0)

sizes = st.integers(min_value=0, max_value=KiB(32))


def _sends(sz_list):
    return [NmRequest("send", 0, 1, i, s, req_id=next(_IDS)) for i, s in enumerate(sz_list)]


@given(st.lists(sizes, min_size=1, max_size=40))
def test_default_conserves_bytes_and_requests(sz_list):
    strat = DefaultStrategy()
    reqs = _sends(sz_list)
    for r in reqs:
        strat.push(r)
    plans = strat.take_plans([RAIL])
    assert sum(p.payload_size() for p in plans) == sum(sz_list)
    planned = [e.req for p in plans for e in p.entries]
    assert planned == reqs  # FIFO, one entry each


@given(st.lists(sizes, min_size=1, max_size=40))
def test_aggregation_conserves_bytes_and_respects_cap(sz_list):
    strat = AggregationStrategy()
    for r in _sends(sz_list):
        strat.push(r)
    plans = strat.take_plans([RAIL])
    assert sum(p.payload_size() for p in plans) == sum(sz_list)
    # every request appears exactly once
    seen = [e.req.req_id for p in plans for e in p.entries]
    assert len(seen) == len(set(seen)) == len(sz_list)
    # multi-entry packets never exceed the rendezvous threshold
    for p in plans:
        if len(p.entries) > 1:
            assert p.payload_size() <= KiB(32)
    # FIFO preserved across packets
    flat = [e.req.tag for p in plans for e in p.entries]
    assert flat == sorted(flat)


@given(st.lists(sizes, min_size=1, max_size=20), st.integers(1, KiB(16)))
def test_split_chunks_reassemble_exactly(sz_list, threshold):
    strat = MultirailSplitStrategy(split_threshold=threshold)
    reqs = _sends(sz_list)
    for r in reqs:
        strat.push(r)
    plans = strat.take_plans([RAIL, RAIL_FAST])
    per_req: dict[int, list] = {}
    for p in plans:
        for e in p.entries:
            per_req.setdefault(e.req.req_id, []).append(e)
    for req in reqs:
        entries = sorted(per_req[req.req_id], key=lambda e: e.offset)
        pos = 0
        for e in entries:
            assert e.offset == pos
            assert e.nchunks == len(entries)
            pos += e.length
        assert pos == req.size


@given(st.lists(sizes, min_size=1, max_size=20))
def test_strategies_agree_on_total_bytes(sz_list):
    totals = []
    for strat in (DefaultStrategy(), AggregationStrategy(), MultirailSplitStrategy()):
        for r in _sends(sz_list):
            strat.push(r)
        plans = strat.take_plans([RAIL, RAIL_FAST])
        totals.append(sum(p.payload_size() for p in plans))
    assert len(set(totals)) == 1
