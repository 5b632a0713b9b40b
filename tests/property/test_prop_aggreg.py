"""Property tests: aggregation packs exactly and unpacks byte-identically.

Two layers of the same invariant. At the strategy layer, the plans formed
by :class:`repro.nmad.strategies.AggregationStrategy` must partition the
pending-send multiset exactly — every pushed request in exactly one plan
entry, bytes conserved, per-rail FIFO a subsequence of push order, batch
byte limits respected — for any packet-size limit × rail count. End to
end, the receiver-side unpack must hand back every payload byte-identical
and in per-flow FIFO order, including across multirail striping, deferred
flush windows, and injected packet loss (the reliability layer recovers).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineKind
from repro.faults import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.network.message import HEADER_BYTES
from repro.nmad.request import NmRequest
from repro.nmad.strategies import AggregationStrategy
from repro.nmad.strategies.aggreg import ENTRY_HEADER_BYTES
from repro.nmad.strategies.base import RailInfo
from repro.units import KiB

#: request ids for requests built outside a session
_IDS = itertools.count(1)

RAILS = [
    RailInfo(index=0, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=1000.0),
    RailInfo(index=1, pio_threshold=128, rdv_threshold=KiB(32), bandwidth=2500.0),
    RailInfo(index=2, pio_threshold=0, rdv_threshold=KiB(16), bandwidth=500.0),
]

size_lists = st.lists(st.integers(min_value=0, max_value=KiB(8)), min_size=1, max_size=30)
limits = st.one_of(
    st.none(), st.integers(min_value=HEADER_BYTES + 1, max_value=KiB(16))
)


@given(size_lists, limits, st.integers(min_value=1, max_value=3))
def test_plans_partition_pending_multiset(sz_list, limit, nrails):
    strat = AggregationStrategy(max_packet_bytes=limit)
    reqs = [NmRequest("send", 0, 1, i, s, req_id=next(_IDS)) for i, s in enumerate(sz_list)]
    for r in reqs:
        strat.push(r)
    rails = RAILS[:nrails]
    plans = strat.take_plans(rails)
    # exact partition: every request in exactly one entry, bytes conserved,
    # nothing left pending
    seen = sorted(e.req.req_id for p in plans for e in p.entries)
    assert seen == sorted(r.req_id for r in reqs)
    assert sum(p.payload_size() for p in plans) == sum(sz_list)
    assert strat.pending_count() == 0
    by_index = {r.index: r for r in rails}
    order = {r.req_id: i for i, r in enumerate(reqs)}
    for p in plans:
        assert p.rail_index in by_index
        if len(p.entries) > 1:
            # a batch closes before an entry would cross the cap, so
            # multi-entry packets always fit it
            cap = limit or by_index[p.rail_index].rdv_threshold
            assert sum(e.length + ENTRY_HEADER_BYTES for e in p.entries) <= cap
    # per-rail FIFO: each rail carries a subsequence of the push order
    for index in by_index:
        seq = [
            order[e.req.req_id]
            for p in plans
            if p.rail_index == index
            for e in p.entries
        ]
        assert seq == sorted(seq)


e2e_settings = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _run_aggreg(sz_list, limit, rails, window, faults):
    skw: dict = {"flush_window_us": window}
    if limit is not None:
        skw["max_packet_bytes"] = limit
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN,
        strategy="aggreg",
        strategy_kwargs=skw,
        rails=rails,
        faults=faults,
        recover=faults is not None,
    )
    payloads = [bytes([(i % 250) + 1]) * s for i, s in enumerate(sz_list)]
    got: list = []

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for size, payload in zip(sz_list, payloads):
            req = yield from nm.isend(ctx, 1, 0, size, payload=payload)
            reqs.append(req)
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in sz_list:
            req = yield from nm.recv(ctx, 0, 0, KiB(16))
            got.append(req.data)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    rt.run()
    return payloads, got


@e2e_settings
@given(
    st.lists(st.integers(min_value=0, max_value=KiB(4)), min_size=1, max_size=10),
    st.sampled_from([None, KiB(2), KiB(8)]),
    st.sampled_from([1, 2]),
    st.sampled_from([0.0, 5.0]),
)
def test_unpack_byte_identical_lossless(sz_list, limit, rails, window):
    payloads, got = _run_aggreg(sz_list, limit, rails, window, faults=None)
    assert got == payloads  # same bytes, same per-flow FIFO order


@pytest.mark.faults
@e2e_settings
@given(
    st.lists(st.integers(min_value=0, max_value=KiB(4)), min_size=1, max_size=8),
    st.sampled_from([None, KiB(2)]),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2**16),
)
def test_unpack_byte_identical_under_loss(sz_list, limit, rails, seed):
    faults = FaultPlan.uniform_drop(0.08, seed=seed)
    payloads, got = _run_aggreg(sz_list, limit, rails, 0.0, faults)
    assert got == payloads  # retransmission restores the exact byte stream
