"""Property tests: matching and sequence-ordering invariants."""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.nmad.request import NmRequest
from repro.nmad.tags import ANY, MatchTable, SequenceTracker

#: request ids for requests built outside a session
_IDS = itertools.count(1)

flows = st.tuples(st.integers(0, 3), st.integers(0, 3))  # (source, tag)


@given(st.lists(flows, min_size=1, max_size=60))
def test_sequence_tracker_delivers_every_item_in_order(arrival_flows):
    """Submit each flow's items in a shuffled global order; per-flow
    delivery must be 0,1,2,… with nothing lost or duplicated."""
    # build per-flow sequence numbers in arrival order
    per_flow_counts: dict[tuple[int, int], int] = {}
    arrivals = []
    for flow in arrival_flows:
        seq = per_flow_counts.get(flow, 0)
        per_flow_counts[flow] = seq + 1
        arrivals.append((flow, seq))
    # shuffle deterministically: reverse pairs of (flow,seq) — any permutation
    # is legal as long as we do not duplicate; use sorted-by-hash order
    arrivals.sort(key=lambda x: (hash((x[0], x[1])) % 97, x[1]))

    st_tracker = SequenceTracker()
    delivered: dict[tuple[int, int], list[int]] = {}
    for (src, tag), seq in arrivals:
        for item in st_tracker.submit(src, tag, seq, seq):
            delivered.setdefault((src, tag), []).append(item)
    for flow, count in per_flow_counts.items():
        assert delivered.get(flow, []) == list(range(count))
    assert st_tracker.parked_count() == 0


@given(
    st.lists(flows, min_size=0, max_size=30),
    st.lists(flows, min_size=0, max_size=30),
)
def test_match_table_conservation(posted_flows, arrival_flows):
    """Every arrival matches at most one posted recv; total matches ≤
    min(#posted, #arrivals); unmatched recvs stay queued."""
    mt = MatchTable()
    reqs = []
    for src, tag in posted_flows:
        req = NmRequest("recv", 9, src, tag, 0, req_id=next(_IDS))
        mt.post(req)
        reqs.append(req)
    matched = []
    for src, tag in arrival_flows:
        req = mt.match(src, tag)
        if req is not None:
            matched.append(req)
    assert len(set(id(r) for r in matched)) == len(matched)  # no double match
    assert len(matched) + len(mt) == len(posted_flows)


@given(st.lists(flows, min_size=1, max_size=30))
def test_wildcard_recv_matches_first_arrival(arrival_flows):
    mt = MatchTable()
    wild = NmRequest("recv", 9, ANY, ANY, 0, req_id=next(_IDS))
    mt.post(wild)
    src, tag = arrival_flows[0]
    assert mt.match(src, tag) is wild
    for src, tag in arrival_flows[1:]:
        assert mt.match(src, tag) is None


@given(st.data())
def test_match_order_is_posting_order(data):
    """Among compatible posted recvs, the earliest posted wins."""
    n = data.draw(st.integers(2, 8))
    mt = MatchTable()
    reqs = [NmRequest("recv", 9, 0, 0, 0, req_id=next(_IDS)) for _ in range(n)]
    for r in reqs:
        mt.post(r)
    for expected in reqs:
        assert mt.match(0, 0) is expected
