"""Unit tests for matching and sequence ordering."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import MatchingError
from repro.nmad.request import NmRequest
from repro.nmad.tags import ANY, MatchTable, SequenceTracker

#: request ids for requests built outside a session
_IDS = itertools.count(1)


def _recv(peer=0, tag=0):
    return NmRequest("recv", node_index=1, peer=peer, tag=tag, size=1024, req_id=next(_IDS))


class TestMatchTable:
    def test_exact_match_fifo(self):
        mt = MatchTable()
        r1, r2 = _recv(), _recv()
        mt.post(r1)
        mt.post(r2)
        assert mt.match(0, 0) is r1
        assert mt.match(0, 0) is r2
        assert mt.match(0, 0) is None

    def test_tag_mismatch_no_match(self):
        mt = MatchTable()
        mt.post(_recv(tag=5))
        assert mt.match(0, 6) is None
        assert len(mt) == 1

    def test_source_mismatch_no_match(self):
        mt = MatchTable()
        mt.post(_recv(peer=2))
        assert mt.match(3, 0) is None

    def test_wildcard_source(self):
        mt = MatchTable()
        r = _recv(peer=ANY, tag=7)
        mt.post(r)
        assert mt.match(9, 7) is r

    def test_wildcard_tag(self):
        mt = MatchTable()
        r = _recv(peer=0, tag=ANY)
        mt.post(r)
        assert mt.match(0, 123) is r

    def test_full_wildcard(self):
        mt = MatchTable()
        r = _recv(peer=ANY, tag=ANY)
        mt.post(r)
        assert mt.match(5, 5) is r

    def test_posting_order_respected_with_wildcards(self):
        """MPI semantics: the oldest compatible posted recv matches."""
        mt = MatchTable()
        wild = _recv(peer=ANY, tag=ANY)
        exact = _recv(peer=0, tag=0)
        mt.post(wild)
        mt.post(exact)
        assert mt.match(0, 0) is wild
        assert mt.match(0, 0) is exact

    def test_only_recv_postable(self):
        mt = MatchTable()
        send = NmRequest("send", 0, 1, 0, 10, req_id=next(_IDS))
        with pytest.raises(MatchingError):
            mt.post(send)

    def test_cancel(self):
        mt = MatchTable()
        r = _recv()
        mt.post(r)
        assert mt.cancel(r)
        assert not mt.cancel(r)
        assert mt.match(0, 0) is None


class TestSequenceTracker:
    def test_in_order_passthrough(self):
        st = SequenceTracker()
        assert st.submit(0, 0, 0, "a") == ["a"]
        assert st.submit(0, 0, 1, "b") == ["b"]
        assert st.reordered == 0

    def test_out_of_order_parked_then_drained(self):
        st = SequenceTracker()
        assert st.submit(0, 0, 2, "c") == []
        assert st.submit(0, 0, 1, "b") == []
        assert st.submit(0, 0, 0, "a") == ["a", "b", "c"]
        assert st.reordered == 2
        assert st.parked_count() == 0

    def test_flows_independent(self):
        st = SequenceTracker()
        assert st.submit(0, 0, 0, "x") == ["x"]
        assert st.submit(1, 0, 0, "y") == ["y"]
        assert st.submit(0, 5, 0, "z") == ["z"]

    def test_duplicate_seq_rejected(self):
        st = SequenceTracker()
        st.submit(0, 0, 0, "a")
        with pytest.raises(MatchingError, match="duplicate"):
            st.submit(0, 0, 0, "again")

    def test_duplicate_parked_seq_rejected(self):
        st = SequenceTracker()
        st.submit(0, 0, 3, "x")
        with pytest.raises(MatchingError, match="duplicate"):
            st.submit(0, 0, 3, "y")

    def test_gap_only_partially_filled(self):
        st = SequenceTracker()
        st.submit(0, 0, 2, "c")
        assert st.submit(0, 0, 0, "a") == ["a"]
        assert st.parked_count() == 1
        assert st.submit(0, 0, 1, "b") == ["b", "c"]

    def test_next_seq_view(self):
        st = SequenceTracker()
        assert st.next_seq_view(0, 0) == 0
        st.submit(0, 0, 0, "a")
        assert st.next_seq_view(0, 0) == 1
