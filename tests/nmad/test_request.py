"""Unit tests for request objects and their state machines."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import RequestError
from repro.harness.runner import ClusterRuntime
from repro.nmad.request import NmRequest, Protocol, ReqState

#: request ids for requests built outside a session
_IDS = itertools.count(1)


def _send(size=1024):
    return NmRequest("send", node_index=0, peer=1, tag=0, size=size, req_id=next(_IDS))


def _recv(size=1024):
    return NmRequest("recv", node_index=1, peer=0, tag=0, size=size, req_id=next(_IDS))


class TestValidation:
    def test_kind_checked(self):
        with pytest.raises(RequestError):
            NmRequest("push", 0, 1, 0, 10, req_id=next(_IDS))

    def test_negative_size_rejected(self):
        with pytest.raises(RequestError):
            _send(size=-1)

    def test_send_tag_must_be_concrete(self):
        with pytest.raises(RequestError):
            NmRequest("send", 0, 1, -1, 10, req_id=next(_IDS))

    def test_recv_wildcard_tag_allowed(self):
        req = NmRequest("recv", 0, -1, -1, 10, req_id=next(_IDS))
        assert req.tag == -1 and req.peer == -1

    def test_unique_ids(self):
        # every session of a runtime draws from its simulator's counter;
        # a new simulator numbers from 1 again
        rt = ClusterRuntime.build()
        s0, s1 = rt.nodes[0].session, rt.nodes[1].session
        ids = [s0.make_send(1, 0, 8).req_id, s1.make_recv(0, 0, 8).req_id,
               s0.make_recv(1, 0, 8).req_id]
        assert ids == [1, 2, 3]
        assert ClusterRuntime.build().nodes[1].session.make_send(0, 0, 8).req_id == 1

    def test_default_buffer_id_unique(self):
        assert _send().buffer_id != _send().buffer_id

    def test_explicit_buffer_id_kept(self):
        req = NmRequest("send", 0, 1, 0, 10, buffer_id="mybuf", req_id=next(_IDS))
        assert req.buffer_id == "mybuf"


class TestSendStates:
    def test_eager_path(self):
        req = _send()
        req.transition(ReqState.QUEUED)
        req.transition(ReqState.SUBMITTED)
        req.complete(now=5.0)
        assert req.done and req.completed_at == 5.0

    def test_rdv_path(self):
        req = _send(size=1 << 20)
        req.transition(ReqState.QUEUED)
        req.transition(ReqState.RTS_SENT)
        req.transition(ReqState.DATA_SENDING)
        req.complete(now=9.0)
        assert req.done

    def test_cannot_skip_queued(self):
        req = _send()
        with pytest.raises(RequestError):
            req.transition(ReqState.SUBMITTED)

    def test_cannot_complete_twice(self):
        req = _send()
        req.transition(ReqState.QUEUED)
        req.transition(ReqState.SUBMITTED)
        req.complete(1.0)
        with pytest.raises(RequestError):
            req.complete(2.0)

    def test_rdv_cannot_jump_to_data(self):
        req = _send()
        req.transition(ReqState.QUEUED)
        with pytest.raises(RequestError):
            req.transition(ReqState.DATA_SENDING)


class TestRecvStates:
    def test_eager_recv(self):
        req = _recv()
        assert req.state == ReqState.POSTED
        req.complete(3.0)
        assert req.done

    def test_rdv_recv(self):
        req = _recv()
        req.transition(ReqState.DATA_WAIT)
        req.complete(4.0)
        assert req.done

    def test_recv_cannot_use_send_states(self):
        req = _recv()
        with pytest.raises(RequestError):
            req.transition(ReqState.QUEUED)


class TestLatency:
    def test_latency_computed(self):
        req = _recv()
        req.posted_at = 2.0
        req.complete(12.0)
        assert req.latency() == 10.0

    def test_latency_before_completion_raises(self):
        with pytest.raises(RequestError):
            _recv().latency()
