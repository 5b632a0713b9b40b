"""Scaling regression for ``EngineBase.wait_any`` (completion-queue path).

The pre-refactor implementation re-scanned the whole request list after
*every* progress pass — O(n × passes) ``req.done`` inspections for one
call. The listener implementation scans the list exactly once up front
and then only hears about newly completed requests through the session's
``on_request_complete`` channel, so a 256-request ``wait_any`` spanning
hundreds of passes must stay O(n + completions).
"""

from __future__ import annotations

import pytest

from repro.marcel.scheduler import MarcelScheduler
from repro.nmad.core import NmSession
from repro.nmad.progress import SequentialEngine
from repro.nmad.request import NmRequest

pytestmark = pytest.mark.nmad

N_REQS = 256
N_PASSES = 300


@pytest.fixture
def session(sim, node8):
    return NmSession(sim, MarcelScheduler(sim, node8), node8)


def _run_to_completion(gen):
    """Drive a thread-body generator that never actually yields."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_wait_any_does_not_rescan_per_pass(session, monkeypatch):
    """One wait_any over 256 requests across 300 progress passes: the
    number of ``req.done`` reads must be ~n, not n × passes (~77k)."""
    engine = SequentialEngine(session)
    reqs = [session.make_recv(0, i, 16) for i in range(N_REQS)]

    passes = {"n": 0}

    def fake_step(tctx):
        # a busy session: every pass claims it did work, and only the
        # 300th completes anything
        passes["n"] += 1
        if passes["n"] >= N_PASSES:
            session._complete_req(reqs[123])
        return True
        yield  # pragma: no cover - marks this as a generator

    monkeypatch.setattr(engine, "_progress_step", fake_step)

    done_reads = {"n": 0}
    # ``done`` is a slot: wrap its descriptor, reads counted, writes passed on
    slot = NmRequest.done

    def counting_done(self):
        done_reads["n"] += 1
        return slot.__get__(self, NmRequest)

    monkeypatch.setattr(
        NmRequest, "done", property(counting_done, lambda self, v: slot.__set__(self, v))
    )

    idx, req = _run_to_completion(engine.wait_any(None, reqs))

    assert (idx, req) == (123, reqs[123])
    assert passes["n"] == N_PASSES
    # upfront scan (256) + completion bookkeeping; the old rescan would
    # have cost >= N_REQS * N_PASSES = 76_800 reads
    assert done_reads["n"] < 2 * N_REQS, (
        f"wait_any made {done_reads['n']} req.done reads over {passes['n']} "
        "passes - it is rescanning the request list again"
    )


def test_wait_any_completion_released_through_listener(session):
    """The listener must notice a completion announced *during* a pass even
    when the request list was clean when wait_any started."""
    engine = SequentialEngine(session)
    reqs = [session.make_recv(0, i, 16) for i in range(8)]

    def one_shot_step(tctx):
        session._complete_req(reqs[5])
        return True
        yield  # pragma: no cover

    engine._progress_step = one_shot_step
    idx, req = _run_to_completion(engine.wait_any(None, reqs))
    assert (idx, req) == (5, reqs[5])
    # the listener was removed on exit: wait_any leaves nothing behind
    assert session.on_request_complete == []


def test_wait_any_prefers_lowest_index_when_pre_completed(session):
    """Requests already done at call time win immediately, lowest index
    first — the documented tie-break of the old rescan loop."""
    engine = SequentialEngine(session)
    reqs = [session.make_recv(0, i, 16) for i in range(16)]
    session._complete_req(reqs[9])
    session._complete_req(reqs[4])
    idx, req = _run_to_completion(engine.wait_any(None, reqs))
    assert (idx, req) == (4, reqs[4])


def test_wait_any_duplicate_request_resolves_first_index(session):
    """The same request listed twice resolves to its first position."""
    engine = SequentialEngine(session)
    req = session.make_recv(0, 0, 16)
    other = session.make_recv(0, 1, 16)

    def step(tctx):
        session._complete_req(req)
        return True
        yield  # pragma: no cover

    engine._progress_step = step
    idx, got = _run_to_completion(engine.wait_any(None, [other, req, req]))
    assert (idx, got) == (1, req)
