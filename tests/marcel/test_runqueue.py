"""Unit tests for per-core runqueues."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.marcel.runqueue import RunQueue
from repro.marcel.thread import MarcelThread, Priority, ThreadState


def _ready(name: str, priority: int = Priority.NORMAL, migratable: bool = True) -> MarcelThread:
    t = MarcelThread((x for x in ()), name=name, priority=priority, migratable=migratable)
    t.transition(ThreadState.READY)
    return t


def test_fifo_within_priority():
    rq = RunQueue("c0")
    a, b = _ready("a"), _ready("b")
    rq.push(a)
    rq.push(b)
    assert rq.pop() is a
    assert rq.pop() is b
    assert rq.pop() is None


def test_priority_order():
    rq = RunQueue("c0")
    low, high = _ready("low", Priority.LOW), _ready("high", Priority.HIGH)
    rq.push(low)
    rq.push(high)
    assert rq.pop() is high
    assert rq.peek_priority() == Priority.LOW


def test_push_front_preserves_turn():
    rq = RunQueue("c0")
    a, b = _ready("a"), _ready("b")
    rq.push(b)
    rq.push_front(a)
    assert rq.pop() is a


def test_push_requires_ready_state():
    rq = RunQueue("c0")
    t = MarcelThread((x for x in ()), name="t")
    with pytest.raises(SchedulerError):
        rq.push(t)  # still CREATED


def test_steal_takes_lowest_priority_from_tail():
    rq = RunQueue("c0")
    h1, h2 = _ready("h1", Priority.HIGH), _ready("h2", Priority.HIGH)
    l1, l2 = _ready("l1", Priority.LOW), _ready("l2", Priority.LOW)
    for t in (h1, h2, l1, l2):
        rq.push(t)
    assert rq.steal() is l2
    assert rq.steal() is l1
    assert rq.steal() is h2


def test_steal_skips_pinned_threads():
    rq = RunQueue("c0")
    pinned = _ready("pinned", migratable=False)
    rq.push(pinned)
    assert rq.steal() is None
    free = _ready("free")
    rq.push(free)
    assert rq.steal() is free
    assert len(rq) == 1  # pinned remains


def test_remove_specific_thread():
    rq = RunQueue("c0")
    a, b = _ready("a"), _ready("b")
    rq.push(a)
    rq.push(b)
    assert rq.remove(a)
    assert not rq.remove(a)
    assert list(rq) == [b]


def test_len_and_iter():
    rq = RunQueue("c0")
    names = ["x", "y", "z"]
    for n in names:
        rq.push(_ready(n))
    assert len(rq) == 3
    assert [t.name for t in rq] == names


def test_len_tracks_every_mutation():
    rq = RunQueue("c0")
    a, b = _ready("a", Priority.HIGH), _ready("b", Priority.LOW)
    c, d = _ready("c"), _ready("d", migratable=False)
    rq.push(a)
    rq.push_front(b)
    rq.push(c)
    rq.push(d)
    assert len(rq) == 4
    assert rq.steal() is b
    assert len(rq) == 3
    assert rq.remove(c) and not rq.remove(c)
    assert len(rq) == 2
    assert rq.pop() is a and rq.pop() is d
    assert rq.pop() is None and rq.steal() is None
    assert len(rq) == 0 and not rq


def test_peek_priority_empty():
    assert RunQueue("c0").peek_priority() is None
