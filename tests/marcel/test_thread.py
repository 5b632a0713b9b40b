"""Unit tests for thread objects and state transitions."""

from __future__ import annotations

import pytest

from repro.errors import ThreadStateError
from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.thread import MarcelThread, Priority, ThreadState
from repro.sim.kernel import Simulator
from repro.topology.builder import build_node


def _gen():
    yield


def test_valid_lifecycle():
    t = MarcelThread(_gen(), name="t")
    assert t.state == ThreadState.CREATED
    t.transition(ThreadState.READY)
    t.transition(ThreadState.RUNNING)
    t.transition(ThreadState.BLOCKED)
    t.transition(ThreadState.READY)
    t.transition(ThreadState.RUNNING)
    t.transition(ThreadState.DONE)
    assert t.done


def test_illegal_transitions_rejected():
    t = MarcelThread(_gen(), name="t")
    with pytest.raises(ThreadStateError):
        t.transition(ThreadState.RUNNING)  # CREATED → RUNNING skips READY
    t.transition(ThreadState.READY)
    with pytest.raises(ThreadStateError):
        t.transition(ThreadState.BLOCKED)  # READY → BLOCKED illegal


def test_done_is_terminal():
    t = MarcelThread(_gen(), name="t")
    t.transition(ThreadState.READY)
    t.transition(ThreadState.RUNNING)
    t.transition(ThreadState.DONE)
    with pytest.raises(ThreadStateError):
        t.transition(ThreadState.READY)


def test_sleeping_wakes_to_ready():
    t = MarcelThread(_gen(), name="t")
    t.transition(ThreadState.READY)
    t.transition(ThreadState.RUNNING)
    t.transition(ThreadState.SLEEPING)
    t.transition(ThreadState.READY)
    assert t.runnable


def test_priority_validation():
    with pytest.raises(ThreadStateError):
        MarcelThread(_gen(), priority=99)
    with pytest.raises(ThreadStateError):
        MarcelThread(_gen(), priority=-1)


def test_body_must_be_generator():
    with pytest.raises(ThreadStateError, match="generator"):
        MarcelThread(lambda: None)  # type: ignore[arg-type]


def _spawn(sched, name=""):
    def body(ctx):
        yield ctx.compute(1.0)

    return sched.spawn(body, name=name)


def test_unique_tids():
    """Thread ids come from the runtime: the schedulers of one simulator
    share the numbering, and a new simulator starts again at 1."""
    sim = Simulator()
    a, b = (MarcelScheduler(sim, build_node(i, sockets=1, cores_per_socket=2)) for i in (0, 1))
    tids = [_spawn(a).tid, _spawn(b).tid, _spawn(a).tid]
    assert tids == [1, 2, 3]
    other = MarcelScheduler(Simulator(), build_node(0, sockets=1, cores_per_socket=2))
    assert _spawn(other).tid == 1


def test_default_name_from_tid():
    assert MarcelThread(_gen(), tid=7).name == "thread-7"
    sched = MarcelScheduler(Simulator(), build_node(0, sockets=1, cores_per_socket=2))
    _spawn(sched, name="named")
    t = _spawn(sched)
    assert (t.tid, t.name) == (2, "thread-2")


def test_runnable_property():
    t = MarcelThread(_gen())
    assert not t.runnable
    t.transition(ThreadState.READY)
    assert t.runnable
