"""Unit tests for event handles and priority ordering."""

from __future__ import annotations

import pytest

from repro.sim.events import EventHandle, Priority
from repro.sim.kernel import Simulator


def test_sort_key_total_order():
    a = EventHandle(1.0, Priority.NORMAL, 1, lambda: None, ())
    b = EventHandle(1.0, Priority.NORMAL, 2, lambda: None, ())
    c = EventHandle(1.0, Priority.INTERRUPT, 3, lambda: None, ())
    d = EventHandle(0.5, Priority.IDLE, 4, lambda: None, ())
    ordered = sorted([b, a, c, d], key=EventHandle.sort_key)
    assert ordered == [d, c, a, b]


def test_pending_lifecycle(sim):
    h = sim.timer(1.0, lambda: None)
    assert h.pending
    sim.run()
    assert h.fired and not h.pending


def test_cancelled_not_pending(sim):
    h = sim.timer(1.0, lambda: None)
    h.cancel()
    assert not h.pending and h.cancelled


def test_fire_releases_references(sim):
    class Probe:
        pass

    probe = Probe()
    import weakref

    ref = weakref.ref(probe)
    sim.schedule(1.0, lambda p: None, probe)
    sim.run()
    del probe
    import gc

    gc.collect()
    assert ref() is None, "fired events must not retain their arguments"


def test_fired_timer_releases_references(sim):
    class Probe:
        pass

    probe = Probe()
    import weakref

    ref = weakref.ref(probe)
    handle = sim.timer(1.0, lambda p: None, probe)  # retained past its fire
    sim.run()
    del probe
    assert handle.fired
    assert ref() is None, "a fired timer must not retain its arguments"


def test_only_timers_build_handles(sim):
    """``schedule``/``schedule_at``/``call_soon`` push a bare entry and
    return nothing; ``timer`` stores and returns a handle."""
    assert sim.schedule(1.0, print) is None
    assert sim.schedule_at(2.0, print) is None
    assert sim.call_soon(print) is None
    handle = sim.timer(3.0, print, "x")
    assert isinstance(handle, EventHandle)
    assert sorted(sim._heap) == [
        (0.0, Priority.NORMAL, 3, print, ()),
        (1.0, Priority.NORMAL, 1, print, ()),
        (2.0, Priority.NORMAL, 2, print, ()),
        (3.0, Priority.NORMAL, 4, handle, None),
    ]


def test_timer_in_the_past_rejected(sim):
    from repro.errors import SimulationError

    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.timer(1.0, lambda: None)


def test_priority_constants_ordered():
    assert (
        Priority.INTERRUPT
        < Priority.TASKLET
        < Priority.NORMAL
        < Priority.LOW
        < Priority.IDLE
    )
