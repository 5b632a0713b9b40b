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
    h = sim.schedule(1.0, lambda: None)
    assert h.pending
    sim.run()
    assert h.fired and not h.pending


def test_cancelled_not_pending(sim):
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    assert not h.pending and h.cancelled


def test_fire_releases_references(sim):
    class Probe:
        pass

    probe = Probe()
    import weakref

    ref = weakref.ref(probe)
    h = sim.schedule(1.0, lambda p: None, probe)
    sim.run()
    del probe
    import gc

    gc.collect()
    assert ref() is None, "fired events must not retain their arguments"


def test_priority_constants_ordered():
    assert (
        Priority.INTERRUPT
        < Priority.TASKLET
        < Priority.NORMAL
        < Priority.LOW
        < Priority.IDLE
    )
