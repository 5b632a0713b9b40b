"""Deterministic discrete-event simulation kernel.

This package is the substrate every other subsystem runs on: a virtual clock
in microseconds and one event queue. Engine and application code runs on
Marcel threads (:mod:`repro.marcel`) built on top of it.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop (`now`, `schedule`,
  `timer`, `run`, `run_ahead`, tick chains).
* :class:`~repro.sim.queues.HeapQueue` — the event queue, a binary heap of
  ``(time, priority, seq, fn, args)`` event and
  ``(time, priority, seq, handle, None)`` timer tuples.
* :class:`~repro.sim.events.EventHandle` — a cancellable timer, built only
  by ``Simulator.timer``.
* :mod:`repro.sim.rng` — seeded, named random substreams (determinism).
* :mod:`repro.sim.tracing` — structured trace records and per-core
  timelines.
"""

from .events import EventHandle, Priority
from .kernel import Simulator
from .queues import HeapQueue
from .rng import RngStreams
from .tracing import CoreTimeline, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "EventHandle",
    "Priority",
    "HeapQueue",
    "CoreTimeline",
    "RngStreams",
    "Tracer",
    "TraceRecord",
]
