"""Deterministic discrete-event simulation kernel.

This package is the substrate every other subsystem runs on: a virtual clock
in microseconds, a priority event queue, generator-based processes, and
virtual-time synchronization primitives.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop (`now`, `schedule`,
  `run`).
* :class:`~repro.sim.process.SimProcess` and the effects in
  :mod:`repro.sim.process` (``Delay``, ``WaitEvent``) — lightweight
  coroutines in virtual time.
* :mod:`repro.sim.primitives` — ``SimEvent``, ``Mutex``, ``Semaphore``,
  ``Store`` (FIFO channel) for processes.
* :mod:`repro.sim.rng` — seeded, named random substreams (determinism).
* :mod:`repro.sim.tracing` — structured trace records and per-core
  timelines.
"""

from .events import EventHandle, Priority
from .kernel import Simulator
from .primitives import Mutex, Semaphore, SimEvent, Store
from .process import Delay, SimProcess, WaitEvent, spawn
from .queues import QUEUE_KINDS, CalendarQueue, EventQueue, HeapQueue, make_queue
from .rng import RngStreams
from .tracing import CoreTimeline, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "EventHandle",
    "Priority",
    "EventQueue",
    "HeapQueue",
    "CalendarQueue",
    "QUEUE_KINDS",
    "make_queue",
    "SimProcess",
    "spawn",
    "Delay",
    "WaitEvent",
    "CoreTimeline",
    "SimEvent",
    "Mutex",
    "Semaphore",
    "Store",
    "RngStreams",
    "Tracer",
    "TraceRecord",
]
