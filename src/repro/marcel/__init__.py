"""Marcel: a two-level thread scheduler over simulated cores.

This package reproduces the Marcel library of the PM2 suite (§3.1 of the
paper) on the discrete-event substrate:

* user-level **threads** (:class:`MarcelThread`) written as Python
  generators yielding effects (``Compute``, ``Sleep``, ``YieldNow``,
  ``WaitTEvent``, ``WaitFlag``);
* per-core **runqueues** with priorities, preemptive round-robin at timer
  ticks, and soft core affinity with idle-time work stealing;
* **scheduling triggers** — the scheduler calls its PIOMan engine on core
  idleness, timer interrupts and context switches, exactly the trigger
  list of §3.1, and runs PIOMan's due kernel detection at the first safe
  point (dispatch or tick) before any thread, with the very high priority
  §3.1 gives deferred work.
"""

from .effects import Compute, Sleep, WaitFlag, WaitTEvent, YieldNow
from .scheduler import CoreRuntime, MarcelScheduler
from .sync import ThreadBarrier, ThreadEvent, ThreadFlag, ThreadMutex
from .thread import MarcelThread, ThreadState

__all__ = [
    "MarcelScheduler",
    "CoreRuntime",
    "MarcelThread",
    "ThreadState",
    "Compute",
    "Sleep",
    "YieldNow",
    "WaitTEvent",
    "WaitFlag",
    "ThreadEvent",
    "ThreadFlag",
    "ThreadMutex",
    "ThreadBarrier",
]
