"""PIOMan: the event-driven multithreaded communication engine (§2–§3).

PIOMan turns communication progression into *events* executed at Marcel
scheduler safe points, on whatever core is available:

* **submission offloading** (§2.2) — ``isend`` only registers the request
  in the session work list and *generates an event*; an idle core picks it
  up (idle trigger) and performs the expensive copy/PIO submission there,
  overlapping it with the application's computation. If every core is
  busy, the submission happens inside the application's ``wait`` — "the
  offload has no impact on regular computations";
* **asynchronous rendezvous progression** (§2.3) — RTS/CTS handshakes are
  answered from idle cores (polling method) or, when no core is idle, via
  a blocking call on a kernel thread (modelled by a delayed detection with
  ``interrupt_us`` extra latency);
* **event-granular locking** (§2.1) — instead of the baseline's
  library-wide mutex, each event executes under a light spinlock
  (``spinlock_us`` charged per activation).

All of it lives in :class:`PiomanEngine`.
"""

from .engine import PiomanEngine

__all__ = ["PiomanEngine"]
