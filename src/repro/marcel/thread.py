"""Marcel user-level threads.

A :class:`MarcelThread` owns a generator produced by the thread body and the
bookkeeping the scheduler needs: state, priority, core affinity, remaining
compute of an interrupted slice, and accumulated statistics.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from ..errors import ThreadStateError
from .effects import Compute, Sleep, WaitTEvent, YieldNow

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import MarcelScheduler
    from .sync import ThreadEvent

__all__ = ["ThreadState", "Priority", "MarcelThread", "ThreadContext"]


class ThreadState:
    """Thread lifecycle states."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"

    LIVE = (CREATED, READY, RUNNING, BLOCKED, SLEEPING)


#: the legal lifecycle transitions, by current state
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    ThreadState.CREATED: (ThreadState.READY,),
    ThreadState.READY: (ThreadState.RUNNING,),
    ThreadState.RUNNING: (
        ThreadState.READY, ThreadState.BLOCKED, ThreadState.SLEEPING, ThreadState.DONE
    ),
    ThreadState.BLOCKED: (ThreadState.READY,),
    ThreadState.SLEEPING: (ThreadState.READY,),
    ThreadState.DONE: (),
}


class Priority:
    """Thread priorities; lower value = scheduled first."""

    HIGH = 0
    NORMAL = 1
    LOW = 2
    IDLE = 3

    LEVELS = 4


class MarcelThread:
    """One user-level thread. ``tid`` is its id in the runtime
    (:meth:`MarcelScheduler.spawn` draws it from ``sim.thread_ids``); a
    thread without a name is called ``thread-<tid>``."""

    def __init__(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        tid: int = 0,
        priority: int = Priority.NORMAL,
        core_index: int = 0,
        migratable: bool = True,
    ) -> None:
        if not hasattr(gen, "send"):
            raise ThreadStateError(
                f"thread body must be a generator, got {type(gen).__name__}"
            )
        if not (0 <= priority < Priority.LEVELS):
            raise ThreadStateError(f"priority out of range: {priority}")
        self.tid = tid
        self.gen = gen
        self.name = name or f"thread-{self.tid}"
        self.priority = priority
        #: soft affinity: the core whose runqueue holds the thread when READY
        self.core_index = core_index
        self.migratable = migratable
        self.state = ThreadState.CREATED
        #: value delivered to ``gen.send`` at next resume
        self.pending_value: Any = None
        #: µs of an interrupted Compute effect still to run
        self.compute_remaining: float = 0.0
        self.compute_kind: str = "busy"
        #: return value of the body once DONE
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # statistics
        self.cpu_us: float = 0.0
        self.wait_us: float = 0.0
        self.switches: int = 0
        self._blocked_since: float = 0.0
        #: one-shot completion event, created lazily by the scheduler (it
        #: needs the scheduler reference)
        self.done_event: "ThreadEvent | None" = None

    # -- state transitions (validated) ---------------------------------------

    def transition(self, new_state: str) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise ThreadStateError(
                f"{self.name}: illegal transition {self.state} → {new_state}"
            )
        self.state = new_state

    @property
    def done(self) -> bool:
        return self.state == ThreadState.DONE

    @property
    def runnable(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MarcelThread {self.name} {self.state} prio={self.priority} core={self.core_index}>"


class ThreadContext:
    """Handle given to thread bodies for ergonomic effect construction.

    A body is declared as ``def body(ctx): ...`` and spawned via
    :meth:`MarcelScheduler.spawn`, which constructs the context and calls
    the body to obtain the generator.
    """

    def __init__(self, scheduler: "MarcelScheduler", thread: MarcelThread) -> None:
        self.scheduler = scheduler
        self.thread = thread
        #: arbitrary per-thread attachments (e.g. the MPI communicator)
        self.env: dict[str, Any] = {}

    @property
    def sim(self):  # noqa: ANN201 - forward ref
        return self.scheduler.sim

    @property
    def now(self) -> float:
        return self.scheduler.sim.now

    @property
    def name(self) -> str:
        return self.thread.name

    def compute(self, duration: float, label: str = ""):
        """Effect: application computation for ``duration`` µs."""
        return Compute(duration, kind="busy", label=label)

    def service(self, duration: float, label: str = ""):
        """Effect: communication/library CPU work for ``duration`` µs."""
        return Compute(duration, kind="service", label=label)

    def sleep(self, duration: float):
        return Sleep(duration)

    def yield_now(self):
        return YieldNow()

    def join(self, other: MarcelThread):
        """Effect: wait for another thread's completion."""
        return WaitTEvent(self.scheduler.done_event_of(other))
