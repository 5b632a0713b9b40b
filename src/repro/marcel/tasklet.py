"""Tasklets: very-high-priority deferred work (Linux-style).

§3.1 of the paper: *"Tasklets have been introduced in operating systems to
defer treatments that cannot be performed within an interrupt handler.
Tasklets have a very high priority, meaning that they are executed as soon
as the scheduler reaches a point where it is safe to let them run."*

Semantics reproduced here (matching Linux softirq tasklets):

* a tasklet runs **to completion** on one core — it never blocks;
* a tasklet never runs **concurrently with itself**: scheduling an
  already-scheduled tasklet is a no-op, scheduling a *running* tasklet
  re-queues it to run once more after it finishes;
* tasklets are serialized per safe point — PIOMan relies on this to protect
  NewMadeleine's structures without a library-wide mutex (§2.1).

A tasklet body is a plain callable ``fn(ctx)`` receiving a
:class:`TaskletContext`. CPU time is charged by calling ``ctx.charge(us)``;
side effects that logically happen *after* the charged work use
``ctx.schedule_after(extra, fn, *args)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..errors import SchedulerError
from ..sim.events import Priority as EventPriority
from ..sim.kernel import Simulator

__all__ = ["Tasklet", "TaskletContext", "TaskletScheduler"]


class TaskletContext:
    """Execution context handed to a tasklet body."""

    def __init__(self, sim: Simulator, core_index: int, start: float) -> None:
        self.sim = sim
        self.core_index = core_index
        self.start = start
        self.cpu_us = 0.0

    @property
    def end(self) -> float:
        """Virtual instant at which the work charged so far completes."""
        return self.start + self.cpu_us

    def charge(self, us: float) -> None:
        """Account ``us`` µs of CPU consumed by this tasklet."""
        if us < 0:
            raise SchedulerError(f"negative tasklet charge: {us}")
        self.cpu_us += us

    def schedule_after(
        self, extra: float, fn: Callable[..., Any], *args: Any, priority: int = EventPriority.NORMAL
    ) -> None:
        """Schedule ``fn`` at ``extra`` µs after the charged work completes."""
        self.sim.schedule_at(self.end + extra, fn, *args, priority=priority)


class Tasklet:
    """One deferrable unit of work."""

    IDLE = "idle"
    SCHEDULED = "scheduled"
    RUNNING = "running"

    def __init__(self, fn: Callable[[TaskletContext], None], name: str = "tasklet") -> None:
        self.fn = fn
        self.name = name
        self.state = Tasklet.IDLE
        self._rerun = False
        #: total activations (statistics)
        self.runs = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tasklet {self.name} {self.state}>"


class TaskletScheduler:
    """Node-wide tasklet queues: one deque per core plus a shared deque.

    Core-targeted scheduling (``core_index`` given) mirrors PIOMan steering
    an event to a chosen CPU; shared scheduling lets any core pick the work
    up at its next safe point.
    """

    def __init__(self, sim: Simulator, n_cores: int) -> None:
        if n_cores <= 0:
            raise SchedulerError(f"n_cores must be > 0, got {n_cores}")
        self.sim = sim
        self.n_cores = n_cores
        self._per_core: tuple[deque[Tasklet], ...] = tuple(deque() for _ in range(n_cores))
        self._shared: deque[Tasklet] = deque()
        #: tasklets queued over every queue: the scheduler's safe points
        #: read it before asking :meth:`pending_for`
        self.queued = 0
        #: callback the Marcel scheduler installs so that queuing work on a
        #: parked core wakes it
        self.on_enqueue: Optional[Callable[[Optional[int]], None]] = None
        # statistics
        self.scheduled_count = 0
        self.executed_count = 0

    # -- queueing ---------------------------------------------------------------

    def schedule(self, tasklet: Tasklet, core_index: Optional[int] = None) -> bool:
        """Queue a tasklet; returns False if it was already queued (no-op).

        Scheduling a *running* tasklet marks it for one re-run (Linux
        semantics).
        """
        if core_index is not None and not (0 <= core_index < self.n_cores):
            raise SchedulerError(f"core index out of range: {core_index}")
        if tasklet.state == Tasklet.SCHEDULED:
            return False
        if tasklet.state == Tasklet.RUNNING:
            tasklet._rerun = True
            return False
        tasklet.state = Tasklet.SCHEDULED
        if core_index is None:
            self._shared.append(tasklet)
        else:
            self._per_core[core_index].append(tasklet)
        self.queued += 1
        self.scheduled_count += 1
        if self.on_enqueue is not None:
            self.on_enqueue(core_index)
        return True

    def pending_for(self, core_index: int) -> int:
        """Number of tasklets a given core could run right now."""
        return len(self._per_core[core_index]) + len(self._shared)

    def has_pending(self) -> bool:
        return self.queued > 0

    # -- execution ---------------------------------------------------------------

    def _take(self, core_index: int) -> Optional[Tasklet]:
        if self._per_core[core_index]:
            self.queued -= 1
            return self._per_core[core_index].popleft()
        if self._shared:
            self.queued -= 1
            return self._shared.popleft()
        return None

    def run_batch(self, core_index: int, max_count: int, dispatch_cost_us: float) -> float:
        """Run up to ``max_count`` tasklets on ``core_index``.

        Returns total CPU µs consumed (including ``dispatch_cost_us`` per
        tasklet). The caller (Marcel core loop) must hold the core for the
        returned duration.
        """
        if max_count <= 0:
            raise SchedulerError(f"max_count must be > 0, got {max_count}")
        total = 0.0
        for _ in range(max_count):
            tasklet = self._take(core_index)
            if tasklet is None:
                break
            tasklet.state = Tasklet.RUNNING
            ctx = TaskletContext(self.sim, core_index, self.sim.now + total + dispatch_cost_us)
            tasklet.fn(ctx)
            tasklet.runs += 1
            self.executed_count += 1
            total += dispatch_cost_us + ctx.cpu_us
            if tasklet._rerun:
                tasklet._rerun = False
                tasklet.state = Tasklet.IDLE
                self.schedule(tasklet, core_index)
            else:
                tasklet.state = Tasklet.IDLE
        return total
