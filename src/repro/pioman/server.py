"""PIOMan event server: blocking-call watches and detection statistics.

The server owns the *blocking detection method* machinery (§2.3, [10]):
when a thread must wait and no core will be idle, a specialized kernel
thread blocks in the driver; the NIC interrupt wakes it ``interrupt_us``
after the hardware event, and the detection then runs at the next
scheduler safe point (a shared tasklet). Requests detected by active
polling never touch the server.
"""

from __future__ import annotations

from typing import Callable

from ..config import TimingModel
from ..marcel.scheduler import MarcelScheduler
from ..marcel.tasklet import Tasklet
from ..nmad.core import NmSession
from ..nmad.request import NmRequest

__all__ = ["EventServer"]


class EventServer:
    """Blocking-watch registry for one node's PIOMan instance."""

    def __init__(
        self,
        session: NmSession,
        scheduler: MarcelScheduler,
        timing: TimingModel,
        progress_cb: Callable[[object], None],
    ) -> None:
        self.session = session
        self.scheduler = scheduler
        self.timing = timing
        self._armed: set[int] = set()
        self._interrupt_scheduled = False
        #: the "kernel detection" work, run as a shared tasklet at the next
        #: safe point of any core
        self._detect_tasklet = Tasklet(self._run_detection, name="piom.kdetect")
        self._progress_cb = progress_cb
        session.on_request_complete.append(self._on_complete)
        # statistics
        self.blocking_waits = 0
        self.interrupts_taken = 0

    def close(self) -> None:
        """Detach from the session; armed watches are abandoned. Part of the
        engine teardown contract (see :meth:`EngineBase.close`)."""
        try:
            self.session.on_request_complete.remove(self._on_complete)
        except ValueError:
            pass
        self._armed.clear()

    def arm(self, req: NmRequest) -> None:
        """Watch ``req`` with the blocking method until it completes."""
        if req.req_id not in self._armed:
            self._armed.add(req.req_id)
            req.blocking_watch = True
            self.blocking_waits += 1

    def armed_count(self) -> int:
        return len(self._armed)

    def _on_complete(self, req: NmRequest) -> None:
        self._armed.discard(req.req_id)
        req.blocking_watch = False

    def on_hw_activity(self) -> None:
        """Hardware produced a completion while blocking watches are armed:
        the kernel thread unblocks after the interrupt cost, then schedules
        the detection at a safe point."""
        if not self._armed or self._interrupt_scheduled:
            return
        self._interrupt_scheduled = True
        self.interrupts_taken += 1
        self.scheduler.sim.schedule(
            self.timing.nic.interrupt_us, self._fire_detection, label="piom.interrupt"
        )

    def _fire_detection(self) -> None:
        self._interrupt_scheduled = False
        self.scheduler.tasklets.schedule(self._detect_tasklet, core_index=None)

    def _run_detection(self, ctx) -> None:
        """Tasklet body: consume completions on behalf of blocked waiters."""
        ctx.charge(self.timing.host.syscall_us)
        self._progress_cb(ctx)
