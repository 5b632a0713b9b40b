"""PIOMan trigger behaviour: idle, timer-tick, context-switch, blocking.

§3.1: "MARCEL also schedules PIOMAN on some triggers (CPU idleness,
context switches, timer interrupts, etc.) so as to ensure a fast detection
of communication events."
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineKind, PiomanConfig, TimingModel
from repro.harness.runner import ClusterRuntime
from repro.sim.tracing import Tracer
from repro.units import KiB


def _build(allow_blocking=True, tracer=None):
    timing = TimingModel().replace(pioman=PiomanConfig(allow_blocking_calls=allow_blocking))
    return ClusterRuntime.build(engine=EngineKind.PIOMAN, timing=timing, tracer=tracer)


def _sendrecv_with_busy_receiver(rt, size=KiB(8), busy_cores=8):
    """Sender on node 0; node 1 fully busy computing; returns recv time."""
    out = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, size)
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, size)
        yield from nm.rwait(ctx, req)
        out["recv_at"] = ctx.now

    def busy(ctx):
        yield ctx.compute(1000.0)

    for i in range(busy_cores):
        rt.spawn(1, busy, name=f"busy{i}", core_index=i, migratable=False)
    rt.spawn(1, receiver, name="R", core_index=0, migratable=False)
    rt.spawn(0, sender, name="S")
    rt.run()
    return out["recv_at"]


def test_timer_tick_detects_on_busy_node():
    """With every core computing and blocking calls disabled, the tick
    trigger is the only detection path — completion still happens."""
    rt = _build(allow_blocking=False)
    t = _sendrecv_with_busy_receiver(rt)
    assert t < 1200.0  # finished despite the busy node
    assert rt.node(1).engine.tick_activations >= 1


def test_blocking_watch_detects_on_busy_node():
    rt = _build(allow_blocking=True)
    t = _sendrecv_with_busy_receiver(rt)
    assert t < 1200.0
    assert rt.node(1).engine.blocking_waits >= 1


def test_idle_trigger_is_fastest():
    """An idle node detects far faster than tick-only detection."""
    rt_idle = _build(allow_blocking=False)
    t_idle = _sendrecv_with_busy_receiver(rt_idle, busy_cores=0)
    rt_busy = _build(allow_blocking=False)
    t_busy = _sendrecv_with_busy_receiver(rt_busy, busy_cores=8)
    assert t_idle < t_busy


def test_blocking_adds_interrupt_latency():
    """The blocking method detects ``interrupt_us`` after the hardware
    event — visible as extra latency vs pure idle polling."""
    timing = TimingModel()
    rt_poll = _build()
    t_poll = _sendrecv_with_busy_receiver(rt_poll, busy_cores=0)
    rt_block = _build()
    t_block = _sendrecv_with_busy_receiver(rt_block, busy_cores=8)
    assert t_block >= t_poll


def test_low_priority_threads_yield_cycles_to_offload():
    """§2.2: events are processed when a CPU is 'idle or running a low
    priority thread'. With every core running LOW-priority background
    work, the submission still happens at a tick instead of waiting for
    the sender's swait."""
    from repro.marcel.thread import Priority
    from repro.units import KiB

    rt = _build()
    out = {}

    def background(ctx):
        yield ctx.compute(500.0)

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, KiB(16))
        yield ctx.compute(100.0)
        out["state_after_compute"] = req.state
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, 0, KiB(16))

    # all 8 cores of node 0 run LOW-priority threads
    for i in range(8):
        rt.spawn(0, background, name=f"bg{i}", core_index=i, migratable=False,
                 priority=Priority.LOW)
    rt.spawn(0, sender, name="S", core_index=0, migratable=False)
    rt.spawn(1, receiver, name="R")
    rt.run()
    # the copy ran on a low-priority core during the sender's compute
    assert out["state_after_compute"] == "completed"


def test_normal_priority_threads_not_preempted_for_submission():
    """NORMAL-priority computation is never taxed with submissions at
    ticks — only detection (§2.2: offload must not impact computations)."""
    from repro.units import KiB

    rt = _build()
    out = {}

    def background(ctx):
        yield ctx.compute(500.0)

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, KiB(16))
        yield ctx.compute(100.0)
        out["state_after_compute"] = req.state
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, 0, KiB(16))

    for i in range(8):
        rt.spawn(0, background, name=f"bg{i}", core_index=i, migratable=False)
    rt.spawn(0, sender, name="S", core_index=0, migratable=False)
    rt.spawn(1, receiver, name="R")
    rt.run()
    # nobody offloaded it: the submission waited for the sender's swait
    assert out["state_after_compute"] == "queued"


#: allow_blocking -> (end time, trace digest) of the busy-receiver run:
#: every core of node 1 computes, so the receiver's wait arms the blocking
#: watch only when blocking calls are allowed. The receive itself
#: completes at 50.6 µs either way; the watch's kernel-thread detection
#: shows in the receiving node's trace and end time. Captured before the
#: detection policy and the event server were folded into the engine.
BUSY_RECEIVE_PINS = {
    True: (1002.89, "9026169c15358e0c77c5089bc4c1a98d"),
    False: (1002.6, "7fec98177bd07edbb52742ffcfe84ba7"),
}


def test_detection_at_a_tick_starts_after_the_tick_poll(monkeypatch):
    """The busy-receiver run's one detection falls due at a tick on n1
    core 1 whose poll charged CPU first: the detection's context starts
    after that poll and the local dispatch, not inside the poll."""
    from repro.pioman import engine as engine_mod

    starts: list[float] = []
    polls: list[tuple[float, float]] = []
    detections: list[tuple] = []

    class Recording(engine_mod.ExecContext):
        def __init__(self, sim, core_index, start):
            super().__init__(sim, core_index, start)
            starts.append(start)

    on_tick = engine_mod.PiomanEngine.on_tick
    run_detection = engine_mod.PiomanEngine.run_detection

    def tick(self, core):
        cost = on_tick(self, core)
        polls.append((self.sim.now, cost))
        return cost

    def detect(self, core, after):
        detections.append((self.sim.now, after, polls[-1]))
        del starts[:]
        cost = run_detection(self, core, after)
        detections.append(tuple(starts))
        return cost

    monkeypatch.setattr(engine_mod, "ExecContext", Recording)
    monkeypatch.setattr(engine_mod.PiomanEngine, "on_tick", tick)
    monkeypatch.setattr(engine_mod.PiomanEngine, "run_detection", detect)
    rt = _build(allow_blocking=True)
    _sendrecv_with_busy_receiver(rt)
    (now, after, last_poll), (start,) = detections
    assert last_poll == (now, after) and after > 0
    assert start == now + after + rt.timing.host.tasklet_local_us


@pytest.mark.parametrize("allow_blocking", [True, False], ids=["block", "poll"])
def test_busy_receiver_detection_is_pinned(allow_blocking):
    tracer = Tracer()
    rt = _build(allow_blocking=allow_blocking, tracer=tracer)
    assert _sendrecv_with_busy_receiver(rt) == 50.6
    end = rt.sim.now
    digest = hashlib.blake2b(repr((end, tracer.signature())).encode(), digest_size=16)
    assert (end, digest.hexdigest()) == BUSY_RECEIVE_PINS[allow_blocking]
