"""A quiet-tick batch equals the per-slice-end loop, bit for bit.

:meth:`MarcelScheduler._quiet_ticks` passes the steady slice ends of a
long batch in closed form: the clock adds ``k * tick`` at once, and the
CPU-time and timeline sums replay only their rounding additions. Each
case here sets a chained core's state by hand and compares one batch
with :func:`_stepwise`, the loop that passes one slice end per
iteration: values with a full mantissa that cross powers of two inside
the batch (where an addition rounds), values with few mantissa bits
(which cross exactly), a core a hair off its tick grid, other chains'
pending ticks, a ``stop`` bound, and fractional ticks, which never jump.
"""

from __future__ import annotations

import math

import pytest

from repro.config import MarcelConfig, TimingModel
from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.thread import MarcelThread
from repro.sim.kernel import Simulator
from repro.topology.builder import build_node

_EPS = 1e-9


def _below(x: float, ulps: int = 1) -> float:
    """The float ``ulps`` steps below ``x``: its low mantissa bits are
    set, so adding a whole tick across the next power of two rounds."""
    for _ in range(ulps):
        x = math.nextafter(x, 0.0)
    return x


def _chained(now, next_tick, cpu_us, quantum_used, busy_us, left, tick, pending=()):
    """A core whose chain passes a slice end at ``now``, with ``left`` µs
    of its compute beyond it."""
    sim = Simulator()
    sched = MarcelScheduler(
        sim,
        build_node(0, sockets=1, cores_per_socket=2),
        timing=TimingModel(marcel=MarcelConfig(timer_tick_us=tick)),
    )
    for time in pending:
        sim.start_chain(time, lambda stop: (1, None), end=math.inf)
    sim.now = now
    core = sched.cores[0]
    thread = MarcelThread(gen=(_ for _ in ()), name="t", tid=1)
    core.current = thread
    core.chain_len = tick
    core.next_tick = next_tick
    core.quantum_used = quantum_used
    core.timeline.busy_us = busy_us
    core.timeline.intervals.append((0.0, now, "busy"))
    thread.cpu_us = cpu_us
    thread.compute_remaining = left + tick
    thread.compute_kind = "busy"
    return sched, core, thread


def _stepwise(sched, core, thread, stop):
    """One slice end per iteration, with ``_slice_end``'s float operations
    in order; returns what a batch leaves behind."""
    tick = sched.cfg.timer_tick_us
    now = sched.sim.now
    remaining = thread.compute_remaining - core.chain_len
    next_tick = core.next_tick
    ticks = core.ticks
    cpu_us = thread.cpu_us
    quantum_used = core.quantum_used
    spent = core.timeline.busy_us
    tail = 1.5 * tick
    pending = sched.sim.chain_times()
    near = None
    tie = -math.inf
    at = 0
    n = 0
    while True:
        n += 1
        if now + _EPS >= next_tick:
            ticks += 1
            while next_tick <= now + _EPS:
                next_tick += tick
        slice_len = next_tick - now
        if remaining < slice_len:
            slice_len = remaining
        end = now + slice_len
        spent += end - now
        cpu_us += slice_len
        quantum_used += slice_len
        now = end
        if now >= stop:
            break
        left = remaining - slice_len
        if left <= tail:
            break
        if near is None:
            near = (left / tick + 2) * math.ulp(now + left)
        if now >= tie:
            while at < len(pending) and pending[at] + near < now:
                at += 1
            if at < len(pending) and pending[at] - near <= now:
                break
            tie = pending[at] - near if at < len(pending) else math.inf
        remaining = left
    return (n, now, remaining, next_tick, ticks, cpu_us, quantum_used, spent, slice_len, now)


def _batch(sched, core, thread, stop):
    n, nxt = sched._quiet_ticks(core, thread, stop)
    return (
        n, nxt, thread.compute_remaining, core.next_tick, core.ticks, thread.cpu_us,
        core.quantum_used, core.timeline.busy_us, core.chain_len, core.timeline.intervals[-1][1],
    )


def _hex(state):
    return [v.hex() if isinstance(v, float) else v for v in state]


#: (now, next_tick, cpu_us, quantum_used, busy_us, left, stop, pending)
SUM_CROSSINGS = (1000.0, None, _below(221.0, 5), _below(109.0, 5), _below(241.0, 5),
                 900.0, math.inf, ())
CASES = {
    # the clock would round crossing 512 and 1024: jumps stop short of both
    "clock crossings": (_below(477.0, 5), None, 40.0, 3.0, 100.0, 1700.0, math.inf, ()),
    # the other sums round at each power of two they cross in one jump
    "sum crossings": SUM_CROSSINGS,
    "short mantissas cross freely": (1000.5, None, 250.25, 3.0, 2000.75, 900.0, math.inf, ()),
    "landing on a power of two": (1024.0 - 40.0, None, 512.0 - 20.0, 24.0, 2048.0 - 60.0,
                                  300.0, math.inf, ()),
    "off its grid by an ulp": (_below(1024.0 - 35.0), "ulp", _below(4096.0 - 95.0), 3.0,
                               _below(2048.0 - 55.0), 900.0, math.inf, ()),
    "stop": (_below(1024.0 - 35.0), None, 40.0, 3.0, 100.0, 900.0, 1024.0 + 123.4, ()),
    "stop on a tick": (1000.0, None, 40.0, 3.0, 100.0, 900.0, 1300.0, ()),
    # 15 µs (the tail, at a 10 µs tick) of compute after 90 more ticks
    "tail on a tick": (1000.0, None, 40.0, 3.0, 100.0, 925.0, math.inf, ()),
    "pending ties": (_below(1024.0 - 35.0), None, 40.0, 3.0, 100.0, 900.0, math.inf,
                     (1500.0, _below(1024.0 - 35.0) + 320.0)),
    "a far pending tick": (1000.0, None, 40.0, 3.0, 100.0, 900.0, math.inf, (1253.5,)),
    # a pending tick whose tie threshold (less the rounding margin ``near``,
    # here 92 ulps of 1910) falls exactly on the tick at 1310
    "a tie threshold on a tick": (1000.0, None, 40.0, 3.0, 100.0, 910.0, math.inf,
                                  (1310.0 + 92 * math.ulp(1910.0),)),
}


@pytest.mark.parametrize("tick", (10.0, 5.0, 7.5, 10.3))
@pytest.mark.parametrize("case", CASES)
def test_batch_equals_stepwise(case, tick):
    now, grid, cpu_us, quantum_used, busy_us, left, stop, pending = CASES[case]
    next_tick = math.nextafter(now, math.inf) if grid == "ulp" else now
    args = (now, next_tick, cpu_us, quantum_used, busy_us, left, tick, pending)
    want = _stepwise(*_chained(*args), stop)
    got = _batch(*_chained(*args), stop)
    assert _hex(got) == _hex(want)
    # a whole batch: many slice ends in one call
    assert got[0] > 10


def test_crossings_round():
    """In the sum-crossing case, adding ``n * tick`` at once would not give
    the stepwise CPU-time and timeline sums: each rounds at more than one
    power of two."""
    now, _, cpu_us, quantum_used, busy_us, left, stop, _ = SUM_CROSSINGS
    state = _chained(now, now, cpu_us, quantum_used, busy_us, left, 10.0)
    n, *_, cpu_after, quantum_after, busy_after, _, _ = _stepwise(*state, stop)
    assert cpu_after != cpu_us + n * 10.0
    assert quantum_after != quantum_used + n * 10.0
    assert busy_after != busy_us + n * 10.0
