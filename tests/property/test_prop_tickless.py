"""Tickless compute is invisible: a run whose quiet cores compute on kernel
tick chains equals the same run ticking every 10 µs slice as an event.

The ticking oracle patches :meth:`MarcelScheduler._quiet` to always answer
False, so every slice end is an ordinary kernel event. Hypothesis draws
oversubscribed symmetric two-node workloads — priorities, pinning, sleeps,
short and long compute lengths on 10/5/2.5 µs grids (same-phase tick ties
across cores),
eager and rendezvous exchanges, the aggregation strategy, a lossy wire,
and the timer tick: 10 and 5 µs, where long batches jump their steady ticks in
closed form, and 7.5 and 10.3 µs, where a fractional tick steps them one
by one — and both runs must agree on the end time, the full trace, every
scheduler's statistics and the sampled metric series. The kernel work must
also add up: every real event or chain boundary of the tickless run is one
event of the ticking run.

The sampler is a kernel observer, which keeps tick chains at one boundary
per batch. A third run, tickless with no observer, reaches the batched
path: it must equal the ticking run on the end time, the trace, the
statistics, every core's timeline and every thread's CPU time, and pass
as many chain boundaries as the sampled tickless run. Without an observer
the kernel also runs sub-tick computes ahead (``Simulator.run_ahead``):
its events, boundaries and run-aheads add up to the ticking run's events.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineKind, MarcelConfig, ObsConfig, TimingModel
from repro.errors import DeadlockError
from repro.faults.plan import FaultPlan
from repro.harness.runner import ClusterRuntime
from repro.marcel.scheduler import MarcelScheduler
from repro.marcel.thread import Priority
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.tickless

#: sampler lanes that count kernel work, which tickless runs do differently
_KERNEL_WORK = (
    "sim.events_fired", "sim.chain_boundaries", "sim.chain_batches", "sim.run_aheads",
)

grids = st.sampled_from((10.0, 5.0, 2.5))
steps = st.one_of(
    st.tuples(st.just("compute"), grids, st.integers(min_value=1, max_value=12)),
    # long enough for quiet cores to pass many ticks between events
    st.tuples(st.just("compute"), grids, st.integers(min_value=40, max_value=120)),
    st.tuples(st.just("sleep"), grids, st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("xchg"), st.sampled_from((64, KiB(1), KiB(4), KiB(40))), st.integers(0, 6)),
)
threads = st.tuples(
    st.sampled_from((Priority.HIGH, Priority.NORMAL, Priority.LOW)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # pinned core
    st.lists(steps, min_size=1, max_size=5),
)
configs = st.fixed_dictionaries(
    {
        "engine": st.sampled_from((EngineKind.PIOMAN, EngineKind.SEQUENTIAL)),
        "threads": st.lists(threads, min_size=1, max_size=10),
        "aggreg": st.booleans(),
        "lossy": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**16),
        "tick": st.sampled_from((10.0, 5.0, 7.5, 10.3)),
    }
)


def _body(index: int, program):
    def body(ctx):
        nm = ctx.env["nm"]
        peer = 1 - ctx.env["node"]
        for kind, grain, n in program:
            if kind == "compute":
                yield ctx.compute(grain * n)
            elif kind == "sleep":
                yield ctx.sleep(grain * n)
            else:
                req = yield from nm.isend(ctx, peer, index, grain, payload=index)
                if n:
                    yield ctx.compute(2.5 * n)
                yield from nm.recv(ctx, peer, index, grain)
                yield from nm.swait(ctx, req)

    return body


def _run(cfg, sampled: bool = True):
    timing = TimingModel(
        marcel=MarcelConfig(timer_tick_us=cfg["tick"]),
        obs=ObsConfig(sample_interval_us=25.0) if sampled else ObsConfig(),
    )
    tracer = Tracer()
    rt = ClusterRuntime.build(
        engine=cfg["engine"],
        cores_per_socket=2,
        timing=timing,
        tracer=tracer,
        seed=cfg["seed"],
        strategy="aggreg" if cfg["aggreg"] else "default",
        faults=FaultPlan.lossy(drop=0.05, delay=0.05, seed=cfg["seed"]) if cfg["lossy"] else None,
    )
    for node in (0, 1):
        for i, (prio, pin, program) in enumerate(cfg["threads"]):
            rt.spawn(
                node,
                _body(i, program),
                name=f"t{i}",
                core_index=pin,
                priority=prio,
                migratable=pin is None,
            )
    try:
        end: object = rt.run()
    except DeadlockError as exc:
        # the sequential engine may give up on a lossy wire (docs/faults.md):
        # a stuck run must be stuck alike in both modes
        end = str(exc)
    cores = [core for nrt in rt.nodes for core in nrt.scheduler.cores]
    out = {
        "end": end,
        "trace": tracer.signature(),
        "stats": [nrt.scheduler.stats() for nrt in rt.nodes],
        "timelines": [
            (c.timeline.intervals, c.timeline.busy_us, c.timeline.service_us, c.timeline.idle_us)
            for c in cores
        ],
        "cpu_us": [t.cpu_us for nrt in rt.nodes for t in nrt.scheduler.threads],
        "events": rt.sim.events_fired,
        "boundaries": rt.sim.chain_boundaries,
        "batches": rt.sim.chain_batches,
        "run_aheads": rt.sim.run_aheads,
    }
    if not sampled:
        assert rt.sampler is None
        return out
    assert rt.sampler is not None
    out["samples"] = [
        (t, {k: v for k, v in snap.items() if k not in _KERNEL_WORK}) for t, snap in rt.sampler.samples
    ]
    out["work"] = [
        (t, snap["sim.events_fired"], snap["sim.chain_boundaries"] + snap["sim.run_aheads"])
        for t, snap in rt.sampler.samples
    ]
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs)
def test_tick_chains_equal_ticking(cfg):
    tickless = _run(cfg)
    with mock.patch.object(MarcelScheduler, "_quiet", lambda self, core, thread: False):
        ticking = _run(cfg)
    assert ticking["boundaries"] == 0
    # the sampler is an observer: no run-aheads in either sampled run
    assert ticking["run_aheads"] == tickless["run_aheads"] == 0
    assert tickless["end"] == ticking["end"]
    assert tickless["trace"] == ticking["trace"]
    assert tickless["stats"] == ticking["stats"]
    assert tickless["samples"] == ticking["samples"]
    assert tickless["timelines"] == ticking["timelines"]
    assert tickless["cpu_us"] == ticking["cpu_us"]
    assert tickless["events"] + tickless["boundaries"] == ticking["events"]
    assert [(t, e + b) for t, e, b in tickless["work"]] == [(t, e) for t, e, _ in ticking["work"]]
    # an observer passes one boundary per batch
    assert tickless["batches"] == tickless["boundaries"]
    batched = _run(cfg, sampled=False)
    for key in ("end", "trace", "stats", "timelines", "cpu_us"):
        assert batched[key] == ticking[key], key
    assert batched["boundaries"] == tickless["boundaries"]
    assert batched["events"] + batched["run_aheads"] == tickless["events"]
    assert (
        batched["events"] + batched["boundaries"] + batched["run_aheads"] == ticking["events"]
    )
    assert batched["batches"] <= batched["boundaries"]
