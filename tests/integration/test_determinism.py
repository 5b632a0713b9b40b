"""Determinism: identical configurations produce identical executions.

DESIGN.md §5's contract. Verified at three levels: raw trace streams,
experiment outputs, and scheduler statistics.
"""

from __future__ import annotations

import pytest

from repro.apps.convolution import ConvolutionConfig, run_convolution
from repro.apps.overlap import OverlapConfig, run_overlap
from repro.config import EngineKind
from repro.harness.runner import ClusterRuntime
from repro.sim.tracing import Tracer
from repro.units import KiB
from tests.pioman.test_adaptive import FIG4_PINS, fig4_loop
from tests.property.test_prop_trace_compat import GOLDEN, trace_digest


def _traced_run(engine: str, named: bool = True) -> tuple[float, tuple]:
    tracer = Tracer()
    rt = ClusterRuntime.build(engine=engine, tracer=tracer)

    def sender(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i in range(4):
            r = yield from nm.isend(ctx, 1, i, KiB(2) * (i + 1), payload=i)
            reqs.append(r)
            yield ctx.compute(15.0)
        yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for i in range(4):
            req = yield from nm.recv(ctx, 0, i, KiB(16))
            yield ctx.compute(10.0)

    rt.spawn(0, sender, name="S" if named else "")
    rt.spawn(1, receiver, name="R" if named else "")
    end = rt.run()
    return end, tracer.signature()


@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
def test_trace_streams_identical(engine):
    end1, sig1 = _traced_run(engine)
    end2, sig2 = _traced_run(engine)
    assert end1 == end2
    # request ids restart with each runtime, so labels compare too
    assert sig1 == sig2


@pytest.mark.parametrize("engine", [EngineKind.SEQUENTIAL, EngineKind.PIOMAN])
def test_unnamed_threads_trace_identically(engine):
    """A thread spawned without a name is traced as ``thread-<tid>``; the
    ids come from the runtime, so a second runtime in this process traces
    the same names."""
    end1, sig1 = _traced_run(engine, named=False)
    end2, sig2 = _traced_run(engine, named=False)
    assert end1 == end2
    assert sig1 == sig2
    assert (0.0, "marcel.spawn", "n0.c0", "thread-1") in [entry[:4] for entry in sig1]


def test_two_runs_in_one_process_give_equal_signatures():
    """The golden-trace configuration and the Fig. 4 loop, each run twice
    in this process: equal digests, request labels included, with no
    counter rewound between the runs."""
    for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN):
        for faults in (False, True):
            first = trace_digest(engine, 0, faults)
            assert trace_digest(engine, 0, faults) == first == GOLDEN[(engine, 0, faults)]
    for size, mode in ((256, "never"), (KiB(32), "always")):
        first = fig4_loop(size, mode)
        assert fig4_loop(size, mode) == first == FIG4_PINS[(size, mode)]


def test_overlap_results_identical():
    cfg = OverlapConfig(engine=EngineKind.PIOMAN, size=KiB(8), iterations=12)
    a = run_overlap(cfg)
    b = run_overlap(cfg)
    assert a.sender_times == b.sender_times
    assert a.receiver_times == b.receiver_times
    assert a.total_us == b.total_us


def test_convolution_results_identical():
    cfg = ConvolutionConfig(engine=EngineKind.PIOMAN, grid_rows=2, grid_cols=2)
    assert run_convolution(cfg).exec_time_us == run_convolution(cfg).exec_time_us


def test_scheduler_stats_identical():
    def run():
        rt = ClusterRuntime.build(engine=EngineKind.PIOMAN)

        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, KiB(16))
            yield ctx.compute(40.0)
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            yield from nm.recv(ctx, 0, 0, KiB(16))

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        rt.run()
        return rt.total_stats()

    assert run() == run()


def test_different_seeds_do_not_change_deterministic_runs():
    """Nothing in the core experiments draws randomness: seeds must not
    matter for them (they exist for workload generators only)."""
    r1 = ClusterRuntime.build(engine=EngineKind.PIOMAN, seed=1)
    r2 = ClusterRuntime.build(engine=EngineKind.PIOMAN, seed=2)

    results = []
    for rt in (r1, r2):
        def sender(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.isend(ctx, 1, 0, KiB(8))
            yield from nm.swait(ctx, req)

        def receiver(ctx):
            nm = ctx.env["nm"]
            req = yield from nm.recv(ctx, 0, 0, KiB(8))

        rt.spawn(0, sender)
        rt.spawn(1, receiver)
        results.append(rt.run())
    assert results[0] == results[1]
