"""Ablation (§4.3 discussion): offloading benefit vs. number of idle cores.

"These idle cores actually keep on trying to offload the communication
requests" — the benefit of the PIOMan engine should grow with the number
of cores left idle by the application, and degrade gracefully to the
inside-the-wait submission when none is idle ("the offload has no impact
on regular computations").
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.report import format_table
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

MSG = KiB(16)
COMPUTE_US = 30.0
ITERS = 10
BUSY_LEVELS = (0, 3, 5, 7)


def _run(engine: str, busy_threads: int) -> float:
    """isend/compute/swait loop on node 0 while `busy_threads` other
    threads keep cores occupied. Returns the comm thread's total time."""
    rt = ClusterRuntime.build(engine=engine)
    out = {}

    def comm_thread(ctx):
        nm = ctx.env["nm"]
        t0 = ctx.now
        for i in range(ITERS):
            req = yield from nm.isend(ctx, 1, 0, MSG, payload=i, buffer_id="b")
            yield ctx.compute(COMPUTE_US)
            yield from nm.swait(ctx, req)
        out["elapsed"] = ctx.now - t0

    def sink(ctx):
        nm = ctx.env["nm"]
        for i in range(ITERS):
            req = yield from nm.irecv(ctx, 0, 0, MSG)
            yield from nm.rwait(ctx, req)

    def busy(ctx):
        yield ctx.compute(COMPUTE_US * ITERS * 3)

    rt.spawn(0, comm_thread, name="comm", core_index=0)
    rt.spawn(1, sink, name="sink", core_index=0)
    for i in range(busy_threads):
        rt.spawn(0, busy, name=f"busy{i}", core_index=1 + i)
    rt.run()
    return out["elapsed"]


@pytest.fixture(scope="module")
def idle_core_rows():
    # grid points are independent runs: fan out over $REPRO_BENCH_WORKERS
    tasks = [
        {"engine": engine, "busy_threads": busy}
        for busy in BUSY_LEVELS
        for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
    ]
    times = run_grid(_run, tasks, execution=ExecutionConfig.from_env())
    return [
        {"busy": busy, "idle": 7 - busy, "sequential": times[2 * i], "pioman": times[2 * i + 1]}
        for i, busy in enumerate(BUSY_LEVELS)
    ]


def test_idle_cores_report(idle_core_rows, print_report):
    body = format_table(
        ["idle cores", "sequential (µs)", "pioman (µs)", "gain"],
        [
            (r["idle"], f"{r['sequential']:.1f}", f"{r['pioman']:.1f}",
             f"{(r['sequential'] - r['pioman']) / r['sequential'] * 100:.0f}%")
            for r in idle_core_rows
        ],
        title=f"{ITERS}×(isend {MSG}B + compute {COMPUTE_US}µs + swait) on node 0",
    )
    print_report("Ablation: offloading vs idle cores", body)


def test_offload_wins_with_idle_cores(idle_core_rows):
    with_idle = idle_core_rows[0]
    assert with_idle["idle"] == 7
    assert with_idle["pioman"] < with_idle["sequential"] * 0.80, (
        "with 7 idle cores the copy must overlap the computation"
    )


def test_offload_harmless_without_idle_cores(idle_core_rows):
    """'If the application reaches the wait function before the message has
    been submitted (every CPU was busy), then the message is sent inside
    the wait function' — no idle cores ⇒ PIOMan ≈ baseline, not worse."""
    crowded = idle_core_rows[-1]
    assert crowded["idle"] == 0
    assert crowded["pioman"] <= crowded["sequential"] * 1.10, (
        f"offload must not hurt when no core is idle: {crowded}"
    )


def test_benefit_monotone_in_idle_cores(idle_core_rows):
    """More idle cores ⇒ at least as much absolute gain (within noise)."""
    gains = [r["sequential"] - r["pioman"] for r in reversed(idle_core_rows)]  # 0 → 7 idle
    assert gains[-1] >= gains[0] - 1.0, f"gain should grow with idle cores: {gains}"


def test_bench_idle_cores(benchmark):
    benchmark(_run, EngineKind.PIOMAN, 3)
