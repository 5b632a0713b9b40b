"""Ablation (§2.1): library-wide mutex vs event-granular locking.

The baseline's handicap has *two* components: inline processing (no
offload) and one big lock serializing every thread's library calls. The
``"never"`` offload mode isolates them — it submits inline like the
baseline but under PIOMan's event-granular locking:

* `sequential`            = big lock + inline      (the paper's baseline)
* `pioman --never-offload`= event locks + inline   (locking improvement only)
* `pioman`                = event locks + offload  (the full design)

With several threads bursting sends concurrently (and idle cores left
for the offload), the gap between rows 1 and 2 is the §2.1 locking claim;
between 2 and 3 the §2.2 offload claim.
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.report import format_table
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

THREADS = 3
MSG = KiB(16)
COMPUTE = 30.0


def _run(engine: str, offload_policy=None) -> float:
    rt = ClusterRuntime.build(engine=engine, offload_policy=offload_policy)
    ends = []

    def sender(ctx, tag):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, tag, MSG, payload=tag)
        yield ctx.compute(COMPUTE)
        yield from nm.swait(ctx, req)
        ends.append(ctx.now)

    def receiver(ctx, tag):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, tag, MSG)
        yield from nm.rwait(ctx, req)

    for i in range(THREADS):
        rt.spawn(0, lambda c, i=i: sender(c, i), name=f"s{i}", core_index=i, migratable=False)
        rt.spawn(1, lambda c, i=i: receiver(c, i), name=f"r{i}")
    rt.run()
    assert len(ends) == THREADS
    return max(ends)


@pytest.fixture(scope="module")
def locking_rows():
    # independent configurations: fan out over $REPRO_BENCH_WORKERS
    tasks = [
        {"engine": EngineKind.SEQUENTIAL, "offload_policy": None},
        {"engine": EngineKind.PIOMAN, "offload_policy": "never"},
        {"engine": EngineKind.PIOMAN, "offload_policy": "always"},
    ]
    times = run_grid(_run, tasks, execution=ExecutionConfig.from_env())
    return {
        "big lock + inline (baseline)": times[0],
        "event locks + inline": times[1],
        "event locks + offload (pioman)": times[2],
    }


def test_locking_report(locking_rows, print_report):
    base = locking_rows["big lock + inline (baseline)"]
    body = format_table(
        ["configuration", "makespan (µs)", "vs baseline"],
        [
            (name, f"{t:.1f}", f"-{(1 - t / base) * 100:.0f}%")
            for name, t in locking_rows.items()
        ],
        title=f"{THREADS} threads bursting isend({MSG}B)+compute({COMPUTE:.0f}µs)+swait",
    )
    print_report("Ablation: §2.1 locking vs §2.2 offloading", body)


def test_event_locking_alone_helps(locking_rows):
    """Removing the big lock speeds up the multithreaded burst even with
    inline submissions (§2.1: 'several threads can perform different
    operations at the same time')."""
    assert (
        locking_rows["event locks + inline"]
        < locking_rows["big lock + inline (baseline)"] - 5.0
    )


def test_offloading_adds_on_top(locking_rows):
    """§2.2's offload is a further win over fine-grained locking alone."""
    assert (
        locking_rows["event locks + offload (pioman)"]
        < locking_rows["event locks + inline"] - 5.0
    )


def test_full_design_best(locking_rows):
    best = min(locking_rows.values())
    assert locking_rows["event locks + offload (pioman)"] == best


def test_bench_locking(benchmark):
    benchmark(_run, EngineKind.PIOMAN, "never")
