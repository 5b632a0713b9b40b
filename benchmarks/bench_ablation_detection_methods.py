"""Ablation (§2.3/§3.1): polling vs. blocking completion detection.

PIOMan chooses between *active polling* (cheap, needs an idle core) and a
*blocking call on a kernel thread* (adds interrupt latency, but works when
every core computes). This bench occupies a varying number of cores with
computation while one thread waits for a rendezvous transfer, and compares
``allow_blocking_calls`` on/off:

* with idle cores, both configurations poll — identical times;
* with every core busy, disabling the blocking method leaves only the
  timer-tick trigger (detection granularity = the 10 µs tick), while the
  blocking method reacts after ``interrupt_us`` = 6 µs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import EngineKind, PiomanConfig, TimingModel
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.runner import ClusterRuntime
from repro.harness.report import format_table
from repro.units import KiB

MSG = KiB(256)
BUSY_COMPUTE_US = 3000.0


def _run(busy_threads: int, allow_blocking: bool) -> float:
    timing = TimingModel().replace(
        pioman=dataclasses.replace(PiomanConfig(), allow_blocking_calls=allow_blocking)
    )
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, timing=timing)
    done = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, MSG, buffer_id="s")
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, MSG, buffer_id="r")
        yield from nm.rwait(ctx, req)
        done["recv_at"] = ctx.now

    def busy(ctx):
        yield ctx.compute(BUSY_COMPUTE_US)

    # keep the receiver's node crowded: `busy_threads` computing threads
    for i in range(busy_threads):
        rt.spawn(1, busy, name=f"busy{i}", core_index=i)
        rt.spawn(0, busy, name=f"busy0_{i}", core_index=i)
    rt.spawn(1, receiver, name="recv", core_index=7)
    rt.spawn(0, sender, name="send", core_index=7)
    rt.run()
    return done["recv_at"]


BUSY_LEVELS = (0, 4, 7)


@pytest.fixture(scope="module")
def detection_table():
    # busy × blocking grid, fanned out over $REPRO_BENCH_WORKERS
    tasks = [
        {"busy_threads": busy, "allow_blocking": blocking}
        for busy in BUSY_LEVELS
        for blocking in (True, False)
    ]
    times = run_grid(_run, tasks, execution=ExecutionConfig.from_env())
    return [
        (busy, times[2 * i], times[2 * i + 1]) for i, busy in enumerate(BUSY_LEVELS)
    ]


def test_detection_methods_report(detection_table, print_report):
    body = format_table(
        ["busy cores", "blocking allowed (µs)", "polling only (µs)"],
        [(b, f"{w:.1f}", f"{wo:.1f}") for b, w, wo in detection_table],
        title="Detection-method ablation: RDV recv completion time",
    )
    print_report("Ablation: polling vs blocking detection", body)


def test_idle_cores_make_methods_equivalent(detection_table):
    busy, with_block, without = detection_table[0]
    assert busy == 0
    assert with_block == pytest.approx(without, rel=0.02), (
        "with idle cores both configurations should actively poll"
    )


def test_blocking_helps_when_all_cores_busy(detection_table):
    busy, with_block, without = detection_table[-1]
    assert busy == 7
    # the blocking method must not be slower than tick-only detection
    assert with_block <= without + 0.5, (
        f"blocking ({with_block:.1f}) should beat tick-polling ({without:.1f})"
    )


def test_bench_detection(benchmark):
    benchmark(_run, 7, True)
