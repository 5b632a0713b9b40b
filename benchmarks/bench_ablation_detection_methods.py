"""Ablation (§2.3/§3.1): polling vs. blocking completion detection.

PIOMan chooses between *active polling* (cheap, needs an idle core) and a
*blocking call on a kernel thread* (adds interrupt latency, but works when
every core computes). This bench pins computing threads to a varying
number of cores on both nodes while one thread waits for a rendezvous
transfer, and compares ``allow_blocking_calls`` on/off:

* with idle cores, both configurations poll — identical times
  (362.3 µs at 0 and 4 busy cores);
* with all 8 cores busy, the receiver's wait arms a blocking watch when
  blocking calls are allowed (one blocking wait; none without). Both
  columns still read 400.6 µs: with no idle core, the due kernel
  detection runs at the next timer tick, and the tick trigger has already
  polled the completion there. The blocking method neither speeds up
  nor delays the receive here.
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


def _run(busy_threads: int, allow_blocking: bool) -> tuple[float, int]:
    """Receive completion time and the receiving engine's blocking waits."""
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

    # keep both nodes crowded: `busy_threads` computing threads pinned to
    # cores 0.., so at 8 the receiver's own core stays busy once it blocks
    for i in range(busy_threads):
        rt.spawn(1, busy, name=f"busy{i}", core_index=i, migratable=False)
        rt.spawn(0, busy, name=f"busy0_{i}", core_index=i, migratable=False)
    rt.spawn(1, receiver, name="recv", core_index=7, migratable=False)
    rt.spawn(0, sender, name="send", core_index=7, migratable=False)
    rt.run()
    return done["recv_at"], rt.node(1).engine.blocking_waits


BUSY_LEVELS = (0, 4, 8)


@pytest.fixture(scope="module")
def detection_table():
    # busy × blocking grid, fanned out over $REPRO_BENCH_WORKERS
    tasks = [
        {"busy_threads": busy, "allow_blocking": blocking}
        for busy in BUSY_LEVELS
        for blocking in (True, False)
    ]
    runs = run_grid(_run, tasks, execution=ExecutionConfig.from_env())
    return [
        (busy, runs[2 * i], runs[2 * i + 1]) for i, busy in enumerate(BUSY_LEVELS)
    ]


def test_detection_methods_report(detection_table, print_report):
    body = format_table(
        ["busy cores", "blocking allowed (µs)", "polling only (µs)"],
        [(b, f"{w:.1f}", f"{wo:.1f}") for b, (w, _), (wo, _) in detection_table],
        title="Detection-method ablation: RDV recv completion time",
    )
    print_report("Ablation: polling vs blocking detection", body)


def test_idle_cores_make_methods_equivalent(detection_table):
    busy, (with_block, waits), (without, _) = detection_table[0]
    assert busy == 0 and waits == 0
    assert with_block == pytest.approx(without, rel=0.02), (
        "with idle cores both configurations should actively poll"
    )


def test_blocking_path_taken_when_all_cores_busy(detection_table):
    busy, (with_block, waits), (without, no_waits) = detection_table[-1]
    assert busy == 8
    assert waits >= 1 and no_waits == 0
    # the blocking method must not be slower than tick-only detection
    assert with_block <= without + 0.5, (
        f"blocking ({with_block:.1f}) slower than tick-polling ({without:.1f})"
    )


def test_bench_detection(benchmark):
    benchmark(_run, 8, True)
