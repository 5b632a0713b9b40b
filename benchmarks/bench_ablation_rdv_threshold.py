"""Ablation (§2.3): where should the eager→rendezvous switch sit?

MX uses 32 KiB. The trade-off: the eager path costs a CPU copy (and a
second one if the message lands unexpected) but no handshake round-trip;
the rendezvous path is zero-copy but pays RTS/CTS latency and reactivity.
This bench sweeps the threshold and measures the no-compute transfer time
per message size — the best threshold should sit near the size where the
copy cost overtakes the handshake cost.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.overlap import OverlapConfig, run_overlap
from repro.config import EngineKind, TimingModel
from repro.harness.executors import ExecutionConfig, sweep
from repro.harness.report import format_table
from repro.units import KiB, fmt_size

SIZES = (KiB(4), KiB(16), KiB(32), KiB(64), KiB(128))
THRESHOLDS = (KiB(1), KiB(32), KiB(128), KiB(512))


def _transfer_time(size: int, threshold: int) -> dict:
    timing = TimingModel()
    timing = timing.replace(nic=dataclasses.replace(timing.nic, rdv_threshold=threshold))
    res = run_overlap(
        OverlapConfig(engine=EngineKind.PIOMAN, size=size, compute_us=0.0, timing=timing, iterations=12)
    )
    return {"time_us": res.per_iteration_us}


@pytest.fixture(scope="module")
def threshold_sweep():
    # from_env() honours $REPRO_BENCH_WORKERS: the 20-point grid fans out
    # over a process pool with rows byte-identical to the serial run
    return sweep(
        _transfer_time,
        {"size": list(SIZES), "threshold": list(THRESHOLDS)},
        execution=ExecutionConfig.from_env(),
    )


def test_threshold_report(threshold_sweep, print_report):
    rows = []
    for size in SIZES:
        row = [fmt_size(size)]
        for thr in THRESHOLDS:
            match = next(
                r for r in threshold_sweep.rows if r["size"] == size and r["threshold"] == thr
            )
            row.append(f"{match['time_us']:.1f}")
        rows.append(row)
    body = format_table(
        ["msg size \\ threshold"] + [fmt_size(t) for t in THRESHOLDS],
        rows,
        title="Sender time (µs, no compute) vs rendezvous threshold",
    )
    print_report("Ablation: eager→rendezvous threshold", body)


def test_small_messages_prefer_eager(threshold_sweep):
    """A 4K message must not benefit from rendezvous (handshake dominates)."""
    eager = next(
        r for r in threshold_sweep.rows if r["size"] == KiB(4) and r["threshold"] == KiB(32)
    )["time_us"]
    forced_rdv = next(
        r for r in threshold_sweep.rows if r["size"] == KiB(4) and r["threshold"] == KiB(1)
    )["time_us"]
    # sender-visible time: eager completes at copy end; rdv waits the full
    # handshake + transfer — rdv must be clearly slower for tiny messages
    assert forced_rdv > eager, f"4K: rdv {forced_rdv:.1f} should exceed eager {eager:.1f}"


def test_large_messages_prefer_rdv_for_memory(threshold_sweep):
    """For 128K the *sender* finishes earlier with eager (local copy) but
    pays a full extra copy; the receive-side copy cost is what the
    rendezvous removes. Assert the eager copy time grows linearly while
    rdv time is wire-bound."""
    t32 = next(
        r for r in threshold_sweep.rows if r["size"] == KiB(128) and r["threshold"] == KiB(32)
    )["time_us"]
    t512 = next(
        r for r in threshold_sweep.rows if r["size"] == KiB(128) and r["threshold"] == KiB(512)
    )["time_us"]
    # with threshold 32K the 128K message goes rendezvous (wire-bound, ~130µs);
    # with threshold 512K it goes eager (copy-bound, ~170µs at 0.75GiB/s)
    assert t32 != pytest.approx(t512, rel=0.02), "threshold must change the protocol"


def test_bench_threshold_sweep(benchmark):
    benchmark(_transfer_time, KiB(64), KiB(32))
