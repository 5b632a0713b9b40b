"""Communication/computation overlap with nonblocking collectives.

The paper's core claim is that a dedicated progression engine lets
communication advance while application threads compute. This bench lifts
that to collectives: it sweeps compute grain × message size and compares

* **blocking**:    ``allreduce`` … then compute — no overlap possible;
* **nonblocking**: ``iallreduce`` … compute … ``wait`` — PIOMan's idle
  cores advance the schedule during the compute phase.

The sweep self-calibrates: it first times one blocking allreduce per
message size, then sets the compute grains to fractions of that measured
collective time, so the "full overlap" point (grain ≈ collective time)
lands in the right place on any timing model.

Runs two ways:

* ``python benchmarks/bench_nbc_overlap.py [--quick] [--json PATH]`` —
  prints the table and writes ``BENCH_nbc.json``;
* under pytest (``pytest benchmarks/bench_nbc_overlap.py``) — asserts the
  shape: nonblocking wins everywhere, and by ≥1.2× at the largest grain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.config import EngineKind
from repro.harness.report import bench_header, format_table
from repro.harness.runner import ClusterRuntime
from repro.mpi import MpiWorld
from repro.units import KiB

NODES = 4
ITERS = 4
GRAIN_FRACTIONS = (0.25, 0.5, 1.0)
SIZES = (KiB(8), KiB(64))  # one eager, one rendezvous
QUICK_SIZES = (KiB(8),)
QUICK_FRACTIONS = (1.0,)


def _run(payload_bytes: int, grain_us: float, iters: int, nonblocking: bool) -> float:
    """Slowest rank's total time for ``iters`` (collective + compute) steps."""
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, nodes=NODES, sockets=1, cores_per_socket=2
    )
    world = MpiWorld(rt)
    payload = bytes(payload_bytes)
    ends: dict[int, float] = {}

    def body(ctx):
        comm = ctx.env["comm"]
        for _ in range(iters):
            if nonblocking:
                req = yield from comm.iallreduce(ctx, payload, op=max)
                if grain_us:
                    yield ctx.compute(grain_us)
                yield from req.wait(ctx)
            else:
                yield from comm.allreduce(ctx, payload, op=max)
                if grain_us:
                    yield ctx.compute(grain_us)
        ends[comm.rank] = ctx.now

    world.spawn_all(body)
    rt.run()
    return max(ends.values())


def _calibrate(payload_bytes: int) -> float:
    """Measured per-iteration blocking allreduce time for this size."""
    return _run(payload_bytes, grain_us=0.0, iters=2, nonblocking=False) / 2


def sweep(quick: bool = False) -> dict[str, Any]:
    sizes = QUICK_SIZES if quick else SIZES
    fractions = QUICK_FRACTIONS if quick else GRAIN_FRACTIONS
    iters = 2 if quick else ITERS
    rows: list[dict[str, Any]] = []
    for size in sizes:
        t_coll = _calibrate(size)
        for frac in fractions:
            grain = frac * t_coll
            t_block = _run(size, grain, iters, nonblocking=False)
            t_nbc = _run(size, grain, iters, nonblocking=True)
            rows.append(
                {
                    "size_bytes": size,
                    "coll_us": round(t_coll, 3),
                    "grain_frac": frac,
                    "grain_us": round(grain, 3),
                    "t_blocking_us": round(t_block, 3),
                    "t_nonblocking_us": round(t_nbc, 3),
                    "speedup": round(t_block / t_nbc, 4),
                }
            )
    largest = [r for r in rows if r["grain_frac"] == max(fractions)]
    return {
        **bench_header("nbc_overlap", 2, quick),
        "engine": "pioman",
        "nodes": NODES,
        "iters": iters,
        "results": rows,
        "min_speedup_at_largest_grain": min(r["speedup"] for r in largest),
    }


def _table(report: dict[str, Any]) -> str:
    return format_table(
        ["size", "coll (µs)", "grain (µs)", "blocking (µs)", "iallreduce (µs)", "speedup"],
        [
            (
                f"{r['size_bytes'] // 1024}K",
                f"{r['coll_us']:.1f}",
                f"{r['grain_us']:.1f} ({r['grain_frac']:.2f}×)",
                f"{r['t_blocking_us']:.1f}",
                f"{r['t_nonblocking_us']:.1f}",
                f"{r['speedup']:.2f}×",
            )
            for r in report["results"]
        ],
        title="iallreduce+compute vs allreduce+compute (slowest rank, PIOMan)",
    )


# ------------------------------------------------------------------- pytest


@pytest.fixture(scope="module")
def overlap_report() -> dict[str, Any]:
    return sweep(quick=False)


def test_overlap_report(overlap_report, print_report):
    print_report("NBC overlap sweep", _table(overlap_report))


def test_nonblocking_never_loses(overlap_report):
    for r in overlap_report["results"]:
        assert r["speedup"] >= 1.0, f"nonblocking lost at {r}"


def test_overlap_at_least_1_2x_at_largest_grain(overlap_report):
    """With compute ≈ collective time, overlap must hide ≥ a fifth of the
    combined phase — the acceptance bar for the schedule engine."""
    assert overlap_report["min_speedup_at_largest_grain"] >= 1.2


# --------------------------------------------------------------------- main


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="single point, CI smoke")
    ap.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the report here (default: BENCH_nbc.json beside the repo "
        "root on full runs; skipped on --quick unless given)",
    )
    args = ap.parse_args(argv)
    report = sweep(quick=args.quick)
    print(_table(report))
    print(f"min speedup at largest grain: {report['min_speedup_at_largest_grain']:.2f}x")
    path = args.json
    if path is None and not args.quick:
        path = Path(__file__).resolve().parent.parent / "BENCH_nbc.json"
    if path is not None:
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    if report["min_speedup_at_largest_grain"] < 1.2:
        print("FAIL: overlap below 1.2x at the largest grain", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
