"""Overlap across interconnects: MX-like vs Verbs/IB-like vs TCP-like,
plus multi-job interference on modeled switch topologies.

§3.1: "NEWMADELEINE+PIOMAN already supports a large spectrum of network
technologies: Myrinet, Infiniband, QsNet, and TCP." The engine-level gain
(sum → max) must hold regardless of the driver underneath; only the
constants move. This bench runs the Fig. 4 loop over the MX-like, Verbs/
IB-like, and TCP-like drivers.

The second half measures what the drivers *cannot* show: two jobs sharing
a modeled fat-tree uplink. Each job runs an open-loop Poisson flow; the
isolated run gives the baseline latency distribution, the shared run adds
the neighbour, and the p99 ratio quantifies the interference the per-link
contention model produces. On the contention-free ``direct`` model the
ratio stays ~1 (the control).

Run as a script (CI uses ``--quick``)::

    python benchmarks/bench_interconnects.py [--quick] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

import pytest

from repro.apps.traffic import FixedSize, OpenLoop, PoissonArrivals
from repro.config import EngineKind
from repro.harness.multijob import JobSpec, run_multi_job
from repro.harness.report import bench_header, format_table
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

SIZE = KiB(16)
COMPUTE = 60.0
ITERS = 10


def _sender_time(engine: str, interconnect: str) -> float:
    rt = ClusterRuntime.build(engine=engine, interconnect=interconnect)
    out = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        times = []
        for i in range(ITERS):
            t0 = ctx.now
            req = yield from nm.isend(ctx, 1, 0, SIZE, payload=i, buffer_id="b")
            yield ctx.compute(COMPUTE)
            yield from nm.swait(ctx, req)
            if i >= 2:
                times.append(ctx.now - t0)
        out["mean"] = sum(times) / len(times)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in range(ITERS):
            req = yield from nm.irecv(ctx, 0, 0, SIZE, buffer_id="r")
            yield ctx.compute(COMPUTE)
            yield from nm.rwait(ctx, req)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    rt.run()
    return out["mean"]


@pytest.fixture(scope="module")
def grid():
    return {
        (net, engine): _sender_time(engine, net)
        for net in ("mx", "ib", "tcp")
        for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
    }


def test_interconnect_report(grid, print_report):
    body = format_table(
        ["interconnect", "sequential (µs)", "pioman (µs)", "gain"],
        [
            (
                net,
                f"{grid[(net, EngineKind.SEQUENTIAL)]:.1f}",
                f"{grid[(net, EngineKind.PIOMAN)]:.1f}",
                f"{(1 - grid[(net, EngineKind.PIOMAN)] / grid[(net, EngineKind.SEQUENTIAL)]) * 100:.0f}%",
            )
            for net in ("mx", "ib", "tcp")
        ],
        title=f"isend({SIZE}B)+compute({COMPUTE:.0f}µs)+swait sender time",
    )
    print_report("Engine gain across interconnects", body)


def test_pioman_wins_on_both_networks(grid):
    for net in ("mx", "ib", "tcp"):
        assert grid[(net, EngineKind.PIOMAN)] < grid[(net, EngineKind.SEQUENTIAL)], net


def test_pioman_reaches_compute_bound_on_both(grid):
    """With compute(60µs) > submission cost, offloading should push the
    sender to (near) the compute bound on both interconnects."""
    for net in ("mx", "ib", "tcp"):
        assert grid[(net, EngineKind.PIOMAN)] == pytest.approx(COMPUTE, abs=6.0), net


def test_tcp_baseline_pays_syscalls(grid):
    """The TCP baseline path adds kernel-crossing costs on top of the copy,
    so its inline submission is costlier than MX's."""
    assert grid[("tcp", EngineKind.SEQUENTIAL)] > grid[("mx", EngineKind.SEQUENTIAL)]


def test_bench_interconnect(benchmark):
    benchmark(_sender_time, EngineKind.PIOMAN, "tcp")


# --------------------------------------------------- multi-job interference

#: two cross-pod flows that share the pod-0 edge→agg uplink on FatTree(4)
#: (both destinations are even, so both routes pick aggregation switch 0)
_FLOW_A = (0, 8)
_FLOW_B = (1, 10)


def _interference_point(
    topology: str, *, messages: int, mean_gap_us: float, seed: int
) -> dict:
    """Isolated vs shared percentiles for job A on one topology."""
    wl = OpenLoop(PoissonArrivals(mean_gap_us), FixedSize(KiB(16)), messages)
    job_a = JobSpec("A", (_FLOW_A,), wl)
    job_b = JobSpec("B", (_FLOW_B,), wl)
    iso = run_multi_job([job_a], nodes=12, topology=topology, seed=seed)
    shared = run_multi_job([job_a, job_b], nodes=12, topology=topology, seed=seed)
    a_iso, a_sh = iso.job("A"), shared.job("A")
    return {
        "isolated": a_iso.summary(),
        "shared": a_sh.summary(),
        "neighbour": shared.job("B").summary(),
        "p50_ratio": round(a_sh.p50_us / a_iso.p50_us, 3),
        "p99_ratio": round(a_sh.p99_us / a_iso.p99_us, 3),
        "fabric_queued_us": round(
            shared.fabric.get("mx0.queued_us", 0.0), 3
        ),
    }


def run_bench(quick: bool = False) -> dict:
    """The BENCH_topo payload: interference across interconnect models."""
    messages = 40 if quick else 150
    params = {"messages": messages, "mean_gap_us": 25.0, "seed": 5}
    return {
        **bench_header("topo", 2, quick),
        "params": {
            "flows": {"A": list(_FLOW_A), "B": list(_FLOW_B)},
            "size_bytes": KiB(16),
            **params,
        },
        "topologies": {
            topo: _interference_point(topo, **params)
            for topo in ("direct", "fattree:4", "dragonfly:4,2,2")
        },
    }


@pytest.fixture(scope="module")
def interference():
    return run_bench(quick=True)


@pytest.mark.topo
def test_interference_report(interference, print_report):
    rows = [
        (
            topo,
            f"{point['isolated']['p99_us']:.1f}",
            f"{point['shared']['p99_us']:.1f}",
            f"{point['p99_ratio']:.2f}x",
        )
        for topo, point in interference["topologies"].items()
    ]
    body = format_table(
        ["topology", "isolated p99 (µs)", "shared p99 (µs)", "degradation"],
        rows,
        title="job A one-way latency, alone vs sharing the fabric with job B",
    )
    print_report("Multi-job interference across interconnect models", body)


@pytest.mark.topo
def test_fattree_interference_degrades_p99(interference):
    """Acceptance: sharing a fat-tree uplink visibly degrades job A's p99."""
    point = interference["topologies"]["fattree:4"]
    assert point["p99_ratio"] > 1.05
    assert point["fabric_queued_us"] > 0


@pytest.mark.topo
def test_direct_is_the_control(interference):
    """Distinct destinations on the direct model: no shared link, no
    interference beyond noise."""
    point = interference["topologies"]["direct"]
    assert point["p99_ratio"] == pytest.approx(1.0, abs=0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-smoke sizes")
    parser.add_argument("--json", metavar="PATH", default=None, help="write results JSON to PATH")
    args = parser.parse_args(argv)
    result = run_bench(quick=args.quick)
    print(json.dumps(result, indent=2))
    for topo, point in result["topologies"].items():
        print(
            f"{topo}: isolated p99 {point['isolated']['p99_us']:.1f}µs | "
            f"shared p99 {point['shared']['p99_us']:.1f}µs | "
            f"x{point['p99_ratio']}",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
