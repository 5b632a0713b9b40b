"""Overlap across interconnects: MX-like vs Verbs/IB-like vs TCP-like.

§3.1: "NEWMADELEINE+PIOMAN already supports a large spectrum of network
technologies: Myrinet, Infiniband, QsNet, and TCP." The engine-level gain
(sum → max) must hold regardless of the driver underneath; only the
constants move. This bench runs the Fig. 4 loop over the one NIC driver
priced by the MX and the IB model (``repro.config.ib_nic_model``), and
over the TCP driver, which overrides only its socket costs.

Run with pytest (``-s`` prints the report table)::

    python -m pytest benchmarks/bench_interconnects.py -q
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.report import format_table
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
