"""Ablation (§5 future work): adaptive offload decision.

"There are still investigations to be done on an adaptive strategy to
choose whether to offload communication or not." The trade-off the paper
hints at (§2.2 "this method may increase the latency"):

* under an **overlap workload** (compute after isend) offloading hides the
  submission copy — deferral wins, and costs the sender nothing;
* for **raw one-way latency** (no compute) deferral only adds the ≈2 µs
  inter-CPU dispatch before the copy even starts — inline wins.

The adaptive policy (offload only when an idle core exists *and* the copy
cost amortizes the dispatch) keeps the overlap wins while avoiding wasted
dispatches for tiny messages, where potential savings can never exceed the
overhead.
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.report import format_table
from repro.harness.runner import ClusterRuntime
from repro.units import KiB, fmt_size

SIZES = (256, KiB(1), KiB(4), KiB(16), KiB(32))
COMPUTE = 20.0
POLICIES = ("always", "never", "adaptive")


def _overlap_time(size: int, policy: str) -> float:
    """Sender time of the Fig. 4 loop (isend + compute + swait)."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=policy)
    out = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        times = []
        for i in range(12):
            t0 = ctx.now
            req = yield from nm.isend(ctx, 1, 0, size, payload=i, buffer_id="b")
            yield ctx.compute(COMPUTE)
            yield from nm.swait(ctx, req)
            if i >= 3:
                times.append(ctx.now - t0)
        out["mean"] = sum(times) / len(times)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in range(12):
            req = yield from nm.irecv(ctx, 0, 0, size, buffer_id="r")
            yield ctx.compute(COMPUTE)
            yield from nm.rwait(ctx, req)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    rt.run()
    return out["mean"]


def _one_way_latency(size: int, policy: str) -> float:
    """Delivery latency: isend on node 0 (no compute, no immediate wait —
    the sender sleeps, so any inline-at-wait fallback is excluded) until
    the pre-posted receive completes on node 1."""
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy=policy)
    out = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, size, buffer_id="b")
        yield ctx.sleep(500.0)
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, size, buffer_id="r")
        yield from nm.rwait(ctx, req)
        out["latency"] = ctx.now

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    rt.run()
    return out["latency"]


def _policy_rows(fn) -> list[dict]:
    """size × policy grid, fanned out over $REPRO_BENCH_WORKERS."""
    tasks = [{"size": s, "policy": p} for s in SIZES for p in POLICIES]
    times = run_grid(fn, tasks, execution=ExecutionConfig.from_env())
    return [
        {
            "size": s,
            **{p: times[i * len(POLICIES) + j] for j, p in enumerate(POLICIES)},
        }
        for i, s in enumerate(SIZES)
    ]


@pytest.fixture(scope="module")
def overlap_rows():
    return _policy_rows(_overlap_time)


@pytest.fixture(scope="module")
def latency_rows():
    return _policy_rows(_one_way_latency)


def _table(rows, title):
    return format_table(
        ["size"] + [f"{p} (µs)" for p in POLICIES],
        [
            (fmt_size(r["size"]), *(f"{r[p]:.1f}" for p in POLICIES))
            for r in rows
        ],
        title=title,
    )


def test_adaptive_report(overlap_rows, latency_rows, print_report):
    body = (
        _table(overlap_rows, f"overlap workload: isend+compute({COMPUTE:.0f}µs)+swait sender time")
        + "\n\n"
        + _table(latency_rows, "one-way delivery latency, no computation")
    )
    print_report("Ablation: adaptive offload policy (§5)", body)


def test_overlap_offload_wins_for_costly_copies(overlap_rows):
    big = overlap_rows[-1]
    assert big["always"] < big["never"] - 5.0, "offload must hide the 32K copy"


def test_overlap_adaptive_tracks_always(overlap_rows):
    for r in overlap_rows[2:]:  # sizes where copy > dispatch
        assert r["adaptive"] == pytest.approx(r["always"], abs=1.0)


def test_latency_inline_wins_for_tiny(latency_rows):
    tiny = latency_rows[0]
    # the 2µs dispatch is pure loss on a 256B message's latency
    assert tiny["never"] < tiny["always"] - 1.0


def test_latency_adaptive_avoids_wasted_dispatch(latency_rows):
    tiny = latency_rows[0]
    assert tiny["adaptive"] == pytest.approx(tiny["never"], abs=0.5)


def test_adaptive_never_catastrophic(overlap_rows, latency_rows):
    """Adaptive stays within a bounded distance of the per-cell winner."""
    for r in overlap_rows + latency_rows:
        best = min(r["always"], r["never"])
        assert r["adaptive"] <= best + 3.0, f"adaptive off-track: {r}"


def test_policy_statistics_exposed():
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy="adaptive")
    pol = rt.node(0).engine.offload_policy
    assert pol.name == "adaptive"

    def sender(ctx):
        nm = ctx.env["nm"]
        r1 = yield from nm.isend(ctx, 1, 0, 256)  # tiny → inline
        r2 = yield from nm.isend(ctx, 1, 1, KiB(32))  # big → offload
        yield from nm.wait_all(ctx, [r1, r2])

    def receiver(ctx):
        nm = ctx.env["nm"]
        yield from nm.recv(ctx, 0, 0, KiB(32))
        yield from nm.recv(ctx, 0, 1, KiB(32))

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    assert pol.inlines >= 1
    assert pol.offloads >= 1


def test_unknown_policy_rejected():
    from repro.errors import HarnessError

    with pytest.raises(HarnessError, match="unknown offload policy"):
        ClusterRuntime.build(engine=EngineKind.PIOMAN, offload_policy="psychic")


def test_policy_on_sequential_engine_rejected():
    from repro.errors import HarnessError

    with pytest.raises(HarnessError, match="only applies"):
        ClusterRuntime.build(engine=EngineKind.SEQUENTIAL, offload_policy="always")


def test_bench_adaptive(benchmark):
    benchmark(_overlap_time, KiB(8), "adaptive")
