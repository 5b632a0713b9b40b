"""Ablation (§3.1 / [2]): NewMadeleine optimizer strategies.

The optimizer layer decides how pending requests become wire packets:

* **default** — one packet per request (FIFO);
* **aggreg** — coalesce pending small sends into one packet. This pays off
  exactly when submissions are *deferred* (the PIOMan work list batches a
  burst of isends before an idle core flushes them);
* **split** — stripe big eager messages over two rails (multirail).

The paper's future work ("executing NewMadeleine optimization algorithms
in background as PIOMan events") is this ablation's PIOMan+aggreg cell.
"""

from __future__ import annotations

import pytest

from repro.config import EngineKind
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.report import format_table
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

BURST = 8
MSG = KiB(1)


def _burst_run(
    engine: str,
    strategy: str,
    rails: int = 1,
    msg: int = MSG,
    burst: int = BURST,
    strategy_kwargs: dict | None = None,
):
    """One thread bursts `burst` isends then waits for all; the receiver
    pre-posts everything. Returns (elapsed, packets_on_wire)."""
    rt = ClusterRuntime.build(
        engine=engine, strategy=strategy, rails=rails, strategy_kwargs=strategy_kwargs
    )
    out = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        t0 = ctx.now
        reqs = []
        for i in range(burst):
            req = yield from nm.isend(ctx, 1, i, msg, payload=i)
            reqs.append(req)
        yield from nm.wait_all(ctx, reqs)
        out["elapsed"] = ctx.now - t0

    def receiver(ctx):
        nm = ctx.env["nm"]
        reqs = []
        for i in range(burst):
            req = yield from nm.irecv(ctx, 0, i, msg)
            reqs.append(req)
        yield from nm.wait_all(ctx, reqs)
        out["received"] = [r.data for r in reqs]

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    packets = sum(nic.tx_packets for nic in rt.node(0).nics)
    assert out["received"] == list(range(burst)), "payloads must survive aggregation"
    return out["elapsed"], packets


@pytest.fixture(scope="module")
def strategy_rows():
    # engine × strategy grid, fanned out over $REPRO_BENCH_WORKERS
    tasks = [
        {"engine": engine, "strategy": strategy}
        for engine in (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
        for strategy in ("default", "aggreg")
    ]
    # the deferred-flush window: gates stay open for 5 µs so PIOMan's idle
    # cores close batches instead of the send path flushing eagerly
    tasks.append(
        {
            "engine": EngineKind.PIOMAN,
            "strategy": "aggreg",
            "strategy_kwargs": {"flush_window_us": 5.0},
        }
    )
    results = run_grid(_burst_run, tasks, execution=ExecutionConfig.from_env())
    return [
        {**task, "elapsed": elapsed, "packets": packets}
        for task, (elapsed, packets) in zip(tasks, results)
    ]


def test_strategy_report(strategy_rows, print_report):
    body = format_table(
        ["engine", "strategy", "burst time (µs)", "wire packets"],
        [
            (
                r["engine"],
                r["strategy"] + ("+window" if r.get("strategy_kwargs") else ""),
                f"{r['elapsed']:.1f}",
                r["packets"],
            )
            for r in strategy_rows
        ],
        title=f"burst of {BURST} × {MSG}B isends",
    )
    print_report("Ablation: optimizer strategies (aggregation)", body)


def test_aggregation_reduces_packets_with_pioman(strategy_rows):
    """Deferred submission + aggregation ⇒ fewer wire packets."""
    piom_default = next(
        r for r in strategy_rows if r["engine"] == EngineKind.PIOMAN and r["strategy"] == "default"
    )
    piom_aggreg = next(
        r for r in strategy_rows if r["engine"] == EngineKind.PIOMAN and r["strategy"] == "aggreg"
    )
    assert piom_aggreg["packets"] < piom_default["packets"], (
        f"aggregation should coalesce the burst: {piom_aggreg['packets']} vs "
        f"{piom_default['packets']}"
    )


def test_flush_window_batches_at_least_as_well(strategy_rows):
    """Holding the gate open for a flush window can only widen batches:
    the windowed cell must coalesce at least as hard as eager-flush
    aggregation, and strictly below one packet per message."""
    plain = next(
        r
        for r in strategy_rows
        if r["engine"] == EngineKind.PIOMAN
        and r["strategy"] == "aggreg"
        and not r.get("strategy_kwargs")
    )
    windowed = next(r for r in strategy_rows if r.get("strategy_kwargs"))
    assert windowed["packets"] <= plain["packets"], (
        f"window must not fragment the burst: {windowed['packets']} vs {plain['packets']}"
    )
    assert windowed["packets"] < BURST


def test_sequential_engine_cannot_aggregate_much(strategy_rows):
    """Inline submission flushes each isend immediately — nothing pending
    to coalesce, so the baseline sends ≈ one packet per message."""
    seq_aggreg = next(
        r for r in strategy_rows if r["engine"] == EngineKind.SEQUENTIAL and r["strategy"] == "aggreg"
    )
    assert seq_aggreg["packets"] >= BURST, (
        "baseline flushes inline; aggregation should have nothing to batch"
    )


def test_multirail_split_uses_both_rails():
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, strategy="split", rails=2,
        strategy_kwargs={"split_threshold": KiB(4)},
    )
    done = {}

    def sender(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.isend(ctx, 1, 0, KiB(16), payload="striped")
        yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        req = yield from nm.irecv(ctx, 0, 0, KiB(16))
        yield from nm.rwait(ctx, req)
        done["data"] = req.data

    rt.spawn(0, sender)
    rt.spawn(1, receiver)
    rt.run()
    assert done["data"] == "striped"
    tx = [nic.tx_packets for nic in rt.node(0).nics]
    assert len(tx) == 2 and all(t >= 1 for t in tx), f"both rails must carry a chunk: {tx}"


def test_bench_strategies(benchmark):
    benchmark(_burst_run, EngineKind.PIOMAN, "aggreg")
