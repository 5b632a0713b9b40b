"""Message path: end-to-end messages/sec, one packet per send vs aggregation.

Feeds ``BENCH_msgpath.json`` (checked in at the repo root, uploaded by the
CI perf-smoke job — see ``docs/performance.md``). Two workloads run through
two optimizer strategies:

* **eager storm** — bursts of 1 KiB isends (the fig5 small-message regime),
  where per-packet software overhead dominates;
* **mixed eager/rdv** — alternating 1 KiB and 64 KiB messages, so the
  rendezvous handshake and TX-chunk paths are on the clock too.

The strategies:

* ``default`` — one wire packet per request;
* ``aggreg`` — the aggregation strategy with a 5 µs deferred flush window
  riding the PIOMan progression machinery. Fewer, fatter packets; virtual
  time legitimately differs.

Trials are interleaved across strategies and the best of each is
compared (stable ratios on noisy shared runners). The record starts with
the shared ``BENCH_*.json`` header (host and commit).

Run as a script (CI uses ``--quick``)::

    python benchmarks/bench_msgpath.py [--quick] [--json PATH]

or under pytest for the smoke assertions (``pytest -m perf`` lane).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

import pytest

from repro.config import EngineKind
from repro.harness.report import bench_header
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

EAGER_MSG = KiB(1)
RDV_MSG = KiB(64)

#: strategy name -> strategy kwargs
CONFIGS: dict[str, dict[str, Any] | None] = {
    "default": None,
    "aggreg": {"flush_window_us": 5.0},
}


def _run_workload(strategy: str, sizes: tuple[int, ...], rounds: int, burst: int):
    """Burst-synchronised message stream; returns (wall_seconds, virtual_end_us).

    The sender bursts ``burst`` isends per round then waits for all; the
    receiver pre-posts each round. Message sizes cycle through ``sizes``.
    """
    rt = ClusterRuntime.build(
        engine=EngineKind.PIOMAN, strategy=strategy, strategy_kwargs=CONFIGS[strategy]
    )

    def sender(ctx):
        nm = ctx.env["nm"]
        for _ in range(rounds):
            reqs = []
            for i in range(burst):
                req = yield from nm.isend(ctx, 1, i, sizes[i % len(sizes)])
                reqs.append(req)
            yield from nm.wait_all(ctx, reqs)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for _ in range(rounds):
            reqs = []
            for i in range(burst):
                req = yield from nm.irecv(ctx, 0, i, sizes[i % len(sizes)])
                reqs.append(req)
            yield from nm.wait_all(ctx, reqs)

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    t0 = time.perf_counter()
    end = rt.run()
    wall = time.perf_counter() - t0
    return wall, end


def measure_workload(
    sizes: tuple[int, ...], rounds: int, burst: int, trials: int
) -> dict[str, Any]:
    """Best-of-``trials`` messages/sec per strategy, trials interleaved.

    Asserts inline that each strategy's virtual end time is identical
    across trials (the simulation is deterministic).
    """
    best = {name: float("inf") for name in CONFIGS}
    ends: dict[str, float] = {}
    for _ in range(trials):
        for name in CONFIGS:
            wall, end = _run_workload(name, sizes, rounds, burst)
            best[name] = min(best[name], wall)
            prev = ends.setdefault(name, end)
            assert prev == end, f"{name}: virtual end moved between trials"
    msgs = rounds * burst
    mps = {name: msgs / best[name] for name in CONFIGS}
    return {
        "messages": msgs,
        "rounds": rounds,
        "burst": burst,
        "sizes": list(sizes),
        "trials": trials,
        "msgs_per_sec": {name: round(rate) for name, rate in mps.items()},
        "virtual_end_us": {name: round(end, 3) for name, end in ends.items()},
        "speedup_aggreg_vs_default": round(mps["aggreg"] / mps["default"], 3),
    }


def run_bench(quick: bool = False) -> dict[str, Any]:
    rounds, burst, trials = (4, 16, 3) if quick else (16, 32, 5)
    return {
        **bench_header("msgpath", 2, quick),
        "eager_storm": measure_workload((EAGER_MSG,), rounds, burst, trials),
        "mixed_eager_rdv": measure_workload(
            (EAGER_MSG, RDV_MSG), rounds, max(burst // 2, 4), trials
        ),
    }


# -- pytest smoke (perf lane) --------------------------------------------------


@pytest.mark.perf
def test_aggreg_not_slower_than_default():
    """Aggregation must at least match one packet per send on the eager
    storm (very generous margin for noisy shared runners; the recorded
    trajectory in BENCH_msgpath.json carries the real figure)."""
    result = measure_workload((EAGER_MSG,), rounds=4, burst=16, trials=3)
    assert result["speedup_aggreg_vs_default"] >= 1.0, f"aggregation regressed: {result}"


def test_bench_msgpath(benchmark):
    benchmark(_run_workload, "aggreg", (EAGER_MSG,), 2, 8)


# -- script entry point --------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-smoke sizes")
    parser.add_argument("--json", metavar="PATH", default=None, help="write results JSON to PATH")
    args = parser.parse_args(argv)
    result = run_bench(quick=args.quick)
    print(json.dumps(result, indent=2))
    for workload in ("eager_storm", "mixed_eager_rdv"):
        w = result[workload]
        rates = " | ".join(f"{n} {r:,} msg/s" for n, r in w["msgs_per_sec"].items())
        print(f"\n{workload} ({w['messages']} msgs): {rates}", file=sys.stderr)
        print(f"  aggreg vs default: {w['speedup_aggreg_vs_default']}x", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
