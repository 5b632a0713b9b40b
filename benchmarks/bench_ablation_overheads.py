"""Ablation (§4.1): the 2 µs offload overhead decomposed.

"When the communication time becomes equal to the computation time, we
measure an overhead of 2µs due to the communication between CPUs and the
invocation of the tasklet that posts the request to the network interface."

This bench sweeps ``tasklet_remote_us`` (the inter-CPU signalling + tasklet
dispatch cost) and verifies that the measured crossover overhead of the
Fig. 5 experiment tracks it — i.e., the model attributes the overhead to
the mechanism the paper names.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import TimingModel
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.experiments import experiment_fig5
from repro.harness.report import format_table
from repro.units import KiB

REMOTE_COSTS = (0.5, 2.0, 4.0)


def _crossover_overhead(tasklet_remote_us: float) -> float:
    timing = TimingModel()
    timing = timing.replace(
        host=dataclasses.replace(timing.host, tasklet_remote_us=tasklet_remote_us)
    )
    fig = experiment_fig5(sizes=(KiB(8), KiB(16), KiB(32)), iterations=12, timing=timing)
    ref = fig.series["No computation (reference)"]
    piom = fig.series["copy offloading"]
    cross = fig.crossover_size()
    i = fig.x_values.index(cross)
    return piom[i] - max(ref[i], fig.compute_us)


@pytest.fixture(scope="module")
def overhead_rows():
    # one fig5 regeneration per cost point: fan out over $REPRO_BENCH_WORKERS
    overheads = run_grid(
        _crossover_overhead,
        [{"tasklet_remote_us": c} for c in REMOTE_COSTS],
        execution=ExecutionConfig.from_env(),
    )
    return list(zip(REMOTE_COSTS, overheads))


def test_overhead_report(overhead_rows, print_report):
    body = format_table(
        ["tasklet_remote_us", "measured crossover overhead (µs)"],
        [(f"{c:.1f}", f"{o:.2f}") for c, o in overhead_rows],
        title="Offload overhead vs inter-CPU/tasklet dispatch cost",
    )
    print_report("Ablation: the §4.1 2µs overhead", body)


def test_overhead_tracks_tasklet_cost(overhead_rows):
    """Doubling the dispatch cost must move the measured overhead."""
    overheads = [o for _c, o in overhead_rows]
    assert overheads == sorted(overheads), f"overhead should grow with cost: {overheads}"
    assert overheads[-1] - overheads[0] >= (REMOTE_COSTS[-1] - REMOTE_COSTS[0]) * 0.6, (
        "the crossover overhead must track the tasklet dispatch cost"
    )


def test_default_matches_paper_2us(overhead_rows):
    c, o = overhead_rows[1]
    assert c == 2.0
    assert 1.0 <= o <= 3.5, f"default configuration should measure ≈2µs, got {o:.2f}"


def test_bench_overheads(benchmark):
    benchmark(_crossover_overhead, 2.0)
