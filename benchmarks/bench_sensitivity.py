"""Calibration-sensitivity study: the reproduced shapes are not a point
artifact of the default constants.

The claim of the reproduction is structural: baseline = sum(comm, compute)
and PIOMan = max(comm, compute) + dispatch overhead. That must hold across
a grid of plausible host-copy and wire bandwidths — only the *position* of
the crossover may move. This bench sweeps both constants and re-asserts
the shapes at every grid point.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.overlap import OverlapConfig, run_overlap
from repro.config import EngineKind, TimingModel
from repro.harness.executors import ExecutionConfig, run_grid
from repro.harness.report import format_table
from repro.units import GiB_per_s, KiB

MEMCPY_BWS = (0.5, 0.75, 1.5)  # GiB/s
WIRE_BWS = (0.5, 1.0, 2.0)  # GiB/s
SIZE = KiB(16)
COMPUTE = 20.0


def _timing(memcpy_gib: float, wire_gib: float) -> TimingModel:
    t = TimingModel()
    return t.replace(
        host=dataclasses.replace(t.host, memcpy_bw=GiB_per_s(memcpy_gib)),
        nic=dataclasses.replace(t.nic, wire_bw=GiB_per_s(wire_gib)),
    )


def _triple(timing: TimingModel) -> tuple[float, float, float]:
    common = dict(size=SIZE, iterations=10, timing=timing)
    ref = run_overlap(OverlapConfig(engine=EngineKind.SEQUENTIAL, compute_us=0.0, **common)).per_iteration_us
    base = run_overlap(OverlapConfig(engine=EngineKind.SEQUENTIAL, compute_us=COMPUTE, **common)).per_iteration_us
    piom = run_overlap(OverlapConfig(engine=EngineKind.PIOMAN, compute_us=COMPUTE, **common)).per_iteration_us
    return ref, base, piom


def _cell(memcpy_gib: float, wire_gib: float) -> tuple[float, float, float]:
    """One calibration cell (top-level so parallel workers can import it)."""
    return _triple(_timing(memcpy_gib, wire_gib))


@pytest.fixture(scope="module")
def grid():
    # calibration grid, fanned out over $REPRO_BENCH_WORKERS (from_env)
    cells = [{"memcpy_gib": m, "wire_gib": w} for m in MEMCPY_BWS for w in WIRE_BWS]
    triples = run_grid(_cell, cells, execution=ExecutionConfig.from_env())
    return {
        (cell["memcpy_gib"], cell["wire_gib"]): triple
        for cell, triple in zip(cells, triples)
    }


def test_sensitivity_report(grid, print_report):
    rows = []
    for (m, w), (ref, base, piom) in sorted(grid.items()):
        rows.append(
            (f"{m:.2f}", f"{w:.2f}", f"{ref:.1f}", f"{base:.1f}", f"{piom:.1f}",
             "sum✓" if abs(base - (ref + COMPUTE)) < 0.15 * (ref + COMPUTE) else "×",
             "max✓" if abs(piom - max(ref, COMPUTE)) < 5.0 else "×")
        )
    body = format_table(
        ["memcpy GiB/s", "wire GiB/s", "ref (µs)", "baseline (µs)", "pioman (µs)", "sum?", "max?"],
        rows,
        title=f"{SIZE}B, compute {COMPUTE:.0f}µs, shapes across calibrations",
    )
    print_report("Sensitivity: shapes across calibration grid", body)


def test_sum_shape_holds_everywhere(grid):
    for (m, w), (ref, base, _p) in grid.items():
        assert base == pytest.approx(ref + COMPUTE, rel=0.15), f"sum broken at {m}/{w}"


def test_max_shape_holds_everywhere(grid):
    for (m, w), (ref, _b, piom) in grid.items():
        assert max(ref, COMPUTE) - 0.5 <= piom <= max(ref, COMPUTE) + 5.0, (
            f"max broken at {m}/{w}: {piom} vs max({ref}, {COMPUTE})"
        )


def test_pioman_never_loses(grid):
    for key, (_r, base, piom) in grid.items():
        assert piom <= base + 0.5, f"pioman lost at {key}"


def test_reference_moves_with_memcpy_speed(grid):
    """Faster host copies shrink the (copy-dominated) reference time."""
    slow = grid[(0.5, 1.0)][0]
    fast = grid[(1.5, 1.0)][0]
    assert fast < slow


def test_bench_sensitivity_point(benchmark):
    benchmark(_triple, _timing(0.75, 1.0))
