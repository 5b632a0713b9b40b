"""Property tests: parallel execution is invisible in the results.

The determinism contract of ``repro.harness.executors`` — a pool
produces byte-identical results to the serial loop — checked with
hypothesis-generated grids, replication sets, and traced per-seed
workloads, through the ``execution=`` keyword. Every example maps over
the same process-wide 4-worker pool, so worker start-up is paid once.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import irregular_phases
from repro.config import EngineKind
from repro.harness.executors import ExecutionConfig, run_many, sweep
from repro.harness.runner import ClusterRuntime
from repro.sim.tracing import Tracer
from repro.units import KiB

pytestmark = pytest.mark.perf

_EXECUTOR_SETTINGS = settings(max_examples=8, deadline=None)

# the pool is stateless between tasks, so sharing it cannot leak
# information from one example into the next
POOL = ExecutionConfig.pool(4)
SERIAL = ExecutionConfig.serial()


# -- task functions (top-level: spawn workers import them by reference) --------


def _grid_point(a: int, b: int) -> dict[str, int]:
    return {"sum": a + b, "prod": a * b}


def _overlap_metric(size: int, compute_us: float) -> dict[str, float]:
    from repro.apps.overlap import OverlapConfig, run_overlap

    res = run_overlap(
        OverlapConfig(
            engine=EngineKind.PIOMAN, size=size, compute_us=compute_us, iterations=6
        )
    )
    return {"time_us": res.per_iteration_us}


def _traced_phase_digest(n_phases: int, seed: int = 0) -> str:
    """Run a traced irregular-phases workload and hash its trace shape.

    The seed drives the workload's compute bursts and message sizes, so the
    digest is a tight fingerprint of the entire execution: if parallel
    dispatch perturbed seeding or event order in any way, digests diverge.
    """
    phases = irregular_phases(n_phases, seed=seed)
    tracer = Tracer()
    rt = ClusterRuntime.build(engine=EngineKind.PIOMAN, tracer=tracer)

    def sender(ctx):
        nm = ctx.env["nm"]
        for i, phase in enumerate(phases):
            req = yield from nm.isend(ctx, 1, i, phase.msg_size, payload=i)
            yield ctx.compute(phase.compute_us)
            yield from nm.swait(ctx, req)

    def receiver(ctx):
        nm = ctx.env["nm"]
        for i in range(len(phases)):
            yield from nm.recv(ctx, 0, i, KiB(32))

    rt.spawn(0, sender, name="S")
    rt.spawn(1, receiver, name="R")
    end = rt.run()
    shape = [(t, c, w) for t, c, w, _label in tracer.signature()]
    digest = hashlib.blake2b(repr((end, shape)).encode(), digest_size=16)
    return digest.hexdigest()


# -- properties ----------------------------------------------------------------


@_EXECUTOR_SETTINGS
@given(
    a_vals=st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True),
    b_vals=st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True),
)
def test_sweep_rows_identical_serial_vs_parallel(a_vals, b_vals):
    serial = sweep(_grid_point, {"a": a_vals, "b": b_vals}, execution=SERIAL)
    parallel = sweep(_grid_point, {"a": a_vals, "b": b_vals}, execution=POOL)
    assert serial.rows == parallel.rows
    assert serial.param_names == parallel.param_names
    assert serial.metric_names == parallel.metric_names


@_EXECUTOR_SETTINGS
@given(
    sizes=st.lists(
        st.sampled_from([KiB(1), KiB(4), KiB(16), KiB(64)]),
        min_size=1, max_size=2, unique=True,
    ),
    compute=st.sampled_from([0.0, 15.0, 45.0]),
)
def test_simulation_sweep_rows_identical(sizes, compute):
    """Same property on real simulator workloads instead of arithmetic."""
    grid = {"size": sizes, "compute_us": [compute]}
    serial = sweep(_overlap_metric, grid, execution=SERIAL)
    parallel = sweep(_overlap_metric, grid, execution=POOL)
    assert serial.rows == parallel.rows


@_EXECUTOR_SETTINGS
@given(
    configs=st.lists(st.integers(2, 6), min_size=1, max_size=4),
    root_seed=st.integers(0, 2**32 - 1),
)
def test_run_many_metrics_identical_serial_vs_parallel(configs, root_seed):
    serial = run_many(
        _traced_phase_digest, configs, seed=root_seed, execution=SERIAL
    )
    parallel = run_many(_traced_phase_digest, configs, seed=root_seed, execution=POOL)
    assert serial == parallel


@_EXECUTOR_SETTINGS
@given(seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True))
def test_per_seed_traces_identical_serial_vs_parallel(seeds):
    """Explicit per-seed replication: the full trace digest of each seeded
    workload must not depend on where the task ran."""
    serial = run_many(
        _traced_phase_digest, [3] * len(seeds), seeds=seeds,
        execution=SERIAL,
    )
    parallel = run_many(
        _traced_phase_digest, [3] * len(seeds), seeds=seeds, execution=POOL
    )
    assert serial == parallel


def test_distinct_seeds_give_distinct_traces():
    """Sanity for the digest itself: different seeds actually change the
    workload (otherwise the equivalence properties above would be vacuous)."""
    assert _traced_phase_digest(4, seed=1) != _traced_phase_digest(4, seed=2)
