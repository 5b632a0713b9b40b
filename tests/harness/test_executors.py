"""The execution module (``repro.harness.executors``).

Covers the one-field :class:`ExecutionConfig`, worker-count resolution,
the ``workers=1`` rule (a resolved count of 1, or a single task, never
creates a pool), the process-wide pool (shared across calls, replaced
after a worker dies, shut down cleanly at exit), spawn-safety rejection,
order preservation, serial/pool equivalence and seed derivation. The
heavier "byte-identical across worker counts" properties live in
``tests/property/test_prop_parallel.py``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.errors import HarnessError
from repro.harness.executors import (
    WORKERS_ENV,
    ExecutionConfig,
    _pool,
    derive_task_seeds,
    resolve_workers,
    run_grid,
    run_many,
    sweep,
)
from repro.harness.experiments import experiment_fig5

pytestmark = pytest.mark.perf

SERIAL = ExecutionConfig.serial()
POOL = ExecutionConfig.pool(2)


# -- top-level task functions (spawn workers import these by reference) --------


def _square(x: int) -> int:
    return x * x


def _describe(x: int, y: int = 0) -> str:
    return f"{x}:{y}"


def _metrics(a: int) -> dict[str, int]:
    return {"double": 2 * a}


def _seeded(label: str, seed: int = 0) -> tuple[str, int]:
    return (label, seed)


def _unseeded(label: str) -> str:
    return label


def _boom(x: int) -> int:
    raise ValueError(f"task {x} exploded")


def _die(x: int) -> int:
    os._exit(1)


TASKS = [{"x": i} for i in range(5)]
SQUARES = [0, 1, 4, 9, 16]


# -- ExecutionConfig -----------------------------------------------------------


class TestExecutionConfig:
    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == ["workers"]
        assert ExecutionConfig.serial().workers == 1
        assert ExecutionConfig.pool(3).workers == 3
        assert ExecutionConfig.pool().workers == 0
        assert ExecutionConfig.from_env() == ExecutionConfig()

    def test_validation(self):
        with pytest.raises(HarnessError, match="workers"):
            ExecutionConfig(workers=-1)

    def test_frozen(self):
        cfg = ExecutionConfig.pool(2)
        with pytest.raises(Exception):
            cfg.workers = 4  # type: ignore[misc]

    def test_from_env_reads_workers_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(ExecutionConfig.from_env().workers) == 3
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers(ExecutionConfig.from_env().workers) == 1


# -- resolve_workers -----------------------------------------------------------


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) >= 1

    def test_env_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers(None) >= 1

    def test_zero_counts_usable_cpus_not_host_cpus(self, monkeypatch):
        """A process pinned to one CPU gets one worker, whatever the host has."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(HarnessError, match="workers"):
            resolve_workers(-2)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(HarnessError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_negative_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-3")
        with pytest.raises(HarnessError, match=f"{WORKERS_ENV} must be >= 1.*-3"):
            resolve_workers(None)


# -- the workers=1 rule and the process-wide pool ------------------------------


class TestPool:
    def test_lazy_no_spawn_for_one_task(self):
        """One task stays in-process at any worker count."""
        before = _pool.cache_info()
        assert run_grid(_square, TASKS[:1], execution=ExecutionConfig.pool(4)) == [0]
        assert _pool.cache_info() == before

    def test_no_spawn_at_workers_one(self, monkeypatch):
        """The workers=1 rule, whichever way the count resolves to 1."""
        before = _pool.cache_info()
        assert run_grid(_square, TASKS, execution=ExecutionConfig.pool(1)) == SQUARES
        assert run_grid(_square, TASKS, execution=SERIAL) == SQUARES
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert run_grid(_square, TASKS) == SQUARES
        assert run_grid(_square, TASKS, execution=ExecutionConfig.from_env()) == SQUARES
        monkeypatch.delenv(WORKERS_ENV)
        assert run_grid(_square, TASKS) == SQUARES
        assert _pool.cache_info() == before

    def test_pool_reused_across_calls(self):
        """Two calls at one worker count share one pool."""
        assert run_grid(_square, TASKS, execution=POOL) == SQUARES
        pool = _pool(2)
        misses = _pool.cache_info().misses
        assert run_grid(_square, TASKS, execution=POOL) == SQUARES
        assert _pool.cache_info().misses == misses
        assert _pool(2) is pool

    def test_pool_shared_across_entry_points(self):
        """run_grid, run_many and sweep at one worker count share one pool."""
        assert run_grid(_square, TASKS, execution=POOL) == SQUARES
        pool = _pool(2)
        misses = _pool.cache_info().misses
        assert run_many(_unseeded, ["x", "y"], execution=POOL) == ["x", "y"]
        assert sweep(_metrics, {"a": [1, 2]}, execution=POOL).column("double") == [2, 4]
        assert _pool.cache_info().misses == misses
        assert _pool(2) is pool

    def test_rejects_unspawnable(self):
        with pytest.raises(HarnessError, match="spawn-safe"):
            run_grid(lambda x: x, [{"x": 1}, {"x": 2}], execution=POOL)

    def test_dead_worker_breaks_one_call_only(self):
        with pytest.raises(BrokenProcessPool):
            run_grid(_die, [{"x": 1}, {"x": 2}], execution=POOL)
        assert run_grid(_square, TASKS, execution=POOL) == SQUARES

    def test_clean_interpreter_exit(self):
        """The cached pool is shut down at exit: no teardown noise on stderr."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.harness.executors import ExecutionConfig, derive_task_seeds, run_grid\n"
            "tasks = [{'root_seed': s, 'n': 2} for s in range(3)]\n"
            "print(run_grid(derive_task_seeds, tasks, execution=ExecutionConfig.pool(2))"
            " == [derive_task_seeds(**t) for t in tasks])\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
        assert proc.stderr == ""


# -- run_grid ------------------------------------------------------------------


class TestRunGrid:
    def test_serial_basic(self):
        assert run_grid(_square, TASKS, execution=SERIAL) == SQUARES

    def test_empty_tasks(self):
        assert run_grid(_square, [], execution=POOL) == []

    def test_parallel_matches_serial_and_preserves_order(self):
        tasks = [{"x": i, "y": i * 10} for i in range(8)]
        serial = run_grid(_describe, tasks, execution=SERIAL)
        pooled = run_grid(_describe, tasks, execution=POOL)
        assert serial == pooled == [f"{i}:{i * 10}" for i in range(8)]

    def test_pool_config_matches_serial(self):
        tasks = [{"x": i} for i in range(4)]
        serial = run_grid(_square, tasks, execution=SERIAL)
        assert run_grid(_square, tasks, execution=ExecutionConfig.pool(2)) == serial == [0, 1, 4, 9]

    def test_lambda_rejected_for_parallel(self):
        with pytest.raises(HarnessError, match="spawn"):
            run_grid(lambda x: x, [{"x": 1}, {"x": 2}], execution=POOL)

    def test_nested_function_rejected_for_parallel(self):
        def nested(x: int) -> int:
            return x

        with pytest.raises(HarnessError, match="spawn"):
            run_grid(nested, [{"x": 1}, {"x": 2}], execution=POOL)

    def test_lambda_fine_when_serial(self):
        assert run_grid(lambda x: x + 1, [{"x": 1}], execution=SERIAL) == [2]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            run_grid(_boom, [{"x": 1}, {"x": 2}], execution=POOL)

    def test_single_task_runs_in_process(self):
        """One task short-circuits to the caller's process even with workers>1,
        so a function no spawn worker could import still runs."""
        before = _pool.cache_info()
        assert run_grid(lambda x: x, [{"x": 3}], execution=ExecutionConfig.pool(4)) == [3]
        assert _pool.cache_info() == before


# -- run_many ------------------------------------------------------------------


class TestRunMany:
    def test_seeds_passed_to_seed_aware_fn(self):
        out = run_many(_seeded, ["a", "b", "c"], execution=SERIAL)
        labels = [label for label, _ in out]
        seeds = [seed for _, seed in out]
        assert labels == ["a", "b", "c"]
        assert len(set(seeds)) == 3, "each config draws a distinct seed"

    def test_seed_derivation_independent_of_workers(self):
        serial = run_many(_seeded, ["a", "b", "c", "d"], execution=SERIAL)
        pooled = run_many(_seeded, ["a", "b", "c", "d"], execution=POOL)
        assert serial == pooled

    def test_root_seed_changes_all_task_seeds(self):
        s0 = [s for _, s in run_many(_seeded, ["a", "b"], seed=0, execution=SERIAL)]
        s1 = [s for _, s in run_many(_seeded, ["a", "b"], seed=1, execution=SERIAL)]
        assert set(s0).isdisjoint(s1)

    def test_explicit_seeds(self):
        out = run_many(_seeded, ["a", "b"], seeds=[11, 22], execution=SERIAL)
        assert out == [("a", 11), ("b", 22)]

    def test_explicit_seeds_length_mismatch(self):
        with pytest.raises(HarnessError, match="seeds"):
            run_many(_seeded, ["a", "b"], seeds=[11], execution=SERIAL)

    def test_fn_without_seed_param(self):
        assert run_many(_unseeded, ["a", "b"], execution=SERIAL) == ["a", "b"]
        assert run_many(_unseeded, ["a", "b"], execution=POOL) == ["a", "b"]


# -- seed derivation -----------------------------------------------------------


class TestDeriveTaskSeeds:
    def test_deterministic(self):
        assert derive_task_seeds(0, 4) == derive_task_seeds(0, 4)

    def test_distinct_per_task_and_root(self):
        seeds = derive_task_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert set(seeds).isdisjoint(derive_task_seeds(1, 16))

    def test_prefix_stable(self):
        """Growing the task list must not reshuffle earlier seeds."""
        assert derive_task_seeds(7, 4) == derive_task_seeds(7, 8)[:4]

    def test_fits_in_64_bit_signed(self):
        assert all(0 <= s < 2**63 for s in derive_task_seeds(3, 32))


# -- the execution= keyword ----------------------------------------------------


class TestEntryPoints:
    def test_run_grid_execution_config(self):
        assert run_grid(_square, TASKS, execution=POOL) == SQUARES

    def test_sweep_execution(self):
        res = sweep(_metrics, {"a": [1, 2, 3]}, execution=SERIAL)
        assert res.column("double") == [2, 4, 6]

    def test_rows_identical_serial_vs_pool(self):
        serial = sweep(_metrics, {"a": [1, 2, 3, 4]}, execution=SERIAL)
        pooled = sweep(_metrics, {"a": [1, 2, 3, 4]}, execution=POOL)
        assert serial.rows == pooled.rows

    def test_execution_plus_legacy_kwargs_rejected(self):
        """``execution=`` is the only engine keyword; the old spellings are
        plain unknown arguments."""
        with pytest.raises(TypeError):
            run_grid(_square, TASKS, workers=2)
        with pytest.raises(TypeError):
            run_many(_square, [1], execution=SERIAL, workers=1)
        with pytest.raises(TypeError):
            sweep(_metrics, {"a": [1]}, executor=SERIAL)
        with pytest.raises(TypeError):
            experiment_fig5(iterations=1, workers=1)

    def test_execution_wrong_type_rejected(self):
        with pytest.raises(HarnessError, match="ExecutionConfig"):
            run_grid(_square, TASKS, execution="pool")  # type: ignore[arg-type]
