"""The multicore sweep execution layer (``repro.harness.parallel``).

Covers worker-count resolution, spawn-safety rejection, order
preservation, serial/parallel equivalence, seed derivation, and executor
reuse. The heavier "byte-identical across worker counts" properties live
in ``tests/property/test_prop_parallel.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import HarnessError
from repro.harness.executors import ExecutionConfig, PoolExecutor
from repro.harness.parallel import (
    WORKERS_ENV,
    derive_task_seeds,
    resolve_workers,
    run_grid,
    run_many,
)

pytestmark = pytest.mark.perf

SERIAL = ExecutionConfig.serial()


@pytest.fixture(scope="module")
def pool():
    # one shared spawn pool: worker start-up (~1s each, numpy import)
    # would otherwise dominate every parallel-path test here
    with PoolExecutor(workers=2) as executor:
        yield executor


# -- top-level task functions (spawn workers import these by reference) --------


def _square(x: int) -> int:
    return x * x


def _describe(x: int, y: int = 0) -> str:
    return f"{x}:{y}"


def _seeded(label: str, seed: int = 0) -> tuple[str, int]:
    return (label, seed)


def _unseeded(label: str) -> str:
    return label


def _boom(x: int) -> int:
    raise ValueError(f"task {x} exploded")


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

    def test_negative_rejected(self):
        with pytest.raises(HarnessError, match="workers"):
            resolve_workers(-2)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(HarnessError, match=WORKERS_ENV):
            resolve_workers(None)


# -- run_grid ------------------------------------------------------------------


class TestRunGrid:
    def test_serial_basic(self):
        assert run_grid(_square, [{"x": i} for i in range(5)], execution=SERIAL) == [
            0, 1, 4, 9, 16,
        ]

    def test_empty_tasks(self):
        assert run_grid(_square, [], execution=ExecutionConfig.pool(2)) == []

    def test_parallel_matches_serial_and_preserves_order(self, pool):
        tasks = [{"x": i, "y": i * 10} for i in range(8)]
        serial = run_grid(_describe, tasks, execution=SERIAL)
        parallel = run_grid(_describe, tasks, execution=pool)
        assert serial == parallel == [f"{i}:{i * 10}" for i in range(8)]

    def test_own_pool_path_matches_serial(self):
        """A pool config (not a live executor) spins up (and tears down) its
        own spawn pool — exercise that path once."""
        tasks = [{"x": i} for i in range(4)]
        assert run_grid(_square, tasks, execution=ExecutionConfig.pool(2)) == [0, 1, 4, 9]

    def test_lambda_rejected_for_parallel(self):
        with pytest.raises(HarnessError, match="spawn"):
            run_grid(lambda x: x, [{"x": 1}, {"x": 2}], execution=ExecutionConfig.pool(2))

    def test_nested_function_rejected_for_parallel(self):
        def nested(x: int) -> int:
            return x

        with pytest.raises(HarnessError, match="spawn"):
            run_grid(nested, [{"x": 1}, {"x": 2}], execution=ExecutionConfig.pool(2))

    def test_lambda_fine_when_serial(self):
        assert run_grid(lambda x: x + 1, [{"x": 1}], execution=SERIAL) == [2]

    def test_worker_exception_propagates(self, pool):
        with pytest.raises(ValueError, match="exploded"):
            run_grid(_boom, [{"x": 1}, {"x": 2}], execution=pool)

    def test_single_task_runs_in_process(self):
        # one task short-circuits to the serial path even with workers>1
        assert run_grid(lambda x: x, [{"x": 3}], execution=ExecutionConfig.pool(4)) == [3]


# -- run_many ------------------------------------------------------------------


class TestRunMany:
    def test_seeds_passed_to_seed_aware_fn(self):
        out = run_many(_seeded, ["a", "b", "c"], execution=SERIAL)
        labels = [label for label, _ in out]
        seeds = [seed for _, seed in out]
        assert labels == ["a", "b", "c"]
        assert len(set(seeds)) == 3, "each config draws a distinct seed"

    def test_seed_derivation_independent_of_workers(self, pool):
        serial = run_many(_seeded, ["a", "b", "c", "d"], execution=SERIAL)
        parallel = run_many(_seeded, ["a", "b", "c", "d"], execution=pool)
        assert serial == parallel

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

    def test_fn_without_seed_param(self, pool):
        assert run_many(_unseeded, ["a", "b"], execution=SERIAL) == ["a", "b"]
        assert run_many(_unseeded, ["a", "b"], execution=pool) == ["a", "b"]


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


# -- executor reuse ------------------------------------------------------------


def test_pool_executor_reused_across_calls(pool):
    a = run_grid(_square, [{"x": i} for i in range(4)], execution=pool)
    b = run_many(_unseeded, ["x", "y"], execution=pool)
    assert a == [0, 1, 4, 9]
    assert b == ["x", "y"]
