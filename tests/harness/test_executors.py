"""The execution surface: config, engines, and the ``execution=`` keyword.

Pins the ``workers=1`` rule (a resolved count of 1 never creates a
pool), the engine-selection rules in :func:`make_executor`, and the
``execution=`` keyword as the only way to choose an engine on every
harness entry point.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import HarnessError
from repro.harness.executors import (
    EXECUTION_MODES,
    ExecutionConfig,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.experiments import experiment_fig5
from repro.harness.parallel import WORKERS_ENV, run_grid, run_many
from repro.harness.sweep import sweep

pytestmark = pytest.mark.perf


# top-level task functions: spawn workers import them by reference
def _square(x: int) -> int:
    return x * x


def _metrics(a: int) -> dict[str, int]:
    return {"double": 2 * a}


TASKS = [{"x": i} for i in range(5)]
SQUARES = [0, 1, 4, 9, 16]


class TestExecutionConfig:
    def test_modes(self):
        assert EXECUTION_MODES == ("serial", "pool")
        assert ExecutionConfig().mode == "serial"
        assert ExecutionConfig.pool(3).workers == 3
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == ["mode", "workers"]

    def test_validation(self):
        with pytest.raises(HarnessError, match="mode"):
            ExecutionConfig(mode="bogus")
        with pytest.raises(HarnessError, match="workers"):
            ExecutionConfig(workers=-1)

    def test_frozen(self):
        cfg = ExecutionConfig.pool(2)
        with pytest.raises(Exception):
            cfg.workers = 4  # type: ignore[misc]

    def test_from_env_reads_workers_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert ExecutionConfig.from_env().resolved_workers() == 3
        monkeypatch.delenv(WORKERS_ENV)
        assert ExecutionConfig.from_env().resolved_workers() == 1


class TestMakeExecutor:
    def test_serial(self):
        assert isinstance(make_executor(ExecutionConfig.serial()), SerialExecutor)

    def test_pool_of_one_collapses_to_serial(self):
        """The workers=1 rule: a resolved count of 1 never creates a pool."""
        assert isinstance(make_executor(ExecutionConfig.pool(1)), SerialExecutor)

    def test_env_of_one_collapses_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(ExecutionConfig.from_env()), SerialExecutor)

    def test_pool(self):
        exe = make_executor(ExecutionConfig.pool(2))
        assert isinstance(exe, PoolExecutor)
        exe.close()


class TestPoolExecutor:
    def test_lazy_no_spawn_for_one_task(self):
        """One task stays in-process at any worker count."""
        with PoolExecutor(workers=4) as exe:
            out = run_grid(_square, TASKS[:1], execution=exe)
            assert out == [0]
            assert exe._pool is None

    def test_no_spawn_at_workers_one(self):
        with PoolExecutor(workers=1) as exe:
            assert run_grid(_square, TASKS, execution=exe) == SQUARES
            assert exe._pool is None

    def test_pool_reused_across_calls(self):
        with PoolExecutor(workers=2) as exe:
            a = run_grid(_square, TASKS, execution=exe)
            pool = exe._pool
            assert pool is not None
            b = run_many(lambda c: c, ["x", "y"], execution=SerialExecutor())
            c = run_grid(_square, TASKS, execution=exe)
            assert exe._pool is pool
            assert a == c == SQUARES
            assert b == ["x", "y"]
        assert exe._pool is None  # close() shut it down

    def test_rejects_unspawnable(self):
        with PoolExecutor(workers=2) as exe:
            with pytest.raises(HarnessError, match="spawn-safe"):
                run_grid(lambda x: x, [{"x": 1}, {"x": 2}], execution=exe)


class TestEntryPoints:
    def test_run_grid_execution_config(self):
        assert run_grid(_square, TASKS, execution=ExecutionConfig.pool(2)) == SQUARES

    def test_sweep_execution(self):
        res = sweep(_metrics, {"a": [1, 2, 3]}, execution=ExecutionConfig.serial())
        assert res.column("double") == [2, 4, 6]

    def test_rows_identical_serial_vs_pool(self):
        serial = sweep(_metrics, {"a": [1, 2, 3, 4]}, execution=ExecutionConfig.serial())
        pooled = sweep(_metrics, {"a": [1, 2, 3, 4]}, execution=ExecutionConfig.pool(2))
        assert serial.rows == pooled.rows

    def test_execution_plus_legacy_kwargs_rejected(self):
        """``execution=`` is the only engine keyword; the old spellings are
        plain unknown arguments."""
        with pytest.raises(TypeError):
            run_grid(_square, TASKS, workers=2)
        with pytest.raises(TypeError):
            run_many(_square, [1], execution=ExecutionConfig.serial(), workers=1)
        with pytest.raises(TypeError):
            sweep(_metrics, {"a": [1]}, executor=SerialExecutor())
        with pytest.raises(TypeError):
            experiment_fig5(iterations=1, workers=1)

    def test_execution_wrong_type_rejected(self):
        with pytest.raises(HarnessError, match="ExecutionConfig"):
            run_grid(_square, TASKS, execution="pool")  # type: ignore[arg-type]
