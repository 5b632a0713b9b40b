"""Multicore execution of independent simulation tasks.

The paper's whole argument is about exploiting idle cores — this module
applies the same idea to the reproduction's own measurement harness. A
parameter sweep or a replication study is embarrassingly parallel: every
grid point builds its own :class:`~repro.harness.runner.ClusterRuntime`,
runs it, and returns scalar metrics. :func:`run_grid` fans those tasks out
over a ``ProcessPoolExecutor`` while preserving the exact semantics of the
serial loop.

Determinism contract
--------------------
A pool of ``N`` workers produces **byte-identical** results to the serial
loop:

* every task is a pure function of its parameters (each builds a private
  simulator seeded from the run config, never from global state);
* results are collected in submission order, not completion order;
* per-task seeds are derived with :meth:`repro.sim.rng.RngStreams.derive_seed`
  from the root seed and the task index, so the seed a task sees does not
  depend on how many workers run it.

Spawn safety
------------
Workers are started with the ``spawn`` multiprocessing context (the only
start method that is safe and portable everywhere), so task functions are
pickled *by reference*: they must be importable module-level functions —
not lambdas, not closures, not methods of local classes. :func:`run_grid`
raises :class:`~repro.errors.HarnessError` with a pointed message when
handed a non-spawnable callable, instead of the cryptic pickling error the
executor would produce.

Worker count resolution: an explicit worker count wins; ``None``
falls back to the ``REPRO_BENCH_WORKERS`` environment variable (how the
benchmark suite and CI opt whole runs in), and finally to ``1`` (serial,
in-process — no executor is created at all). ``workers=0`` means one
worker per available CPU. A count that resolves to 1 **never** creates a
pool — the full rule lives in :mod:`repro.harness.executors`.

Execution surface
-----------------
``execution=`` chooses the engine: pass an
:class:`~repro.harness.executors.ExecutionConfig` (one-shot) or a
long-lived :class:`~repro.harness.executors.Executor` instance (reused
across calls, e.g. a :class:`~repro.harness.executors.PoolExecutor`).
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..errors import HarnessError
from ..sim.rng import RngStreams
from .executors import ExecutionConfig, Executor, make_executor

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "run_grid",
    "run_many",
    "derive_task_seeds",
]

#: type accepted by the ``execution=`` keyword everywhere
ExecutionLike = Union[ExecutionConfig, Executor, None]

#: environment variable consulted when ``workers=None`` — lets CI and the
#: benchmark suite switch every sweep to multicore without touching code
WORKERS_ENV = "REPRO_BENCH_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_BENCH_WORKERS`` > 1.

    ``0`` (from either source) means "one worker per available CPU".
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise HarnessError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 1:
        raise HarnessError(f"workers must be >= 1 (or 0 = all CPUs), got {workers}")
    return workers


def derive_task_seeds(root_seed: int, n: int, name: str = "task") -> list[int]:
    """``n`` independent per-task seeds derived from ``root_seed``.

    Uses the same BLAKE2 derivation as :class:`~repro.sim.rng.RngStreams`
    substreams, keyed by task index — so seeds depend only on
    ``(root_seed, index)``, never on worker count or scheduling order, and
    adding tasks at the end never perturbs earlier ones.
    """
    if n < 0:
        raise HarnessError(f"need n >= 0 seeds, got {n}")
    rng = RngStreams(root_seed)
    # % 2**63 keeps each value usable as another RngStreams root (>= 0)
    return [rng.derive_seed(f"{name}:{i}") % (2**63) for i in range(n)]


# -- internal fan-out core -----------------------------------------------------


def _check_spawnable(fn: Callable[..., Any]) -> None:
    """Reject callables that cannot be pickled by reference under spawn."""
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    name = qualname or repr(fn)
    if (
        qualname is None
        or module is None
        or "<lambda>" in qualname
        or "<locals>" in qualname
    ):
        raise HarnessError(
            f"task function {name} is not spawn-safe: parallel workers import "
            "it by module path, so it must be a top-level function of an "
            "importable module (not a lambda, closure, or locally defined "
            "function). Define it at module level, or run serially."
        )


def _invoke_kwargs(fn: Callable[..., Any], kwargs: dict[str, Any]) -> Any:
    """Worker-side trampoline for :func:`run_grid` (must be top-level)."""
    return fn(**kwargs)


def _invoke_config_seed(
    fn: Callable[..., Any], task: tuple[Any, int, bool]
) -> Any:
    """Worker-side trampoline for :func:`run_many` (must be top-level)."""
    config, seed, pass_seed = task
    if pass_seed:
        return fn(config, seed=seed)
    return fn(config)


def _fan_out(
    invoke: Callable[[Callable[..., Any], Any], Any],
    fn: Callable[..., Any],
    tasks: Sequence[Any],
    execution: ExecutionLike,
    api: str,
) -> list[Any]:
    """Run ``invoke(fn, task)`` for every task, preserving task order.

    ``execution`` is a config (a one-shot executor is built and closed
    here), a reusable executor, or ``None`` — the
    :meth:`~repro.harness.executors.ExecutionConfig.from_env` default.
    """
    if isinstance(execution, Executor):
        return execution.map_tasks(invoke, fn, tasks)
    if execution is not None and not isinstance(execution, ExecutionConfig):
        raise HarnessError(
            f"{api}: execution= must be an ExecutionConfig or an "
            f"Executor, got {type(execution).__name__}"
        )
    exe = make_executor(execution)
    try:
        return exe.map_tasks(invoke, fn, tasks)
    finally:
        exe.close()


# -- public entry points -------------------------------------------------------


def run_grid(
    fn: Callable[..., Any],
    tasks: Sequence[Mapping[str, Any]],
    *,
    execution: ExecutionLike = None,
) -> list[Any]:
    """Run ``fn(**task)`` for every kwargs-mapping in ``tasks``.

    Returns one result per task, **in task order**, regardless of worker
    count or completion order. ``execution=`` selects the engine: an
    :class:`~repro.harness.executors.ExecutionConfig` (one-shot) or a
    reusable :class:`~repro.harness.executors.Executor`; ``None`` means
    ``REPRO_BENCH_WORKERS``, else serial — a plain in-process loop with
    no pool and no pickling.
    """
    task_list = [dict(t) for t in tasks]
    return _fan_out(_invoke_kwargs, fn, task_list, execution, "run_grid")


def run_many(
    fn: Callable[..., Any],
    configs: Iterable[Any],
    *,
    seeds: Optional[Sequence[int]] = None,
    seed: int = 0,
    execution: ExecutionLike = None,
) -> list[Any]:
    """Run ``fn(config)`` (or ``fn(config, seed=...)``) per config.

    The replication counterpart of :func:`run_grid`: one task per config —
    e.g. one :class:`~repro.apps.overlap.OverlapConfig` per grid point, or
    the same config replicated across seeds. When ``fn`` accepts a ``seed``
    keyword it receives a per-task seed: ``seeds[i]`` when given
    explicitly, else derived from ``seed`` (the root) and the task index
    via :func:`derive_task_seeds` — identical whether the task runs
    in-process or on any worker.

    Results come back in config order; ``execution`` behaves as in
    :func:`run_grid`.
    """
    config_list = list(configs)
    if seeds is None:
        seed_list = derive_task_seeds(seed, len(config_list), name="run_many")
    else:
        seed_list = [int(s) for s in seeds]
        if len(seed_list) != len(config_list):
            raise HarnessError(
                f"run_many got {len(config_list)} configs but {len(seed_list)} seeds"
            )
    pass_seed = _accepts_seed(fn)
    tasks = [
        (config, task_seed, pass_seed)
        for config, task_seed in zip(config_list, seed_list)
    ]
    return _fan_out(_invoke_config_seed, fn, tasks, execution, "run_many")


def _accepts_seed(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` can be called with a ``seed`` keyword."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return False
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD or param.name == "seed":
            return True
    return False
