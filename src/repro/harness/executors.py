"""Execution of independent simulation tasks: serially or over a process pool.

The paper hands independent work to idle cores; the harness does the same
for its own sweeps. Every grid point of a sweep or replication study
builds its own :class:`~repro.harness.runner.ClusterRuntime` and returns
scalars, so :func:`run_grid`, :func:`run_many` and :func:`sweep` can map
them over worker processes with the exact semantics of the serial loop.

How to execute is one knob, :class:`ExecutionConfig` (a worker count),
taken as ``execution=`` by every entry point here and by the
``experiment_*`` functions; ``None`` reads ``REPRO_BENCH_WORKERS``.

* **The workers=1 rule.** A call whose count resolves to 1, or that has
  at most one task, runs as an in-process loop and never creates a pool
  (an early ``BENCH_kernel.json`` recorded a 1-CPU pool at 0.745× serial).
* **The process-wide pool.** Otherwise the tasks go to a spawn-context
  pool kept per worker count for the life of the process: the first call
  at a count pays the worker start-up, later calls reuse the workers, and
  the pool is shut down at exit. When a worker dies the call raises
  ``BrokenProcessPool`` and the cached pools are dropped, so the next
  call starts fresh workers.
* **Determinism.** Results come back in task order, and per-task seeds
  are derived from the root seed and the task index, so a pool of any
  size returns byte-identical results to the serial loop.
* **Spawn safety.** Spawn workers import the task function by reference,
  so it must be a module-level function; a lambda or closure is rejected
  with a :class:`~repro.errors.HarnessError` before any pickling.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import itertools
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import HarnessError
from ..sim.rng import RngStreams
from .report import format_table

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "WORKERS_ENV",
    "ExecutionConfig",
    "SweepResult",
    "derive_task_seeds",
    "resolve_workers",
    "run_grid",
    "run_many",
    "sweep",
]

#: environment variable consulted when ``workers=None`` — lets CI and the
#: benchmark suite switch every sweep to multicore without touching code
WORKERS_ENV = "REPRO_BENCH_WORKERS"


@dataclass(frozen=True)
class ExecutionConfig:
    """How many worker processes to map tasks over.

    ``workers`` resolves through :func:`resolve_workers` at use time:
    ``None`` → ``REPRO_BENCH_WORKERS`` → 1, and ``0`` → one per usable CPU.
    """

    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise HarnessError(
                f"workers must be >= 0 (0 = all CPUs), got {self.workers}"
            )

    @classmethod
    def serial(cls) -> ExecutionConfig:
        """Plain in-process execution."""
        return cls(workers=1)

    @classmethod
    def pool(cls, workers: int = 0) -> ExecutionConfig:
        """Process-pool fan-out (``workers=0`` = one per usable CPU)."""
        return cls(workers=workers)

    @classmethod
    def from_env(cls) -> ExecutionConfig:
        """Honour ``REPRO_BENCH_WORKERS`` (unset → serial)."""
        return cls(workers=None)


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_BENCH_WORKERS`` > 1.

    ``0`` (from either source) means one worker per CPU this process may
    run on — its affinity mask where the platform has one.
    """
    source = "workers"
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
        source = WORKERS_ENV
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise HarnessError(f"{source} must be >= 1 (or 0 = all CPUs), got {workers}")
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


def _check_spawnable(fn: Callable[..., Any]) -> None:
    """Reject callables that cannot be pickled by reference under spawn."""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None or getattr(fn, "__module__", None) is None or "<" in qualname:
        raise HarnessError(
            f"task function {qualname or repr(fn)} is not spawn-safe: parallel "
            "workers import it by module path, so it must be a top-level "
            "function of an importable module (not a lambda, closure, or "
            "locally defined function). Define it at module level, or run serially."
        )


@functools.cache
def _pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide spawn pool of ``workers`` workers, shut down at exit."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
    atexit.register(pool.shutdown)
    return pool


def _map(
    invoke: Callable[[Callable[..., Any], Any], Any],
    fn: Callable[..., Any],
    tasks: Sequence[Any],
    execution: ExecutionConfig | None,
) -> list[Any]:
    """``[invoke(fn, task) for task in tasks]``, in task order, serially or
    on the process-wide pool."""
    if execution is None:
        execution = ExecutionConfig.from_env()
    elif not isinstance(execution, ExecutionConfig):
        raise HarnessError(
            "execution= must be an ExecutionConfig or None, got "
            f"{type(execution).__name__}"
        )
    workers = resolve_workers(execution.workers)
    if workers == 1 or len(tasks) <= 1:
        return [invoke(fn, task) for task in tasks]
    _check_spawnable(fn)
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_pool(workers).map(functools.partial(invoke, fn), tasks))
    except BrokenProcessPool:
        _pool.cache_clear()
        raise


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


def run_grid(
    fn: Callable[..., Any],
    tasks: Sequence[Mapping[str, Any]],
    *,
    execution: ExecutionConfig | None = None,
) -> list[Any]:
    """Run ``fn(**task)`` for every kwargs-mapping in ``tasks``.

    Returns one result per task, **in task order**, at any worker count.
    ``execution=None`` means ``REPRO_BENCH_WORKERS``, else serial.
    """
    return _map(_invoke_kwargs, fn, [dict(t) for t in tasks], execution)


def run_many(
    fn: Callable[..., Any],
    configs: Iterable[Any],
    *,
    seeds: Sequence[int] | None = None,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[Any]:
    """Run ``fn(config)`` (or ``fn(config, seed=...)``) per config.

    The replication counterpart of :func:`run_grid`. When ``fn`` accepts a
    ``seed`` keyword it receives ``seeds[i]``, or else a seed derived from
    ``seed`` (the root) and the task index via :func:`derive_task_seeds` —
    the same wherever the task runs. Results come back in config order.
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
        for config, task_seed in zip(config_list, seed_list, strict=True)
    ]
    return _map(_invoke_config_seed, fn, tasks, execution)


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


@dataclass
class SweepResult:
    """Rows of (params, metrics) produced by :func:`sweep`."""

    param_names: list[str]
    metric_names: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def column(self, name: str) -> list[Any]:
        if name not in self.param_names and name not in self.metric_names:
            raise HarnessError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def best(self, metric: str, minimize: bool = True) -> dict[str, Any]:
        if not self.rows:
            raise HarnessError("empty sweep")
        if minimize:
            return min(self.rows, key=lambda r: r[metric])
        return max(self.rows, key=lambda r: r[metric])

    def format(self, title: str = "") -> str:
        headers = self.param_names + self.metric_names
        body = [
            [f"{row[h]:.2f}" if isinstance(row[h], float) else str(row[h]) for h in headers]
            for row in self.rows
        ]
        return format_table(headers, body, title=title)


def sweep(
    fn: Callable[..., Mapping[str, Any]],
    grid: Mapping[str, Sequence[Any]],
    *,
    execution: ExecutionConfig | None = None,
) -> SweepResult:
    """Run ``fn(**params)`` for every combination in ``grid``.

    ``fn`` returns a mapping of scalar metrics; the result holds one row
    per combination, parameters and metrics merged, in Cartesian-product
    order at any worker count. A combination that drops or invents a
    metric key raises :class:`HarnessError` naming it.
    """
    if not grid:
        raise HarnessError("sweep needs at least one parameter")
    names = list(grid.keys())
    combos = [
        dict(zip(names, values, strict=True))
        for values in itertools.product(*(grid[n] for n in names))
    ]
    metric_rows = run_grid(fn, combos, execution=execution)
    result: SweepResult | None = None
    for params, metrics in zip(combos, metric_rows, strict=True):
        metrics = dict(metrics)
        if result is None:
            result = SweepResult(param_names=names, metric_names=list(metrics.keys()))
        elif set(metrics.keys()) != set(result.metric_names):
            raise HarnessError(
                f"sweep metrics mismatch at {params}: got {sorted(metrics)}, "
                f"expected {sorted(result.metric_names)} (every grid point "
                "must return the same metric keys)"
            )
        result.rows.append({**params, **metrics})
    assert result is not None
    return result
