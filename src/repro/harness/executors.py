"""The execution surface: one config, one protocol, two engines.

The harness runs independent simulation tasks (grid points, seeds) and
has exactly one way to say how:

* :class:`ExecutionConfig` — a frozen, typed description of *how* to
  execute: ``serial`` (in-process loop) or ``pool`` (process-pool
  fan-out across tasks). Accepted by :func:`repro.harness.parallel.run_grid`,
  :func:`repro.harness.parallel.run_many`, :func:`repro.harness.sweep.sweep`
  and the ``experiment_*`` functions as the ``execution=`` keyword.
* :class:`Executor` — the tiny order-preserving protocol those entry
  points run on (:meth:`Executor.map_tasks`). Pass a long-lived instance
  (e.g. a :class:`PoolExecutor`) as ``execution=`` to amortize pool
  start-up across many calls.
* :func:`make_executor` — config → executor, where the resolution rules
  live.

The ``workers=1`` rule (the one place it is defined)
----------------------------------------------------
``BENCH_kernel.json`` records a 1-CPU pool *losing* to serial (0.745×):
a pool of one pays interpreter spawn and pickling for zero concurrency.
So worker counts resolve — explicit argument beats ``REPRO_BENCH_WORKERS``
beats 1, and ``0`` means one worker per CPU — and then:

* a resolved count of **1 never creates a pool**, whether it came from an
  explicit ``workers=1``, ``REPRO_BENCH_WORKERS=1``, or the default; it
  runs serial, in-process, with zero pickling;
* a pool is created **lazily**, only when a call actually has more than
  one task to fan out — a one-task grid stays in-process at any worker
  count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..errors import HarnessError

__all__ = [
    "EXECUTION_MODES",
    "ExecutionConfig",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
]

#: execution modes understood by :class:`ExecutionConfig`
EXECUTION_MODES = ("serial", "pool")


@dataclass(frozen=True)
class ExecutionConfig:
    """How to execute: the one typed knob shared by every entry point.

    ``mode``
        ``"serial"`` — in-process loop; ``"pool"`` — spawn-context process
        pool across independent tasks.
    ``workers``
        Pool-size request for ``pool`` mode; resolves through
        :func:`repro.harness.parallel.resolve_workers` (``None`` → env →
        1, ``0`` → all CPUs) at use time.
    """

    mode: str = "serial"
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise HarnessError(
                f"unknown execution mode {self.mode!r}; expected one of "
                f"{EXECUTION_MODES}"
            )
        if self.workers is not None and self.workers < 0:
            raise HarnessError(
                f"workers must be >= 0 (0 = all CPUs), got {self.workers}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def serial(cls) -> "ExecutionConfig":
        """Plain in-process execution."""
        return cls(mode="serial")

    @classmethod
    def pool(cls, workers: int = 0) -> "ExecutionConfig":
        """Process-pool fan-out (``workers=0`` = one per CPU)."""
        return cls(mode="pool", workers=workers)

    @classmethod
    def from_env(cls) -> "ExecutionConfig":
        """Honour ``REPRO_BENCH_WORKERS``: pool mode resolving through the
        environment (which still collapses to serial when it resolves
        to 1 — the ``workers=1`` rule)."""
        return cls(mode="pool", workers=None)

    # -- resolution ----------------------------------------------------------

    def resolved_workers(self) -> int:
        """The effective pool size (explicit > env > 1; 0 = all CPUs)."""
        from .parallel import resolve_workers

        return resolve_workers(self.workers)


# ---------------------------------------------------------------------------
# the protocol and its two engines


class Executor:
    """Order-preserving task mapper — the protocol behind every entry point.

    ``map_tasks(invoke, fn, tasks)`` returns ``[invoke(fn, t) for t in
    tasks]`` in task order, however it chooses to schedule them.
    Executors are context managers; :meth:`close` is idempotent and a
    no-op for stateless engines.
    """

    def map_tasks(
        self,
        invoke: Callable[[Callable[..., Any], Any], Any],
        fn: Callable[..., Any],
        tasks: Sequence[Any],
    ) -> list[Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """The in-process loop — zero overhead, the reference semantics."""

    def map_tasks(
        self,
        invoke: Callable[[Callable[..., Any], Any], Any],
        fn: Callable[..., Any],
        tasks: Sequence[Any],
    ) -> list[Any]:
        return [invoke(fn, task) for task in tasks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class PoolExecutor(Executor):
    """Spawn-context process pool, created lazily per the ``workers=1`` rule.

    The underlying ``ProcessPoolExecutor`` is built on the first
    :meth:`map_tasks` call that actually needs it (resolved workers > 1
    *and* more than one task) and is then reused until :meth:`close` —
    so a long-lived instance amortizes interpreter start-up across many
    grids.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Any = None

    def map_tasks(
        self,
        invoke: Callable[[Callable[..., Any], Any], Any],
        fn: Callable[..., Any],
        tasks: Sequence[Any],
    ) -> list[Any]:
        from .parallel import _check_spawnable, resolve_workers

        n_workers = resolve_workers(self.workers)
        if n_workers == 1 or len(tasks) <= 1:
            # the workers=1 rule: never pay spawn cost for zero concurrency
            return [invoke(fn, task) for task in tasks]
        _check_spawnable(fn)
        pool = self._ensure_pool(n_workers)
        futures = [pool.submit(invoke, fn, task) for task in tasks]
        # collect in submission order — identical row order to the serial loop
        return [f.result() for f in futures]

    def _ensure_pool(self, n_workers: int) -> Any:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            self._pool = ProcessPoolExecutor(
                max_workers=n_workers, mp_context=get_context("spawn")
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._pool is not None else "lazy"
        return f"PoolExecutor(workers={self.workers!r}, {state})"


def make_executor(execution: Optional[ExecutionConfig] = None) -> Executor:
    """Resolve an :class:`ExecutionConfig` into a live :class:`Executor`.

    ``None`` behaves like :meth:`ExecutionConfig.from_env`. Pool mode
    collapses to :class:`SerialExecutor` when the resolved worker count
    is 1 — the ``workers=1`` rule, applied in exactly one place.
    """
    cfg = execution if execution is not None else ExecutionConfig.from_env()
    if cfg.mode == "serial" or cfg.resolved_workers() == 1:
        return SerialExecutor()
    return PoolExecutor(cfg.workers)
