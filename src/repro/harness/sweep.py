"""Generic parameter sweeps for ablation studies.

A sweep runs a callable over a parameter grid and collects scalar metrics;
the ablation benchmarks use it for threshold/strategy/core-count studies.
With a pool engine the grid points run on worker processes (see
:mod:`repro.harness.parallel`) — rows come back byte-identical to the
serial run, in the same Cartesian-product order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import HarnessError
from .parallel import ExecutionLike, run_grid
from .report import format_table

__all__ = ["SweepResult", "sweep"]


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
        key = min if minimize else max
        return key(self.rows, key=lambda r: r[metric])

    def format(self, title: str = "") -> str:
        headers = self.param_names + self.metric_names
        body = []
        for row in self.rows:
            body.append(
                [
                    f"{row[h]:.2f}" if isinstance(row[h], float) else str(row[h])
                    for h in headers
                ]
            )
        return format_table(headers, body, title=title)


def sweep(
    fn: Callable[..., Mapping[str, Any]],
    grid: Mapping[str, Sequence[Any]],
    *,
    execution: ExecutionLike = None,
) -> SweepResult:
    """Run ``fn(**params)`` for every combination in ``grid``.

    ``fn`` returns a mapping of scalar metrics; the result holds one row
    per combination with parameters and metrics merged. Every combination
    must return the same metric keys — a combo that drops or invents a
    metric raises :class:`HarnessError` naming it, instead of surfacing
    later as a bare ``KeyError`` in :meth:`SweepResult.format`.

    ``execution=`` selects the engine (an
    :class:`~repro.harness.executors.ExecutionConfig` or a reusable
    :class:`~repro.harness.executors.Executor`); with a pool the grid
    points fan out over spawn-context workers and ``fn`` must be a
    module-level function — see :mod:`repro.harness.parallel`. Row order
    and content are identical at any worker count.
    """
    if not grid:
        raise HarnessError("sweep needs at least one parameter")
    names = list(grid.keys())
    combos = [
        dict(zip(names, values))
        for values in itertools.product(*(grid[n] for n in names))
    ]
    metric_rows = run_grid(fn, combos, execution=execution)
    result: SweepResult | None = None
    for params, metrics in zip(combos, metric_rows):
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
