"""Experiment harness: cluster assembly, experiment runners, reports.

* :class:`~repro.harness.runner.ClusterRuntime` — builds a full simulated
  platform (NUMA machine + Marcel schedulers + NICs/fabric/SHM + NewMadeleine
  sessions + the chosen progression engine) and runs thread programs on it.
* :mod:`repro.harness.experiments` — the paper's experiments (Fig. 5,
  Fig. 6, Table 1) as parameterized functions returning structured results.
* :mod:`repro.harness.report` — table/series formatting and ASCII plots.
* :mod:`repro.harness.sweep` — generic parameter sweeps for ablations.
* :mod:`repro.harness.parallel` — multicore fan-out for sweeps and
  replications (``run_grid``/``run_many``, ``REPRO_BENCH_WORKERS``).
* :mod:`repro.harness.executors` — the unified execution surface:
  :class:`~repro.harness.executors.ExecutionConfig` and the
  :class:`~repro.harness.executors.Executor` protocol behind every entry
  point's ``execution=`` keyword (serial / pool).
"""

from .executors import (
    EXECUTION_MODES,
    ExecutionConfig,
    Executor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from .parallel import derive_task_seeds, resolve_workers, run_grid, run_many
from .report import ascii_plot, format_series_table, format_table
from .runner import ClusterRuntime, NodeRuntime
from .stats import LatencyCollector, LatencySummary
from .sweep import SweepResult, sweep
from .timeline import UtilizationReport, node_utilization, overlap_ratio, render_gantt
from .traceviz import chrome_trace_events, export_chrome_trace

_EXPERIMENT_EXPORTS = (
    "FigureResult",
    "Table1Result",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_table1",
    "FIG5_SIZES",
    "FIG6_SIZES",
    "TABLE1_CONFIGS",
)


def __getattr__(name: str):
    # experiments imports repro.apps, which imports this package's runner —
    # loading it lazily keeps `import repro.apps` cycle-free
    if name in _EXPERIMENT_EXPORTS:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClusterRuntime",
    "NodeRuntime",
    "format_table",
    "format_series_table",
    "ascii_plot",
    "FigureResult",
    "Table1Result",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_table1",
    "FIG5_SIZES",
    "FIG6_SIZES",
    "TABLE1_CONFIGS",
    "sweep",
    "SweepResult",
    "run_grid",
    "run_many",
    "ExecutionConfig",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
    "EXECUTION_MODES",
    "resolve_workers",
    "derive_task_seeds",
    "LatencyCollector",
    "LatencySummary",
    "node_utilization",
    "overlap_ratio",
    "render_gantt",
    "UtilizationReport",
    "chrome_trace_events",
    "export_chrome_trace",
]
