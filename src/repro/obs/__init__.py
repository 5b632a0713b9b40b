"""Unified metrics & observability (`repro.obs`).

The subsystem has three parts, all **free of simulated time**: recording a
metric never charges an execution context and never schedules a kernel
event, so a run with metrics enabled produces a trace byte-identical to
the same run with metrics disabled (asserted by
``benchmarks/bench_metrics_overhead.py``).

* :class:`MetricsRegistry` — fixed-bucket histograms (p50/p95/p99, the
  per-node request latencies), plus pull-style *collectors* that route the
  pre-existing ad-hoc instrumentation (``NmSession.stats``, PIOMan activation counters,
  scheduler timelines, driver submit/rx counts, fault-injector counters)
  through one namespace;
* :class:`TimeSeriesSampler` — samples the registry on the simulated
  clock by piggybacking on the event loop (no events of its own);
* exporters — JSON snapshot, Prometheus-style text, CSV time series, and
  a merged run report that folds in the ``harness/traceviz`` chrome trace.

``ClusterRuntime.build`` wires a registry automatically (see
``docs/metrics.md``); ``repro metrics`` / ``--metrics <path>`` expose it
from the CLI.
"""

from .export import (
    build_run_report,
    snapshot_to_json,
    snapshot_to_prometheus,
    timeseries_to_csv,
    write_run_report,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from .sampler import TimeSeriesSampler

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "TimeSeriesSampler",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "timeseries_to_csv",
    "build_run_report",
    "write_run_report",
]
