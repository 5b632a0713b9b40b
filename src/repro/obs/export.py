"""Exporters: JSON snapshot, Prometheus-style text, CSV time series.

All exporters are pure functions of already-collected data — they run
after the simulation (or between runs) and never touch virtual time.
``build_run_report`` merges the registry snapshot, the sampler series,
and the ``harness/traceviz`` chrome trace into a single JSON-serialisable
report so one file captures everything a run produced.
"""

from __future__ import annotations

import io
import json
import re
from typing import TYPE_CHECKING, Any, Mapping

from .sampler import TimeSeriesSampler

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.runner import ClusterRuntime

__all__ = [
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "timeseries_to_csv",
    "build_run_report",
    "write_run_report",
]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def snapshot_to_json(snapshot: Mapping[str, Any], *, indent: int | None = 2) -> str:
    """Serialise a flat registry snapshot to a JSON object string."""
    return json.dumps(dict(snapshot), indent=indent, sort_keys=True)


def _prom_name(key: str) -> str:
    """Map a dotted metric key to a legal Prometheus metric name."""
    name = _PROM_BAD.sub("_", key.replace(".", "_"))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def snapshot_to_prometheus(snapshot: Mapping[str, Any], *, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Dotted keys become underscore-separated names under ``prefix`` (e.g.
    ``n0.pioman.kicks`` → ``repro_n0_pioman_kicks``). Values that are not
    finite numbers are skipped.
    """
    lines: list[str] = []
    for key in sorted(snapshot):
        value = snapshot[key]
        try:
            number = float(value)
        except (TypeError, ValueError):
            continue
        name = f"{_prom_name(prefix)}_{_prom_name(key)}" if prefix else _prom_name(key)
        lines.append(f"# TYPE {name} untyped")
        lines.append(f"{name} {number:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_to_csv(sampler: TimeSeriesSampler, *, keys: list[str] | None = None) -> str:
    """Render sampler output as CSV: ``time_us`` plus one column per key.

    ``keys`` defaults to the union of keys across all samples (sorted), so
    metrics that appear mid-run get zero-filled early cells.
    """
    columns = keys if keys is not None else sampler.keys()
    buf = io.StringIO()
    buf.write(",".join(["time_us", *columns]) + "\n")
    for t, snap in sampler.samples:
        row = [f"{t:g}"] + [f"{snap.get(k, 0):g}" for k in columns]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def build_run_report(runtime: "ClusterRuntime") -> dict[str, Any]:
    """Merge everything a run produced into one JSON-serialisable dict.

    Sections: ``meta`` (virtual time, events fired, tick-chain boundaries
    and batches, run-aheads, node count),
    ``metrics`` (registry snapshot), ``timeseries`` (sampler samples, when
    a sampler is attached), and ``trace`` (chrome-trace events from
    ``harness/traceviz``, when tracing was enabled).
    """
    from ..harness.traceviz import chrome_trace_events  # local: avoid cycle

    report: dict[str, Any] = {
        "meta": {
            "time_us": runtime.sim.now,
            "events_fired": runtime.sim.events_fired,
            "chain_boundaries": runtime.sim.chain_boundaries,
            "chain_batches": runtime.sim.chain_batches,
            "run_aheads": runtime.sim.run_aheads,
            "nodes": len(runtime.nodes),
        },
        "metrics": runtime.metrics(),
    }
    sampler = getattr(runtime, "sampler", None)
    if sampler is not None and sampler.samples:
        report["timeseries"] = {
            "interval_us": sampler.interval_us,
            "dropped": sampler.dropped,
            "samples": [{"time_us": t, "values": snap} for t, snap in sampler.samples],
        }
    tracer = getattr(runtime, "tracer", None)
    if tracer is not None and getattr(tracer, "records", None):
        report["trace"] = chrome_trace_events(runtime)
    return report


def write_run_report(runtime: "ClusterRuntime", path: str) -> dict[str, Any]:
    """Write :func:`build_run_report` output to ``path`` as JSON; return it."""
    report = build_run_report(runtime)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
