"""The metrics registry: histograms and collectors.

Design constraints, in order of importance:

1. **Zero simulated time.** Instruments only mutate plain Python state;
   they never charge an execution context and never touch the event
   queue. Metrics on/off cannot change a run's trace signature.
2. **Zero cost when disabled.** A disabled registry registers nothing
   and snapshots to ``{}``; the runtime asks it for no instrument.
3. **Pull beats push for pre-existing stats.** Subsystems that already
   keep ad-hoc counters (``NmSession.stats``, driver counters, scheduler
   timelines) are routed through the registry by *collectors* — callables
   consulted at snapshot/sample time — instead of rewriting every
   increment site. The one push-style instrument is the
   :class:`Histogram` (per-node request latencies).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from ..errors import ObsError

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: default histogram bucket upper bounds (µs), tuned for request latencies:
#: sub-µs posts up to multi-ms degraded-link recoveries.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0,
)


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket. Percentiles are
    estimated by linear interpolation inside the winning bucket (the
    Prometheus convention), clamped to the observed min/max so tiny
    sample counts do not report a bucket edge nobody hit.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds:
            raise ObsError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ObsError(f"histogram {name} bounds must be sorted: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"percentile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[i]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                frac = (rank - cumulative) / in_bucket
                est = lower + frac * (bound - lower)
                return min(max(est, self.min), self.max)
            cumulative += in_bucket
            lower = bound
        return self.max  # rank fell in the overflow bucket

    def snapshot(self) -> dict[str, float]:
        """Summary stats, flattened for the registry snapshot."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """Namespace of histograms plus pull-style collectors.

    Names are dotted paths (``n0.latency.recv_us``); asking twice for the
    same histogram name returns the same instrument.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._histograms: dict[str, Histogram] = {}
        #: (prefix, fn) pairs; fn() returns a flat name→value mapping
        self._collectors: list[tuple[str, Callable[[], Mapping[str, Any]]]] = []

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds or DEFAULT_LATENCY_BUCKETS)
        return h

    def register_collector(self, prefix: str, fn: Callable[[], Mapping[str, Any]]) -> None:
        """Pull ``fn()`` at snapshot time, prefixing its keys with
        ``prefix + "."``. No-op on a disabled registry."""
        if self.enabled:
            self._collectors.append((prefix, fn))

    def snapshot(self) -> dict[str, float]:
        """Flat, key-sorted view of every histogram and collector.

        Histograms expand to ``name.count`` / ``.mean`` / ``.p50`` /
        ``.p95`` / ``.p99`` / ``.min`` / ``.max``.
        """
        if not self.enabled:
            return {}
        out: dict[str, float] = {}
        for name, h in self._histograms.items():
            for stat, value in h.snapshot().items():
                out[f"{name}.{stat}"] = value
        for prefix, fn in self._collectors:
            for key, value in fn().items():
                out[f"{prefix}.{key}"] = value
        return dict(sorted(out.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MetricsRegistry {'on' if self.enabled else 'off'} "
            f"histograms={len(self._histograms)} collectors={len(self._collectors)}>"
        )
