"""Structured tracing and per-core timeline statistics.

The tracer records ``(time, category, where, label, data)`` tuples. It is
used for three purposes:

* debugging simulations (human-readable dump);
* computing per-core busy/idle intervals and utilization — the quantity the
  paper's offloading argument is about;
* regression tests: determinism is asserted by comparing full trace streams
  of two identically-configured runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from ..errors import SimulationError

__all__ = ["TraceRecord", "Tracer", "CoreTimeline"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    ``where`` identifies the location (usually a core name like ``n0.c3`` or
    a subsystem like ``wire``); ``category`` is a dotted event family
    (``marcel.switch``, ``pioman.poll``, ``nmad.submit`` …).
    """

    time: float
    category: str
    where: str
    label: str
    data: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.data:
            if k == key:
                return v
        return default

    def format(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.data)
        return f"[{self.time:12.3f}µs] {self.where:<10} {self.category:<22} {self.label} {extra}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries.

    ``enabled_categories`` filters at record time: ``None`` records
    everything, an empty set nothing. Category matching is by prefix, so
    enabling ``"pioman"`` records ``pioman.poll``, ``pioman.task`` etc.

    ``max_records`` bounds memory on long runs: when set, ``records``
    becomes a ring buffer keeping only the newest ``max_records`` entries
    (``total_recorded`` still counts everything, ``dropped_records`` the
    evictions). Determinism tests keep working on capped traces: two
    identical runs evict identically, so :meth:`signature` still matches.
    """

    def __init__(
        self,
        enabled_categories: Iterable[str] | None = None,
        max_records: int | None = None,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise SimulationError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.records: "deque[TraceRecord] | list[TraceRecord]" = (
            deque(maxlen=max_records) if max_records is not None else []
        )
        #: records ever seen (capped or not); evictions = total - len(records)
        self.total_recorded: int = 0
        self.enabled: tuple[str, ...] | None = (
            None if enabled_categories is None else tuple(enabled_categories)
        )
        #: optional live sink, e.g. ``print`` for interactive debugging
        self.sink: Callable[[TraceRecord], None] | None = None

    @property
    def dropped_records(self) -> int:
        """Entries evicted by the ``max_records`` ring buffer."""
        return self.total_recorded - len(self.records)

    def wants(self, category: str) -> bool:
        if self.enabled is None:
            return True
        return any(category.startswith(prefix) for prefix in self.enabled)

    def record(self, time: float, category: str, where: str, label: str, **data: Any) -> None:
        if not self.wants(category):
            return
        rec = TraceRecord(time, category, where, label, tuple(sorted(data.items())))
        self.records.append(rec)  # deque evicts the oldest when capped
        self.total_recorded += 1
        if self.sink is not None:
            self.sink(rec)

    # -- queries ----------------------------------------------------------------

    def filter(self, category: str = "", where: str = "") -> Iterator[TraceRecord]:
        """Iterate records whose category/where start with the given prefixes."""
        for rec in self.records:
            if rec.category.startswith(category) and rec.where.startswith(where):
                yield rec

    def count(self, category: str = "", where: str = "") -> int:
        return sum(1 for _ in self.filter(category, where))

    def dump(self, limit: int | None = None) -> str:
        recs: Iterable[TraceRecord] = (
            self.records if limit is None else islice(self.records, limit)
        )
        return "\n".join(r.format() for r in recs)

    def signature(self) -> tuple[tuple[float, str, str, str], ...]:
        """Hashable summary used by determinism tests."""
        return tuple((r.time, r.category, r.where, r.label) for r in self.records)


@dataclass
class CoreTimeline:
    """Busy/idle accounting for one core.

    Intervals are accumulated by the Marcel scheduler: ``busy`` when a user
    thread computes, ``service`` when PIOMan/tasklet work runs, ``idle``
    otherwise. An interval that starts where the last one ended, with the
    same kind, extends it (a long compute is one interval, not one per
    timer tick); the per-kind sums still add every span separately.
    """

    name: str
    busy_us: float = 0.0
    service_us: float = 0.0
    idle_us: float = 0.0
    intervals: list[tuple[float, float, str]] = field(default_factory=list)

    def add(self, start: float, end: float, kind: str) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        span = end - start
        if kind == "busy":
            self.busy_us += span
        elif kind == "service":
            self.service_us += span
        elif kind == "idle":
            self.idle_us += span
        else:
            raise ValueError(f"unknown interval kind {kind!r}")
        intervals = self.intervals
        if intervals:
            last = intervals[-1]
            if last[1] == start and last[2] == kind:
                intervals[-1] = (last[0], end, kind)
                return
        intervals.append((start, end, kind))

    @property
    def total_us(self) -> float:
        return self.busy_us + self.service_us + self.idle_us

    def utilization(self) -> float:
        """Fraction of accounted time spent on application compute."""
        total = self.total_us
        return self.busy_us / total if total > 0 else 0.0

    def service_fraction(self) -> float:
        """Fraction of accounted time spent on communication service work."""
        total = self.total_us
        return self.service_us / total if total > 0 else 0.0
