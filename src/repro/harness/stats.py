"""Latency statistics collection and summary.

A :class:`LatencyCollector` listens on a session's ``on_request_complete``
channel and records post-to-completion latencies; :meth:`summary` reports
count/mean/percentiles, the numbers a communication-engine evaluation
quotes beyond simple means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import HarnessError
from ..nmad.core import NmSession
from ..nmad.request import NmRequest

__all__ = ["LatencySummary", "LatencyCollector"]


@dataclass(frozen=True)
class LatencySummary:
    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float

    def format(self) -> str:
        return (
            f"n={self.count} mean={self.mean_us:.1f}µs p50={self.p50_us:.1f}µs "
            f"p95={self.p95_us:.1f}µs p99={self.p99_us:.1f}µs max={self.max_us:.1f}µs"
        )


class LatencyCollector:
    """Record per-request latencies of one session.

    Parameters
    ----------
    session:
        The session to observe.
    kind:
        ``"recv"`` (default — delivery latency), ``"send"`` or ``"both"``.
    tag:
        Optional tag filter.
    """

    def __init__(self, session: NmSession, kind: str = "recv", tag: Optional[int] = None) -> None:
        if kind not in ("recv", "send", "both"):
            raise HarnessError(f"kind must be recv/send/both, got {kind!r}")
        self.session = session
        self.kind = kind
        self.tag = tag
        self.latencies_us: list[float] = []
        session.on_request_complete.append(self._on_complete)

    def detach(self) -> None:
        """Stop observing the session (idempotent). A collector that is
        rebuilt per experiment run must detach first, or the session keeps
        feeding every old instance — growing lists, skewed percentiles.
        Recorded latencies stay available after detaching."""
        try:
            self.session.on_request_complete.remove(self._on_complete)
        except ValueError:
            pass

    def __enter__(self) -> "LatencyCollector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def _on_complete(self, req: NmRequest) -> None:
        if self.kind != "both" and req.kind != self.kind:
            return
        if self.tag is not None and req.tag != self.tag:
            return
        self.latencies_us.append(req.latency())

    def __len__(self) -> int:
        return len(self.latencies_us)

    def summary(self) -> LatencySummary:
        if not self.latencies_us:
            raise HarnessError("no completed requests recorded")
        arr = np.asarray(self.latencies_us)
        return LatencySummary(
            count=int(arr.size),
            mean_us=float(arr.mean()),
            p50_us=float(np.percentile(arr, 50)),
            p95_us=float(np.percentile(arr, 95)),
            p99_us=float(np.percentile(arr, 99)),
            max_us=float(arr.max()),
        )
