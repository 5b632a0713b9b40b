"""Latency statistics collection and summary.

A :class:`LatencyCollector` listens on a session's ``on_request_complete``
channel and records post-to-completion latencies; :meth:`summary` reports
count/mean/percentiles, the numbers a communication-engine evaluation
quotes beyond simple means.

:func:`mean` and :func:`percentile` are pure Python but follow numpy's
operation order (``np.mean``'s pairwise sum, ``np.percentile``'s linear
interpolation), so they return exactly numpy's floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import HarnessError
from ..nmad.core import NmSession
from ..nmad.request import NmRequest

__all__ = ["LatencySummary", "LatencyCollector", "mean", "percentile"]


def _pairwise_sum(xs: Sequence[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``xs[lo:lo + n]``: a plain loop under 8
    items, eight accumulators up to 128, else halves split on a multiple
    of 8."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += xs[i]
        return res
    if n <= 128:
        r = list(xs[lo : lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += xs[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += xs[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(xs, lo, n2) + _pairwise_sum(xs, lo + n2, n - n2)


def mean(xs: Sequence[float]) -> float:
    """``float(np.mean(xs))`` for a non-empty sequence of floats."""
    return (0.0 + _pairwise_sum(xs, 0, len(xs))) / len(xs)


def percentile(xs: Sequence[float], p: float) -> float:
    """``float(np.percentile(xs, p))`` (method ``"linear"``) for a non-empty
    sequence of floats and ``0 <= p <= 100``."""
    ordered = sorted(xs)
    n = len(ordered)
    index = (n - 1) * (p / 100)
    if index >= n - 1:
        return ordered[-1]
    below = int(index)
    t = index - below
    a, b = ordered[below], ordered[below + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


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
        xs = self.latencies_us
        return LatencySummary(
            count=len(xs),
            mean_us=mean(xs),
            p50_us=percentile(xs, 50),
            p95_us=percentile(xs, 95),
            p99_us=percentile(xs, 99),
            max_us=max(xs),
        )
