"""Strategy interface and packet-plan data types."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ...errors import ProtocolError
from ..request import NmRequest

__all__ = ["SendEntry", "PacketPlan", "RailInfo", "Strategy", "stripe_by_bandwidth"]


@dataclass(frozen=True)
class RailInfo:
    """What a strategy may know about one rail (driver) of a gate."""

    index: int
    pio_threshold: int
    rdv_threshold: int
    bandwidth: float  # bytes/µs


def stripe_by_bandwidth(total: int, rails: Sequence[RailInfo]) -> list[int]:
    """Split ``total`` bytes across ``rails`` proportionally to bandwidth.

    Returns one share per rail, in rail order; the last rail absorbs the
    integer-division remainder so the shares always sum to ``total``. Shares
    may be zero (a rail with negligible relative bandwidth) — callers that
    cannot use empty shares filter them out. This is the splitting rule the
    multirail eager strategy has always used; the RDV planner stripes its
    data phase with the same arithmetic so both paths divide identically.
    """
    total_bw = sum(r.bandwidth for r in rails) or 1.0
    shares: list[int] = []
    consumed = 0
    for i, rail in enumerate(rails):
        if i == len(rails) - 1:
            length = total - consumed  # last rail absorbs remainder
        else:
            length = int(total * rail.bandwidth / total_bw)
        shares.append(length)
        consumed += length
    return shares


@dataclass(slots=True)
class SendEntry:
    """One request (or chunk of a request) inside a planned packet."""

    req: NmRequest
    offset: int
    length: int
    nchunks: int = 1

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ProtocolError(f"invalid chunk geometry {self.offset}+{self.length}")
        if self.offset + self.length > self.req.size:
            raise ProtocolError(
                f"chunk {self.offset}+{self.length} exceeds request size {self.req.size}"
            )


@dataclass(slots=True)
class PacketPlan:
    """A wire packet to build: which rail, which entries, which TX mode."""

    rail_index: int
    entries: list[SendEntry]
    mode: str  # "pio" | "eager"

    def payload_size(self) -> int:
        return sum(e.length for e in self.entries)

    def __post_init__(self) -> None:
        if self.mode not in ("pio", "eager"):
            raise ProtocolError(f"invalid plan mode {self.mode!r}")
        if not self.entries:
            raise ProtocolError("empty packet plan")


class Strategy:
    """Per-gate pending-send list + packet formation policy.

    Subclasses implement :meth:`take_plans`. ``push``/``pending_count`` are
    shared. A strategy only ever sees *eager-protocol* requests — the
    rendezvous path bypasses the optimizer (its packets are handshakes and
    zero-copy data, nothing to coalesce).
    """

    name = "base"

    def __init__(self) -> None:
        self._pending: deque[NmRequest] = deque()
        #: statistics
        self.flushes = 0
        self.packets_formed = 0

    def push(self, req: NmRequest) -> None:
        if req.kind != "send":
            raise ProtocolError(f"strategies only hold sends, got {req.kind}")
        self._pending.append(req)

    def pending_count(self) -> int:
        return len(self._pending)

    def take_plans(self, rails: Sequence[RailInfo]) -> list[PacketPlan]:
        """Drain (some of) the pending list into packet plans."""
        raise NotImplementedError

    def _drain(self) -> list[NmRequest]:
        out = list(self._pending)
        self._pending.clear()
        return out
