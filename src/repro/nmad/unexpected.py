"""Unexpected-message store.

§2.2: *"if an unexpected message arrives, it is copied into a buffer
allocated especially for unexpected messages. When the corresponding
receive request is posted, the message is detected and copied into the
application's buffer."*

The store keeps arrived-but-unmatched **eager payloads** (which already
cost one copy into the unexpected buffer, and will cost a second copy out
on match) and **rendezvous RTS descriptors** (no payload yet — matching a
posted receive later triggers the CTS answer). Both item kinds are built
from their typed wire frames (:class:`repro.nmad.wire.EagerFrame` /
:class:`repro.nmad.wire.RtsFrame`) via :meth:`from_frame`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Union

from ..errors import MatchingError

if TYPE_CHECKING:  # pragma: no cover - frames only appear in annotations
    from .wire import EagerFrame, RtsFrame

__all__ = [
    "ProbeInfo",
    "UnexpectedEager",
    "UnexpectedRts",
    "UnexpectedItem",
    "UnexpectedStore",
]


@dataclass(frozen=True, slots=True)
class ProbeInfo:
    """Typed result of a successful ``probe``/``iprobe``.

    ``rdv`` is True when the matched arrival is a rendezvous handshake
    (no payload buffered yet), False for a buffered eager payload.
    """

    source: int
    tag: int
    size: int
    rdv: bool

    @classmethod
    def of(cls, item: "UnexpectedItem") -> "ProbeInfo":
        """The probe view of one unexpected-store item."""
        return cls(
            source=item.source,
            tag=item.tag,
            size=item.size,
            rdv=isinstance(item, UnexpectedRts),
        )


@dataclass(slots=True)
class UnexpectedEager:
    """An eager payload sitting in the unexpected buffer."""

    source: int
    tag: int
    seq: int
    size: int
    payload: Any
    arrived_at: float

    @classmethod
    def from_frame(cls, frame: "EagerFrame", arrived_at: float) -> "UnexpectedEager":
        """Buffer one sequence-ordered whole-message eager frame."""
        return cls(
            source=frame.src,
            tag=frame.tag,
            seq=frame.seq,
            size=frame.size,
            payload=frame.payload,
            arrived_at=arrived_at,
        )


@dataclass(slots=True)
class UnexpectedRts:
    """A rendezvous handshake waiting for its receive to be posted."""

    source: int
    tag: int
    seq: int
    size: int
    send_req_id: int
    arrived_at: float

    @classmethod
    def from_frame(cls, frame: "RtsFrame", arrived_at: float) -> "UnexpectedRts":
        """Buffer one sequence-ordered rendezvous handshake frame."""
        return cls(
            source=frame.src,
            tag=frame.tag,
            seq=frame.seq,
            size=frame.size,
            send_req_id=frame.send_req_id,
            arrived_at=arrived_at,
        )


UnexpectedItem = Union[UnexpectedEager, UnexpectedRts]


@dataclass
class UnexpectedStore:
    """FIFO store of unexpected arrivals (already sequence-ordered by the
    :class:`repro.nmad.tags.SequenceTracker` before insertion)."""

    _items: deque[UnexpectedItem] = field(default_factory=deque)
    #: peak occupancy in bytes (memory-pressure statistic)
    peak_bytes: int = 0
    _bytes: int = 0

    def add(self, item: UnexpectedItem) -> None:
        self._items.append(item)
        if isinstance(item, UnexpectedEager):
            self._bytes += item.size
            self.peak_bytes = max(self.peak_bytes, self._bytes)

    def match(self, source: int, tag: int, any_marker: int = -1) -> Optional[UnexpectedItem]:
        """Find-and-remove the oldest item compatible with a posted recv."""
        for i, item in enumerate(self._items):
            src_ok = source == any_marker or item.source == source
            tag_ok = tag == any_marker or item.tag == tag
            if src_ok and tag_ok:
                del self._items[i]
                if isinstance(item, UnexpectedEager):
                    self._bytes -= item.size
                return item
        return None

    def probe(self, source: int, tag: int, any_marker: int = -1) -> Optional[ProbeInfo]:
        """Non-destructive :meth:`match`: the probe view of the oldest item
        a ``(source, tag)`` recv would consume, or None. The item stays in
        the store (MPI_Probe semantics)."""
        for item in self._items:
            src_ok = source == any_marker or item.source == source
            tag_ok = tag == any_marker or item.tag == tag
            if src_ok and tag_ok:
                return ProbeInfo.of(item)
        return None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def buffered_bytes(self) -> int:
        return self._bytes

    def require_empty(self) -> None:
        """Diagnostic: raise if messages were never consumed (leak check)."""
        if self._items:
            raise MatchingError(
                f"{len(self._items)} unexpected messages never matched"
            )
