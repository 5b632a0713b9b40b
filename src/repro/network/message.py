"""Wire-level packet and completion-queue record types."""

from __future__ import annotations

from typing import Any

from ..errors import NetworkError

__all__ = ["PacketKind", "Packet", "CompletionRecord", "HEADER_BYTES", "CONTROL_BYTES"]

#: bytes of protocol header prepended to every packet on the wire
HEADER_BYTES = 40
#: wire size of a control-only packet (RTS/CTS/ACK)
CONTROL_BYTES = 64


class PacketKind:
    """Packet kinds used by the NewMadeleine protocols."""

    EAGER = "eager"  # eager payload (copied through registered region)
    PIO = "pio"  # tiny payload pushed by CPU PIO
    RTS = "rts"  # rendezvous request-to-send handshake
    CTS = "cts"  # rendezvous clear-to-send answer
    DATA = "data"  # rendezvous zero-copy payload
    ACK = "ack"  # protocol acknowledgement (used by tests/extensions)

    ALL = (EAGER, PIO, RTS, CTS, DATA, ACK)


#: kinds whose packets are fixed-size control frames on the wire
_CONTROL_KINDS = (PacketKind.RTS, PacketKind.CTS, PacketKind.ACK)


class Packet:
    """One unit on the wire.

    ``payload_size`` is the application bytes carried; ``wire_size`` (set
    at construction) adds the protocol header, or is the fixed control
    frame size. ``headers`` carries protocol metadata (tag, seq, request
    ids) — this is modelling, not serialization, so it is a dict. A packet
    is its own identity: two packets never compare equal.
    """

    __slots__ = ("kind", "src_node", "dst_node", "payload_size", "headers", "wire_size")

    def __init__(
        self,
        kind: str,
        src_node: int,
        dst_node: int,
        payload_size: int,
        headers: dict[str, Any] | None = None,
    ) -> None:
        if kind in _CONTROL_KINDS:
            wire_size = CONTROL_BYTES
        elif kind in PacketKind.ALL:
            wire_size = payload_size + HEADER_BYTES
        else:
            raise NetworkError(f"unknown packet kind {kind!r}")
        if payload_size < 0:
            raise NetworkError(f"negative payload size: {payload_size}")
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.payload_size = payload_size
        self.headers = {} if headers is None else headers
        #: bytes occupying the wire (payload + header, or a control frame)
        self.wire_size = wire_size

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Packet {self.kind} n{self.src_node}->n{self.dst_node} "
            f"{self.payload_size}B>"
        )


class CompletionRecord:
    """One completion-queue entry, consumed by polling.

    ``event`` is ``"tx_done"`` (local send completion) or ``"rx"`` (packet
    arrived); ``time`` is when the hardware produced the record (detection
    happens later, when software polls).
    """

    __slots__ = ("event", "packet", "time")

    def __init__(self, event: str, packet: Packet, time: float) -> None:
        if event != "tx_done" and event != "rx":
            raise NetworkError(f"unknown completion event {event!r}")
        self.event = event
        self.packet = packet
        self.time = time
