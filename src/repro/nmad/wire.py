"""Typed wire schema: the packet descriptors exchanged by the protocols.

Every protocol frame that crosses the simulated wire is one of the slotted
frozen dataclasses below — :class:`EagerFrame` (one application message,
or one multirail chunk of one, inside an eager/PIO packet),
:class:`RtsFrame` / :class:`CtsFrame` (the rendezvous handshake),
:class:`DataChunkFrame` (the rendezvous data phase, whole or pipelined),
and :class:`AckFrame` (reliability acknowledgements). The ``to_packet``
codecs build :class:`repro.network.message.Packet` instances carrying the
frames; :func:`from_packet` parses an arrived packet back into its typed
frame(s) and raises :class:`repro.errors.ProtocolError` on malformed
traffic instead of the ``KeyError`` a raw header dict would give.

Two wire-level adornments intentionally stay *outside* the schema, as raw
header keys, because they are stamped below the protocol layer:
``wire_seq`` (reliability sequence numbers, see
:mod:`repro.nmad.reliability`) and ``corrupted`` (set by the fault
injector in :mod:`repro.network.fabric`). The accessors
:func:`wire_seq_of` / :func:`mark_wire_seq` / :func:`is_corrupted` are the
only sanctioned way to touch them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Union

from ..errors import ProtocolError
from ..network.message import Packet, PacketKind

__all__ = [
    "NdarrayMeta",
    "EagerFrame",
    "RtsFrame",
    "CtsFrame",
    "DataChunkFrame",
    "AckFrame",
    "Frame",
    "eager_to_packet",
    "from_packet",
    "eager_frames",
    "data_frame",
    "tx_req_ids",
    "wire_seq_of",
    "mark_wire_seq",
    "is_corrupted",
]


@dataclass(frozen=True, slots=True)
class NdarrayMeta:
    """Reconstruction metadata for a numpy payload shipped as raw bytes."""

    dtype: str
    shape: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EagerFrame:
    """One application message — or one multirail chunk of one — inside an
    eager/PIO wire packet.

    ``offset``/``length``/``nchunks`` describe the chunk geometry when the
    multirail split strategy cut the message across packets; a whole
    message is the degenerate ``offset=0, length=size, nchunks=1`` frame.
    """

    req_id: int
    src: int
    tag: int
    seq: int
    size: int
    offset: int
    length: int
    nchunks: int
    payload: Any = None

    def merged(self, payload: Any) -> "EagerFrame":
        """The whole-message frame produced by multi-chunk reassembly."""
        return replace(
            self, offset=0, length=self.size, nchunks=1, payload=payload
        )


@dataclass(frozen=True, slots=True)
class RtsFrame:
    """Rendezvous request-to-send: announces a large message (§2.3 (a))."""

    send_req_id: int
    src: int
    tag: int
    seq: int
    size: int

    def to_packet(self, dst_node: int) -> Packet:
        return Packet(PacketKind.RTS, self.src, dst_node, 0, {"frame": self})


@dataclass(frozen=True, slots=True)
class CtsFrame:
    """Rendezvous clear-to-send: the receive buffer is registered and the
    sender may start the data phase (§2.3 (c))."""

    send_req_id: int
    recv_req_id: int

    def to_packet(self, src_node: int, dst_node: int) -> Packet:
        return Packet(PacketKind.CTS, src_node, dst_node, 0, {"frame": self})


@dataclass(frozen=True, slots=True)
class DataChunkFrame:
    """One rendezvous DATA transfer — the whole payload (``nchunks == 1``)
    or one pipeline chunk of it (see :class:`repro.nmad.rdv.RdvPlanner`).

    ``mode`` is the payload transport classification from
    :func:`repro.nmad.rdv.classify_payload` (``"whole"`` for the unchunked
    leg, which ships the application object as-is); ``meta`` carries numpy
    reconstruction info on chunk 0 of an ``"ndarray"`` transfer.
    """

    tx_req_id: int
    recv_req_id: int
    length: int
    payload: Any = None
    mode: str = "whole"
    meta: Optional[NdarrayMeta] = None
    chunk_index: int = 0
    offset: int = 0
    size: int = 0
    nchunks: int = 1

    def to_packet(self, src_node: int, dst_node: int) -> Packet:
        return Packet(PacketKind.DATA, src_node, dst_node, self.length, {"frame": self})


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Reliability acknowledgement for one received wire sequence number."""

    ack_seq: int

    def to_packet(self, src_node: int, dst_node: int) -> Packet:
        return Packet(PacketKind.ACK, src_node, dst_node, 0, {"frame": self})


Frame = Union[EagerFrame, RtsFrame, CtsFrame, DataChunkFrame, AckFrame]

#: which frame type each single-frame packet kind must carry
_KIND_FRAME: dict[str, type] = {
    PacketKind.RTS: RtsFrame,
    PacketKind.CTS: CtsFrame,
    PacketKind.DATA: DataChunkFrame,
    PacketKind.ACK: AckFrame,
}


# ------------------------------------------------------------------- codecs


def eager_to_packet(
    frames: Sequence[EagerFrame], mode: str, src_node: int, dst_node: int
) -> Packet:
    """Build one eager/PIO wire packet carrying ``frames``.

    ``mode`` is the strategy plan mode (``"pio"`` or ``"eager"``); the
    packet's payload size is the sum of the frame chunk lengths.
    """
    if not frames:
        raise ProtocolError("an eager packet needs at least one frame")
    return Packet(
        PacketKind.PIO if mode == "pio" else PacketKind.EAGER,
        src_node,
        dst_node,
        sum(f.length for f in frames),
        {"entries": tuple(frames)},
    )


def eager_frames(packet: Packet) -> tuple[EagerFrame, ...]:
    """The typed frames of an eager/PIO packet."""
    if packet.kind not in (PacketKind.EAGER, PacketKind.PIO):
        raise ProtocolError(f"not an eager/PIO packet: {packet!r}")
    entries = packet.headers.get("entries")
    if not isinstance(entries, tuple) or not all(
        isinstance(e, EagerFrame) for e in entries
    ):
        raise ProtocolError(f"eager packet without typed entries: {packet!r}")
    return entries


def from_packet(packet: Packet) -> Frame:
    """Parse a single-frame packet (RTS/CTS/DATA/ACK) into its typed frame."""
    expected = _KIND_FRAME.get(packet.kind)
    if expected is None:
        raise ProtocolError(
            f"packet kind {packet.kind!r} has no single-frame schema "
            "(eager/PIO packets carry multiple frames; use eager_frames)"
        )
    frame = packet.headers.get("frame")
    if not isinstance(frame, expected):
        raise ProtocolError(
            f"{packet.kind} packet without a {expected.__name__}: {packet!r}"
        )
    return frame


def data_frame(packet: Packet) -> DataChunkFrame:
    """The typed frame of a rendezvous DATA packet."""
    frame = from_packet(packet)
    assert isinstance(frame, DataChunkFrame)  # from_packet checked the kind
    return frame


def tx_req_ids(packet: Packet) -> tuple[int, ...]:
    """Send request ids whose buffers this packet carries (TX completion /
    ACK-release lookup); empty for control frames and foreign packets."""
    entries = packet.headers.get("entries")
    if isinstance(entries, tuple):
        return tuple(f.req_id for f in entries if isinstance(f, EagerFrame))
    frame = packet.headers.get("frame")
    if isinstance(frame, DataChunkFrame):
        return (frame.tx_req_id,)
    return ()


# ------------------------------------------------- wire-level adornments


def wire_seq_of(packet: Packet) -> Optional[int]:
    """Reliability wire sequence number, or None for unreliable traffic."""
    seq = packet.headers.get("wire_seq")
    return seq if isinstance(seq, int) else None


def mark_wire_seq(packet: Packet, seq: int) -> None:
    """Stamp a reliability wire sequence number onto an outgoing packet."""
    packet.headers["wire_seq"] = seq


def is_corrupted(packet: Packet) -> bool:
    """True when the fault injector flagged this packet's checksum bad."""
    return bool(packet.headers.get("corrupted"))
