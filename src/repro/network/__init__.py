"""Network substrate: packets, NICs, the point-to-point fabric, and the
intra-node shared-memory channel.

The substrate is deliberately *below* protocol level: a NIC moves opaque
packets with realistic timing (PIO vs. DMA, TX serialization, wire
latency/bandwidth, optional per-destination egress-port contention) and
exposes a completion queue plus activity listeners.
Protocol logic — eager vs. rendezvous, matching, unexpected messages —
belongs to :mod:`repro.nmad`.
"""

from .fabric import Fabric
from .message import CompletionRecord, Packet, PacketKind
from .nic import Nic
from .registration import MemoryRegistry
from .shm import ShmChannel

__all__ = [
    "Packet",
    "PacketKind",
    "CompletionRecord",
    "Nic",
    "Fabric",
    "ShmChannel",
    "MemoryRegistry",
]
