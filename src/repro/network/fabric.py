"""The interconnect fabric connecting NICs.

The fabric is the paper's point-to-point wire: a packet handed over by a
NIC at transmit start ``t`` arrives at the destination NIC at
``t + wire_latency + wire_size/wire_bw``, priced with the injecting NIC's
model — a reasonable model for the 2-node Myri-10G testbed where the
switch is never the bottleneck.

Each attached node hangs off one egress port (the ``fabric>h{node}``
link). With ``ingress_contention=True`` the port owns a busy-until
cursor: a frame whose drain would overlap the previous one queues behind
it, so arrivals serialize per destination node at wire rate. A
fault-injected duplicate ``i`` enters the wire ``i`` drain times behind
the original and goes through the same cursor, so it can never overlap
another frame on a contended port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import NicModel
from ..errors import RouteError
from ..sim.events import Priority as EventPriority
from ..sim.kernel import Simulator
from .message import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.inject import FaultInjector
    from .nic import Nic

__all__ = ["Fabric"]


class _Port:
    """The egress port toward one node: its NIC, the contention cursor
    ``free_at`` and the link counters reported as ``link.fabric>h{node}``."""

    __slots__ = ("nic", "free_at", "frames", "bytes", "queued_us", "busy_us")

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        self.free_at = 0.0
        self.frames = 0
        self.bytes = 0
        self.queued_us = 0.0
        self.busy_us = 0.0


class Fabric:
    """Point-to-point delivery between registered NICs.

    ``ingress_contention=True`` serializes arrivals *per destination NIC*
    at wire rate, the switch egress-port rule (used by the fairness/
    congestion tests; off by default to keep the paper experiments'
    single-flow timing exact).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "fabric",
        ingress_contention: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ingress_contention = bool(ingress_contention)
        self._ports: dict[int, _Port] = {}
        #: ports that carried a frame, in first-frame order: the metrics
        #: report only these, and ``queued_us`` sums them in this order
        self._used: list[_Port] = []
        #: optional fault-injection hook (see :mod:`repro.faults`); consulted
        #: once per transmitted packet when set
        self.injector: Optional["FaultInjector"] = None
        # statistics
        self.packets_carried = 0
        self.bytes_carried = 0
        self.packets_dropped = 0

    @property
    def ingress_queued_us(self) -> float:
        """Total time frames spent queued behind busy ports."""
        # a list, not a generator (see MarcelScheduler.stats)
        return sum([port.queued_us for port in self._used])

    def metrics(self) -> dict[str, float]:
        """Flat metrics lane: carried totals plus per-link sub-keys.

        Registered by the harness as the ``fabric.<name>`` collector, so
        snapshots carry ``fabric.<name>.link.fabric>h{node}.{frames,bytes,
        queued_us,busy_us,util}`` for every port that carried a frame,
        alongside the fabric-wide counters. ``util`` is cumulative drain
        time over elapsed virtual time.
        """
        now = self.sim.now
        out: dict[str, float] = {
            "packets": float(self.packets_carried),
            "bytes": float(self.bytes_carried),
            "dropped": float(self.packets_dropped),
            "queued_us": self.ingress_queued_us,
        }
        links = sorted([(f"link.fabric>h{port.nic.node_index}", port) for port in self._used])
        for prefix, port in links:
            out[f"{prefix}.frames"] = float(port.frames)
            out[f"{prefix}.bytes"] = float(port.bytes)
            out[f"{prefix}.queued_us"] = port.queued_us
            out[f"{prefix}.busy_us"] = port.busy_us
            out[f"{prefix}.util"] = port.busy_us / now if now > 0 else 0.0
        return out

    def set_injector(self, injector: Optional["FaultInjector"]) -> None:
        """Install (or clear) the fault-injection hook for this fabric."""
        self.injector = injector

    def attach(self, nic: "Nic") -> None:
        if nic.node_index in self._ports:
            raise RouteError(f"node n{nic.node_index} already has a NIC on {self.name}")
        if nic.node_index < 0:
            raise RouteError(f"negative node index {nic.node_index}")
        self._ports[nic.node_index] = _Port(nic)

    def nic_of(self, node_index: int) -> "Nic":
        try:
            return self._ports[node_index].nic
        except KeyError:
            raise RouteError(f"no NIC for node n{node_index} on {self.name}") from None

    def _delay(
        self,
        port: _Port,
        model: NicModel,
        size: int,
        tx_time: float,
        extra_delay_us: float,
        trail: int,
    ) -> float:
        """Delay (relative to now) until a ``size``-byte frame reaches
        ``port``'s node; ``trail`` is the index of a duplicate copy (0 for
        the original). Advances the port's cursor and counters."""
        drain = size / model.wire_bw
        delay = tx_time + model.wire_latency_us + drain
        delay += extra_delay_us
        if trail:
            delay += trail * drain
        if self.ingress_contention:
            now = self.sim.now
            arrival = now + delay
            if port.free_at > arrival - drain:
                # the egress port is still transmitting an earlier frame:
                # this one queues behind it
                queued = port.free_at - (arrival - drain)
                port.queued_us += queued
                arrival += queued
            port.free_at = arrival
            delay = arrival - now
        if not port.frames:
            self._used.append(port)
        port.frames += 1
        port.bytes += size
        port.busy_us += drain
        return delay

    def transmit(self, src_nic: "Nic", packet: Packet, tx_time: float) -> None:
        """Carry ``packet``; transmission starts ``tx_time`` µs from now."""
        try:
            port = self._ports[packet.dst_node]
        except KeyError:
            raise RouteError(f"no NIC for node n{packet.dst_node} on {self.name}") from None
        dst = port.nic
        if dst is src_nic:
            raise RouteError(
                f"fabric loopback n{packet.src_node}->n{packet.dst_node}; "
                "intra-node traffic must use the shared-memory channel"
            )
        duplicates = 0
        extra_delay_us = 0.0
        if self.injector is not None:
            decision = self.injector.decide(packet, self.sim.now + tx_time)
            if not decision.deliver:
                self.packets_dropped += 1
                return
            if decision.corrupt:
                # the receiver gets a *copy* flagged corrupted: the sender's
                # retransmit buffer (which aliases the original packet) must
                # stay intact
                packet = Packet(
                    packet.kind,
                    packet.src_node,
                    packet.dst_node,
                    packet.payload_size,
                    {**packet.headers, "corrupted": True},
                )
            extra_delay_us = decision.extra_delay_us
            duplicates = decision.duplicates
        model = src_nic.model
        size = packet.wire_size
        delay = self._delay(port, model, size, tx_time, extra_delay_us, 0)
        self.packets_carried += 1
        self.bytes_carried += size
        self.sim.schedule(delay, dst.deliver, packet, priority=EventPriority.INTERRUPT)
        for i in range(duplicates):
            # a duplicated frame trails the original by one extra drain time
            # and goes through the same port cursor as any other frame
            dup_delay = self._delay(port, model, size, tx_time, extra_delay_us, i + 1)
            self.sim.schedule(dup_delay, dst.deliver, packet, priority=EventPriority.INTERRUPT)
