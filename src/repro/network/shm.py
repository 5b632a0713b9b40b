"""Intra-node shared-memory channel.

§4.3: the meta-application "generates both intra-node and inter-node
communication requests which are either submitted to the network
(inter-node requests) or to a shared-memory channel".

The channel mimics a NIC's software interface (submit / completion queue /
activity listeners) so the NewMadeleine driver layer can treat it
uniformly, but its timing is host-memory timing: the *sender's CPU* copies
the payload into the shared segment (cost charged by the caller through the
driver), delivery is one channel latency later, and the *receiver's CPU*
copies it out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..config import ShmModel
from ..errors import NetworkError
from ..sim.events import Priority as EventPriority
from ..sim.kernel import Simulator
from .message import CompletionRecord, Packet

__all__ = ["ShmChannel"]


class ShmChannel:
    """Loopback channel inside one node."""

    def __init__(self, sim: Simulator, node_index: int, model: ShmModel) -> None:
        self.sim = sim
        self.node_index = node_index
        self.model = model
        self.name = f"n{node_index}.shm"
        #: completion queue: the session polls it through ``Driver.hw_cq``
        self.cq: deque[CompletionRecord] = deque()
        self._activity_listeners: list[Callable[[], None]] = []
        self.tx_packets = 0

    def submit(self, packet: Packet, copy_done_delay: float = 0.0) -> None:
        """Enqueue a packet written into the shared segment.

        ``copy_done_delay`` is the remaining CPU-copy time already charged
        by the caller — the packet becomes visible to the receiver one
        channel latency after the copy completes.
        """
        if packet.src_node != self.node_index or packet.dst_node != self.node_index:
            raise NetworkError(
                f"{self.name}: shm packet must stay on node n{self.node_index} "
                f"(got n{packet.src_node}->n{packet.dst_node})"
            )
        self.tx_packets += 1
        delay = copy_done_delay + self.model.latency_us

        # the sender's copy into the shared segment completes the send
        # locally (the CPU cost was charged by the caller before submit)
        self.cq.append(CompletionRecord("tx_done", packet, self.sim.now))
        for cb in self._activity_listeners:
            cb()

        def _arrive() -> None:
            self.cq.append(CompletionRecord("rx", packet, self.sim.now))
            for cb in self._activity_listeners:
                cb()

        self.sim.schedule(delay, _arrive, priority=EventPriority.INTERRUPT)

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        self._activity_listeners.append(cb)

    def detach(self) -> None:
        """Drop the activity listeners: the channel carries nothing more."""
        self._activity_listeners.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShmChannel {self.name} cq={len(self.cq)}>"
