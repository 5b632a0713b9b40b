"""NIC model: TX engine (PIO + DMA), RX queue, completion queue.

Timing model (see :class:`repro.config.NicModel`):

* **PIO** — the *CPU* pushes the bytes to the NIC; the CPU cost is charged
  by the caller (`pio_cpu_us`), and the packet enters the wire immediately
  after.
* **DMA** — the CPU only builds a descriptor (`dma_setup_us`, charged by
  the caller); the NIC reads the payload from host memory and streams it to
  the wire. A NIC has one DMA/TX engine: transmissions serialize. The local
  ``tx_done`` completion is produced when the last byte left the NIC.
* **RX** — the fabric delivers packets into the RX queue and produces an
  ``rx`` completion. Software discovers completions by *polling* the
  completion queue ``cq`` (the session's poll loop takes records off it and
  charges the model's ``poll_us``); hardware additionally notifies
  *activity listeners* (used by PIOMan to wake idle cores and by the
  blocking detection method).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..config import NicModel
from ..errors import NetworkError
from ..sim.events import Priority as EventPriority
from ..sim.kernel import Simulator
from .message import RX, TX_DONE, CompletionRecord, Packet

__all__ = ["Nic"]


class Nic:
    """One network interface card attached to a node."""

    def __init__(self, sim: Simulator, node_index: int, model: NicModel, fabric: "object") -> None:
        self.sim = sim
        self.node_index = node_index
        self.model = model
        self.fabric = fabric
        self.name = f"n{node_index}.{model.name}"
        #: completion queue: the session polls it through ``Driver.hw_cq``
        self.cq: deque[CompletionRecord] = deque()
        self._tx_free_at: float = 0.0
        self._activity_listeners: list[Callable[[], None]] = []
        # statistics
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    # -- TX --------------------------------------------------------------------

    def pio_cpu_us(self, packet: Packet) -> float:
        """CPU cost the caller must charge for a PIO submission."""
        return self.model.tx_setup_us + packet.wire_size * self.model.pio_byte_us

    def submit_pio(self, packet: Packet) -> None:
        """Hand a PIO packet to the wire.

        The caller has *already* charged :meth:`pio_cpu_us`; the packet
        leaves immediately (PIO writes go straight through the NIC FIFO).
        """
        if packet.src_node != self.node_index:
            raise NetworkError(
                f"{self.name}: packet src n{packet.src_node} is not this node"
            )
        self.tx_packets += 1
        self.tx_bytes += packet.wire_size
        self.fabric.transmit(self, packet, tx_time=0.0)
        self._tx_done(packet)

    def submit_dma(self, packet: Packet) -> float:
        """Queue a DMA transmission.

        The caller charges ``dma_setup_us`` itself (descriptor build). The
        NIC serializes transmissions on its single TX engine. Returns the
        virtual time at which the local ``tx_done`` completion is produced
        (useful for tests; protocol code discovers it by polling).
        """
        if packet.src_node != self.node_index:
            raise NetworkError(
                f"{self.name}: packet src n{packet.src_node} is not this node"
            )
        start = max(self.sim.now, self._tx_free_at)
        drain = packet.wire_size / self.model.wire_bw
        self._tx_free_at = start + drain
        self.tx_packets += 1
        self.tx_bytes += packet.wire_size
        self.fabric.transmit(self, packet, tx_time=start - self.sim.now)
        done_at = start + drain
        delay = done_at - self.sim.now
        if delay <= 0:
            self._tx_done(packet)
        else:
            self.sim.schedule(delay, self._tx_done, packet, priority=EventPriority.INTERRUPT)
        return done_at

    def _tx_done(self, packet: Packet) -> None:
        """The last byte of ``packet`` left the NIC (now): produce the
        ``tx_done`` completion."""
        self.cq.append(CompletionRecord(TX_DONE, packet, self.sim.now))
        for cb in self._activity_listeners:
            cb()

    # -- RX --------------------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """Fabric-side: a packet arrived at this NIC (now)."""
        if packet.dst_node != self.node_index:
            raise NetworkError(
                f"{self.name}: packet for n{packet.dst_node} delivered here"
            )
        self.rx_packets += 1
        self.rx_bytes += packet.wire_size
        self.cq.append(CompletionRecord(RX, packet, self.sim.now))
        for cb in self._activity_listeners:
            cb()

    # -- completion discovery ----------------------------------------------------

    def add_activity_listener(self, cb: Callable[[], None]) -> None:
        """Register a callback fired whenever a new completion is produced.

        Listeners run in hardware (sim-callback) context: they must not
        charge CPU — typical use is waking a parked core or setting a
        :class:`repro.marcel.sync.ThreadFlag`.
        """
        self._activity_listeners.append(cb)

    def detach(self) -> None:
        """Drop the activity listeners and the fabric: the NIC carries
        nothing more (its counters stay readable)."""
        self._activity_listeners.clear()
        self.fabric = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} cq={len(self.cq)} tx_free_at={self._tx_free_at:.2f}>"
