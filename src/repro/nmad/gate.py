"""Gates: per-peer connection state (rails, send sequencing, flush queue).

A gate bundles the rails (drivers) that reach one peer with the optimizer
strategy that turns pending sends into wire packets (§3.1). It is pure
bookkeeping — protocol decisions happen in :mod:`repro.nmad.core` and the
protocol engine modules, which consult :attr:`Gate.thresholds` (or
:meth:`Gate.effective_thresholds` over a filtered rail set) and drain
:attr:`Gate.pending_plans`.
"""

from __future__ import annotations

from collections import deque

from ..errors import ProtocolError
from .drivers.base import Driver
from .strategies import DefaultStrategy, Strategy
from .strategies.base import PacketPlan, RailInfo

__all__ = ["Gate"]


class Gate:
    """Connection from this session to one peer node."""

    def __init__(self, peer: int, rails: list[Driver], strategy: Strategy | None = None) -> None:
        if not rails:
            raise ProtocolError(f"gate to n{peer} needs at least one rail")
        self.peer = peer
        self.rails = rails
        self.strategy = strategy or DefaultStrategy()
        self._send_seq: dict[int, int] = {}
        #: True while a flush op for this gate sits in the session work list
        self.flush_pending = False
        #: packet plans already formed by the strategy, awaiting submission
        #: (one wire packet is submitted per flush-op execution — §2.1:
        #: "the messages are submitted once at a time")
        self.pending_plans: deque[PacketPlan] = deque()
        #: one descriptor per rail, built once: the rails are fixed at
        #: construction and the model values behind them are static
        self.rail_infos: list[RailInfo] = [
            RailInfo(
                index=i,
                pio_threshold=r.pio_threshold,
                rdv_threshold=r.rdv_threshold,
                bandwidth=r.wire_bw,
            )
            for i, r in enumerate(rails)
        ]
        #: the (pio, rdv) thresholds over every rail; recomputed per send
        #: only while reliability has filtered a degraded rail out
        self.thresholds: tuple[int, int] = self.effective_thresholds()

    def next_seq(self, tag: int) -> int:
        seq = self._send_seq.get(tag, 0)
        self._send_seq[tag] = seq + 1
        return seq

    def effective_thresholds(self, infos: list[RailInfo] | None = None) -> tuple[int, int]:
        """Gate-wide protocol thresholds: the (pio, rdv) cutoffs that are
        safe on *every* given rail.

        Protocol choice happens before rail choice — reliability rerouting
        or RDV striping may carry the message on any rail — so the session
        picks the protocol a message qualifies for on all of them (the
        minimum of each threshold). Identical to ``rails[0]`` for
        single-rail and homogeneous gates.
        """
        if infos is None:
            infos = self.rail_infos
        return (
            min(r.pio_threshold for r in infos),
            min(r.rdv_threshold for r in infos),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gate ->n{self.peer} rails={[r.name for r in self.rails]}>"
