"""The injection hook between a :class:`FaultPlan` and the fabric.

:meth:`FaultInjector.decide` is called by :meth:`repro.network.fabric.Fabric.
transmit` once per packet handed to the wire; it folds every rule, link-flap
window, and NIC-stall window of the plan into one :class:`FaultDecision`.
Decisions are deterministic: probabilistic rules draw from per-rule RNG
substreams seeded from the plan, and the fabric calls ``decide`` in event
order, so the same plan over the same workload replays bit-identically.

The injector flattens each rule once, at construction, and tests its
filters, window, cap and period inline in one loop per packet. A packet
no rule, flap or stall touches gets the shared, immutable :data:`PASS`
decision; any other packet gets a fresh decision. The draw order is the
plan's contract: a rate rule draws exactly once per packet that matches
its filters and window, is under its ``max_count`` cap and whose
``every_nth`` did not fire; a firing DROP returns before any later rule
is examined, so later rules neither count nor draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.rng import substream_draws
from .plan import FaultAction, FaultPlan

__all__ = ["FaultDecision", "FaultInjector", "PASS"]


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """What the fabric should do with one packet."""

    deliver: bool = True
    corrupt: bool = False
    extra_delay_us: float = 0.0
    duplicates: int = 0
    cause: str | None = None


#: the decision for a packet that passes untouched (shared by all of them)
PASS = FaultDecision()
#: the decisions for a packet dropped by a rule or by a link flap
_DROPPED = FaultDecision(deliver=False, cause="drop")
_FLAPPED = FaultDecision(deliver=False, cause="flap")


class FaultInjector:
    """Applies a :class:`FaultPlan` to packets crossing a fabric."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # one substream per rule, bound once: adding a rule never perturbs
        # the draws of the others (same contract as RngStreams itself)
        draws = substream_draws(plan.seed, [f"rule{i}" for i in range(len(plan.rules))])
        #: each rule flattened for :meth:`decide`: (index, action, rate,
        #: every_nth, src_node, dst_node, kinds, after_us, until_us,
        #: delay_us, max_count, draw)
        self._rules = tuple(
            (
                i, rule.action, rule.rate, rule.every_nth, rule.src_node,
                rule.dst_node, rule.kinds, rule.after_us, rule.until_us,
                rule.delay_us, rule.max_count, draws[i],
            )
            for i, rule in enumerate(plan.rules)
        )
        self._flaps = tuple(plan.flaps)
        self._stalls = tuple(plan.stalls)
        #: per-rule counters of packets that matched the static filters
        self._matched: list[int] = [0] * len(plan.rules)
        #: per-rule counters of firings (for max_count caps)
        self._fired: list[int] = [0] * len(plan.rules)
        # statistics
        self.packets_seen = 0
        self.drops = 0
        self.corruptions = 0
        self.delays = 0
        self.duplicates = 0
        self.flap_drops = 0
        self.stall_delays = 0

    # -- decision ------------------------------------------------------------------

    def decide(self, packet, now: float) -> FaultDecision:
        """Fold the whole plan into one decision for ``packet`` at ``now``."""
        self.packets_seen += 1
        for flap in self._flaps:
            if flap.is_down(packet, now):
                self.flap_drops += 1
                return _FLAPPED
        corrupt = False
        extra_delay_us = 0.0
        duplicates = 0
        cause = None
        src = packet.src_node
        dst = packet.dst_node
        kind = packet.kind
        matched = self._matched
        fired = self._fired
        for (i, action, rate, every_nth, r_src, r_dst, kinds, after_us, until_us,
             delay_us, max_count, draw) in self._rules:
            if now < after_us or now >= until_us:
                continue
            if r_src is not None and src != r_src:
                continue
            if r_dst is not None and dst != r_dst:
                continue
            if kinds is not None and kind not in kinds:
                continue
            count = matched[i] + 1
            matched[i] = count
            if max_count is not None and fired[i] >= max_count:
                continue
            if not (every_nth and count % every_nth == 0):
                if not rate or draw() >= rate:
                    continue
            fired[i] += 1
            if action == FaultAction.DROP:
                self.drops += 1
                return _DROPPED
            if action == FaultAction.CORRUPT:
                self.corruptions += 1
                corrupt = True
                cause = cause or "corrupt"
            elif action == FaultAction.DELAY:
                self.delays += 1
                extra_delay_us += delay_us
                cause = cause or "delay"
            else:  # DUPLICATE
                self.duplicates += 1
                duplicates += 1
                cause = cause or "duplicate"
        for stall in self._stalls:
            extra = stall.stall_delay(packet, now)
            if extra > 0.0:
                self.stall_delays += 1
                extra_delay_us += extra
                cause = cause or "stall"
        if cause is None:
            return PASS
        return FaultDecision(True, corrupt, extra_delay_us, duplicates, cause)

    # -- reporting -----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counters for harness reports."""
        return {
            "packets_seen": self.packets_seen,
            "drops": self.drops,
            "corruptions": self.corruptions,
            "delays": self.delays,
            "duplicates": self.duplicates,
            "flap_drops": self.flap_drops,
            "stall_delays": self.stall_delays,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FaultInjector seen={self.packets_seen} drops={self.drops} "
            f"corrupt={self.corruptions} delay={self.delays} dup={self.duplicates}>"
        )
