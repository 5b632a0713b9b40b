"""The injection hook between a :class:`FaultPlan` and the fabric.

:meth:`FaultInjector.decide` is called by :meth:`repro.network.fabric.Fabric.
transmit` once per packet handed to the wire; it folds every rule, link-flap
window, and NIC-stall window of the plan into one :class:`FaultDecision`.
Decisions are deterministic: probabilistic rules draw from per-rule RNG
substreams seeded from the plan, and the fabric calls ``decide`` in event
order, so the same plan over the same workload replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.rng import substream_draws
from .plan import FaultAction, FaultPlan

__all__ = ["FaultDecision", "FaultInjector"]


@dataclass
class FaultDecision:
    """What the fabric should do with one packet."""

    deliver: bool = True
    corrupt: bool = False
    extra_delay_us: float = 0.0
    duplicates: int = 0
    cause: str | None = None


class FaultInjector:
    """Applies a :class:`FaultPlan` to packets crossing a fabric."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # one substream per rule, bound once: adding a rule never perturbs
        # the draws of the others (same contract as RngStreams itself)
        self._draw = substream_draws(plan.seed, [f"rule{i}" for i in range(len(plan.rules))])
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
        decision = FaultDecision()
        for flap in self.plan.flaps:
            if flap.is_down(packet, now):
                self.flap_drops += 1
                decision.deliver = False
                decision.cause = "flap"
                return decision
        for i, rule in enumerate(self.plan.rules):
            if not rule.matches(packet, now):
                continue
            self._matched[i] += 1
            if not self._rule_fires(i, rule):
                continue
            self._fired[i] += 1
            if rule.action == FaultAction.DROP:
                self.drops += 1
                decision.deliver = False
                decision.cause = "drop"
                return decision
            if rule.action == FaultAction.CORRUPT:
                self.corruptions += 1
                decision.corrupt = True
                decision.cause = decision.cause or "corrupt"
            elif rule.action == FaultAction.DELAY:
                self.delays += 1
                decision.extra_delay_us += rule.delay_us
                decision.cause = decision.cause or "delay"
            elif rule.action == FaultAction.DUPLICATE:
                self.duplicates += 1
                decision.duplicates += 1
                decision.cause = decision.cause or "duplicate"
        for stall in self.plan.stalls:
            extra = stall.stall_delay(packet, now)
            if extra > 0.0:
                self.stall_delays += 1
                decision.extra_delay_us += extra
                decision.cause = decision.cause or "stall"
        return decision

    def _rule_fires(self, index: int, rule) -> bool:
        if rule.max_count is not None and self._fired[index] >= rule.max_count:
            return False
        if rule.every_nth and self._matched[index] % rule.every_nth == 0:
            return True
        if rule.rate > 0.0:
            return self._draw[index]() < rule.rate
        return False

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
