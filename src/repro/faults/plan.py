"""Fault plans: seeded, declarative schedules of network misbehaviour.

A :class:`FaultPlan` is pure data — which packets to drop/corrupt/delay/
duplicate, when links flap, when NICs stall — plus a seed. All stochastic
choices are made by :class:`repro.faults.inject.FaultInjector` from named
:class:`repro.sim.rng.RngStreams` substreams derived from that seed, so a
plan replays identically run after run (the determinism contract of
DESIGN.md §5 extends to injected faults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["FaultAction", "FaultRule", "LinkFlap", "NicStall", "FaultPlan"]


class FaultAction:
    """Actions a :class:`FaultRule` can apply to a matching packet."""

    DROP = "drop"  # packet never arrives
    CORRUPT = "corrupt"  # packet arrives flagged corrupted (receiver discards)
    DELAY = "delay"  # packet arrives ``delay_us`` late
    DUPLICATE = "duplicate"  # packet arrives twice

    ALL = (DROP, CORRUPT, DELAY, DUPLICATE)


@dataclass(frozen=True)
class FaultRule:
    """One packet-level fault source.

    A rule matches a packet when every filter (source node, destination
    node, packet kinds, the active window ``[after_us, until_us)``)
    accepts it — :meth:`repro.faults.FaultInjector.decide` applies the
    filters; the rule itself is pure data. A matching rule then *fires*
    either periodically (``every_nth`` matching packet) or probabilistically
    (``rate``, drawn from the rule's own RNG substream). ``max_count`` caps
    total firings.

    Examples
    --------
    Drop 10 % of all packets::

        FaultRule(FaultAction.DROP, rate=0.1)

    Drop every 3rd packet headed to node 1 after t=500 µs::

        FaultRule(FaultAction.DROP, every_nth=3, dst_node=1, after_us=500.0)
    """

    action: str
    rate: float = 0.0
    every_nth: int = 0
    src_node: int | None = None
    dst_node: int | None = None
    kinds: tuple[str, ...] | None = None
    after_us: float = 0.0
    until_us: float = math.inf
    delay_us: float = 25.0
    max_count: int | None = None

    def __post_init__(self) -> None:
        if self.action not in FaultAction.ALL:
            raise ConfigError(
                f"unknown fault action {self.action!r}; expected one of {FaultAction.ALL}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"rate must be in [0, 1], got {self.rate}")
        if self.every_nth < 0:
            raise ConfigError(f"every_nth must be >= 0, got {self.every_nth}")
        if self.delay_us < 0:
            raise ConfigError(f"delay_us must be >= 0, got {self.delay_us}")
        if self.after_us < 0:
            raise ConfigError(f"after_us must be >= 0, got {self.after_us}")
        if self.until_us <= self.after_us:
            raise ConfigError(
                f"until_us ({self.until_us}) must exceed after_us ({self.after_us})"
            )
        if self.max_count is not None and self.max_count < 1:
            raise ConfigError(f"max_count must be >= 1, got {self.max_count}")


@dataclass(frozen=True)
class LinkFlap:
    """A link outage window: packets on the matching direction are dropped.

    ``src_node``/``dst_node`` of ``None`` match any endpoint. With
    ``period_us > 0`` the outage repeats: the link is down for
    ``up_at - down_at`` µs at the start of every period from ``down_at``.
    """

    down_at: float
    up_at: float
    src_node: int | None = None
    dst_node: int | None = None
    period_us: float = 0.0

    def __post_init__(self) -> None:
        if self.down_at < 0:
            raise ConfigError(f"down_at must be >= 0, got {self.down_at}")
        if self.up_at <= self.down_at:
            raise ConfigError(
                f"up_at ({self.up_at}) must exceed down_at ({self.down_at})"
            )
        if self.period_us < 0:
            raise ConfigError(f"period_us must be >= 0, got {self.period_us}")
        if self.period_us and self.period_us < self.up_at - self.down_at:
            raise ConfigError("period_us shorter than the outage window")

    def is_down(self, packet, now: float) -> bool:
        if self.src_node is not None and packet.src_node != self.src_node:
            return False
        if self.dst_node is not None and packet.dst_node != self.dst_node:
            return False
        if now < self.down_at:
            return False
        if self.period_us:
            return (now - self.down_at) % self.period_us < self.up_at - self.down_at
        return now < self.up_at


@dataclass(frozen=True)
class NicStall:
    """A transient NIC stall: traffic touching ``node`` inside the window is
    held and delivered when the stall ends (plus normal wire time)."""

    start: float
    end: float
    node: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigError(f"end ({self.end}) must exceed start ({self.start})")

    def stall_delay(self, packet, now: float) -> float:
        """Extra delay this stall imposes on ``packet`` sent at ``now``."""
        if self.node is not None and packet.src_node != self.node and packet.dst_node != self.node:
            return 0.0
        if self.start <= now < self.end:
            return self.end - now
        return 0.0


@dataclass
class FaultPlan:
    """A complete, seeded schedule of fabric misbehaviour."""

    rules: list[FaultRule] = field(default_factory=list)
    flaps: list[LinkFlap] = field(default_factory=list)
    stalls: list[NicStall] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def uniform_drop(cls, rate: float, seed: int = 0, **rule_kwargs) -> "FaultPlan":
        """Plan dropping each packet independently with probability ``rate``."""
        return cls(rules=[FaultRule(FaultAction.DROP, rate=rate, **rule_kwargs)], seed=seed)

    @classmethod
    def lossy(
        cls,
        drop: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        delay_us: float = 25.0,
        seed: int = 0,
    ) -> "FaultPlan":
        """Plan combining independent per-packet fault probabilities."""
        rules = []
        for action, rate in (
            (FaultAction.DROP, drop),
            (FaultAction.CORRUPT, corrupt),
            (FaultAction.DELAY, delay),
            (FaultAction.DUPLICATE, duplicate),
        ):
            if rate > 0.0:
                rules.append(FaultRule(action, rate=rate, delay_us=delay_us))
        return cls(rules=rules, seed=seed)

    def is_quiet(self) -> bool:
        """True when the plan can never perturb a packet (all rates zero,
        no periodic rules, no windows) — used by the determinism tests."""
        return (
            not self.flaps
            and not self.stalls
            and all(r.rate == 0.0 and r.every_nth == 0 for r in self.rules)
        )
