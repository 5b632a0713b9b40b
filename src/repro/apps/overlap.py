"""The overlap microbenchmark of §4.1/§4.2 (Fig. 4).

Paper pseudo-code::

    get_time(t1);
    nm_isend(len);       /* or nm_irecv on the other side */
    compute();
    nm_swait();
    get_time(t2);

The sender streams messages to the receiver; both interleave a fixed
computation per iteration, and each side measures its own ``t2 - t1``
("roughly … half the latency"). The figures plot the *sending time*
(sender side). With the baseline engine submission happens inline in
``isend``/``swait`` on the application thread, so the measured time is
``sum(communication, computation)``; with PIOMan the submission is
offloaded to an idle core and the time is ``max(communication,
computation)`` plus the ≈2 µs inter-CPU/tasklet overhead (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import EngineKind, TimingModel
from ..errors import HarnessError
from ..harness.runner import ClusterRuntime
from ..harness.stats import mean
from ..topology.numa import NumaModel

__all__ = ["OverlapConfig", "OverlapResult", "run_overlap"]


@dataclass(frozen=True)
class OverlapConfig:
    """Parameters of one overlap run."""

    engine: str = EngineKind.PIOMAN
    size: int = 4096
    compute_us: float = 20.0
    iterations: int = 20
    warmup: int = 4
    tag: int = 0
    timing: Optional[TimingModel] = None
    numa: Optional[NumaModel] = None
    nodes_cores: tuple[int, int] = (2, 4)  # (sockets, cores/socket)

    def __post_init__(self) -> None:
        EngineKind.validate(self.engine)
        if self.iterations <= 0:
            raise HarnessError("iterations must be > 0")
        if self.warmup < 0 or self.warmup >= self.iterations:
            raise HarnessError("need 0 <= warmup < iterations")
        if self.size < 0 or self.compute_us < 0:
            raise HarnessError("size and compute_us must be >= 0")


@dataclass
class OverlapResult:
    """Measured per-iteration times (post-warmup)."""

    config: OverlapConfig
    sender_times: list[float] = field(default_factory=list)
    receiver_times: list[float] = field(default_factory=list)
    total_us: float = 0.0

    @property
    def per_iteration_us(self) -> float:
        """The y-axis of Fig. 5/Fig. 6 ("Sending time"): the sender's mean
        per-iteration time after warmup."""
        return self.sender_mean_us

    @property
    def sender_mean_us(self) -> float:
        return mean(self.sender_times) if self.sender_times else 0.0

    @property
    def receiver_mean_us(self) -> float:
        return mean(self.receiver_times) if self.receiver_times else 0.0


def _sender_body(ctx, cfg: OverlapConfig, record: list[float]):
    """Fig. 4 sender: ``nm_isend(len); compute(); nm_swait();`` per iteration."""
    nm = ctx.env["nm"]
    for i in range(cfg.iterations):
        t0 = ctx.now
        req = yield from nm.isend(ctx, 1, cfg.tag, cfg.size, payload=i, buffer_id="overlap.sendbuf")
        if cfg.compute_us > 0:
            yield ctx.compute(cfg.compute_us)
        yield from nm.swait(ctx, req)
        if i >= cfg.warmup:
            record.append(ctx.now - t0)


def _receiver_body(ctx, cfg: OverlapConfig, record: list[float]):
    """Fig. 4 receiver: the same operations with irecv/rwait."""
    nm = ctx.env["nm"]
    for i in range(cfg.iterations):
        t0 = ctx.now
        req = yield from nm.irecv(ctx, 0, cfg.tag, cfg.size, buffer_id="overlap.recvbuf")
        if cfg.compute_us > 0:
            yield ctx.compute(cfg.compute_us)
        yield from nm.rwait(ctx, req)
        if i >= cfg.warmup:
            record.append(ctx.now - t0)


def run_overlap(cfg: OverlapConfig) -> OverlapResult:
    """Build a fresh cluster, run the benchmark, return measured times."""
    rt = ClusterRuntime.build(
        engine=cfg.engine,
        nodes=2,
        sockets=cfg.nodes_cores[0],
        cores_per_socket=cfg.nodes_cores[1],
        timing=cfg.timing,
        numa=cfg.numa,
    )
    result = OverlapResult(config=cfg)
    rt.spawn(0, lambda ctx: _sender_body(ctx, cfg, result.sender_times), name="sender")
    rt.spawn(1, lambda ctx: _receiver_body(ctx, cfg, result.receiver_times), name="receiver")
    result.total_us = rt.run()
    rt.close()
    expected = cfg.iterations - cfg.warmup
    if len(result.sender_times) != expected or len(result.receiver_times) != expected:
        raise HarnessError(
            f"overlap run lost iterations: {len(result.sender_times)}/"
            f"{len(result.receiver_times)} of {expected}"
        )
    return result
