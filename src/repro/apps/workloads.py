"""Synthetic workload generators.

§4.3 argues that "irregular applications that use asynchronous
communication primitives should benefit from the copy offloading" — these
generators produce such mixes for the extra examples and ablation benches:

* :func:`uniform_phases` — regular compute/communicate phases (BSP-style);
* :func:`irregular_phases` — log-normal compute bursts and random message
  sizes drawn from a seeded stream (deterministic per seed);
* :func:`master_worker` — a task-farm pattern stressing many concurrent
  small sends toward one rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import HarnessError
from ..sim.rng import RngStreams

__all__ = ["Phase", "uniform_phases", "irregular_phases", "master_worker_plan"]


@dataclass(frozen=True)
class Phase:
    """One compute+send step of a synthetic program."""

    compute_us: float
    msg_size: int
    peer_offset: int = 1  # send to (rank + offset) % size

    def __post_init__(self) -> None:
        if self.compute_us < 0 or self.msg_size < 0:
            raise HarnessError("phase parameters must be >= 0")


def uniform_phases(n: int, compute_us: float, msg_size: int) -> list[Phase]:
    """``n`` identical compute+send phases."""
    if n <= 0:
        raise HarnessError(f"need n > 0 phases, got {n}")
    return [Phase(compute_us, msg_size) for _ in range(n)]


def irregular_phases(
    n: int,
    mean_compute_us: float = 40.0,
    sigma: float = 0.8,
    min_msg: int = 256,
    max_msg: int = 16384,
    seed: int = 0,
    rng: Optional[RngStreams] = None,
) -> list[Phase]:
    """Log-normal compute bursts + uniform message sizes (deterministic).

    Draws from a numpy Generator seeded with the ``"workload.irregular"``
    substream seed of ``rng`` (or of ``RngStreams(seed)``); each call starts
    that stream afresh. numpy is imported here only.
    """
    if n <= 0:
        raise HarnessError(f"need n > 0 phases, got {n}")
    if min_msg > max_msg:
        raise HarnessError("min_msg must be <= max_msg")
    import numpy as np

    streams = rng or RngStreams(seed)
    # numpy's own Generator on the substream's seed: the normal and integer
    # draws need more than the pure-Python stream's random()
    g = np.random.default_rng(streams.derive_seed("workload.irregular"))

    mu = np.log(mean_compute_us) - sigma**2 / 2
    computes = np.exp(g.normal(mu, sigma, size=n))
    sizes = g.integers(min_msg, max_msg + 1, size=n)
    return [Phase(float(c), int(s)) for c, s in zip(computes, sizes)]


def master_worker_plan(
    workers: int,
    tasks: int,
    task_compute_us: float = 30.0,
    result_size: int = 2048,
) -> dict[str, object]:
    """Parameters for a task farm: workers compute and stream results to
    rank 0; evaluates many-to-one concurrent small sends."""
    if workers <= 0 or tasks <= 0:
        raise HarnessError("workers and tasks must be > 0")
    return {
        "workers": workers,
        "tasks": tasks,
        "task_compute_us": task_compute_us,
        "result_size": result_size,
    }
