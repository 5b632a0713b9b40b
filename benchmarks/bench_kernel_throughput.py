"""Perf trajectory: kernel hot-path events/sec + multicore sweep wall-clock.

Two measurements feed ``BENCH_kernel.json`` (the repo's performance
record, uploaded by the CI perf-smoke job and checked in at the repo
root — see ``docs/performance.md``):

* **Kernel event storm** — an engine-shaped storm (self-rearming chains
  with mixed-magnitude delays and ack-cancelled retransmit timers at a
  realistic RTO) run through the current
  :class:`~repro.sim.kernel.Simulator` and through ``_SeedSimulator``, a
  faithful in-file copy of the original kernel fast path (a binary heap of
  handles compared by ``__lt__``, no cancelled-entry compaction — the
  ``fast_events_per_sec`` baseline of schema-1 records). Trials are
  interleaved across the two kernels and the best of each is compared,
  which keeps the ratio stable on noisy shared runners. Both kernels must
  fire the identical event sequence; ``test_queue_kernels_fire_identically``
  pins it with a digest, and is the one ordering reference for the kernel
  that does not share its code.

* **Sweep parallelism** — the same ablation-style overlap grid run with
  ``sweep(..., execution=ExecutionConfig.serial())`` and
  ``execution=ExecutionConfig.pool(N)`` (default 4), asserting the
  rows come back byte-identical and recording both wall-clock times. The
  speedup is only meaningful when the machine actually has ≥ N CPUs;
  ``cpu_count`` is recorded alongside so the number can be read honestly.

The record starts with the shared ``BENCH_*.json`` header (host and
commit).

Run as a script (CI uses ``--quick``)::

    python benchmarks/bench_kernel_throughput.py [--quick] [--workers N] [--json PATH]

or under pytest for the smoke assertions (``pytest -m perf`` lane).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import sys
import time
from typing import Any, Callable

import pytest

from repro.errors import SimulationError
from repro.harness.executors import ExecutionConfig, sweep
from repro.harness.report import bench_header
from repro.sim.events import Priority, _noop
from repro.sim.kernel import Simulator

# -- the original fast path, preserved as the trajectory baseline --------------


class _SeedHandle:
    """The original event handle: the heap stores handles themselves and
    orders them through ``__lt__`` on a cached ``(time, priority, seq)``."""

    __slots__ = ("time", "priority", "seq", "_key", "_fn", "_args", "cancelled", "fired", "label")

    def __init__(self, time, priority, seq, fn, args, label=""):
        self.time = time
        self.priority = priority
        self.seq = seq
        self._key = (time, priority, seq)
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        self.label = label

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True

    def _fire(self) -> None:
        self.fired = True
        self._fn(*self._args)
        self._fn = _noop
        self._args = ()

    def __lt__(self, other: "_SeedHandle") -> bool:
        return self._key < other._key


class _SeedSimulator:
    """Faithful in-file copy of the original kernel fast path.

    Binary heap only, cancelled events dropped lazily when they surface
    (never compacted — an ack-cancelled retransmit timer occupies the
    heap until its timestamp comes up), a fresh ``_SeedHandle`` per
    schedule, one Python frame per ``schedule``→``schedule_at``. This is
    what schema-1 ``BENCH_kernel.json`` recorded as
    ``fast_events_per_sec``; keeping a live copy makes the recorded
    speedup reproducible instead of a cross-machine comparison.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[_SeedHandle] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_fired = 0
        self._observers: list[Callable[[float], None]] = []

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, fn, *args, priority=Priority.NORMAL, label=""):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority, label=label)

    def schedule_at(self, time, fn, *args, priority=Priority.NORMAL, label=""):
        if time < self._now:
            raise SimulationError(f"cannot schedule at t={time} before now={self._now}")
        self._seq += 1
        handle = _SeedHandle(time, priority, self._seq, fn, args, label)
        heapq.heappush(self._heap, handle)
        return handle

    # every seed event was cancellable: a timer is an event
    timer = schedule_at

    def stop(self) -> None:
        self._stopped = True

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while not self._stopped:
                while heap and heap[0].cancelled:
                    heappop(heap)
                if not heap:
                    break
                if until is not None and heap[0].time > until:
                    self._now = until
                    break
                handle = heappop(heap)
                self._now = handle.time
                handle._fire()
                self.events_fired += 1
                observers = self._observers
                if observers:
                    for ob in tuple(observers):
                        ob(self._now)
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now:.3f}µs "
                        "(runaway simulation?)"
                    )
        finally:
            self._running = False
        return self._now


# -- kernel event storm --------------------------------------------------------

#: mixed-magnitude rearm delays: wire deliveries, DMA completions, poll
#: ticks — the dense near-term mode of an engine schedule
_DELAYS = (0.3, 1.0, 2.7, 7.9, 23.0, 61.0)

#: retransmission timeout, deliberately huge next to the rearm delays —
#: real RTOs are orders of magnitude above the per-message event spacing,
#: so nearly every timer is cancelled by its ack long before it could
#: fire and the cancelled entry sits in the queue meanwhile
_RTO_US = 50_000.0


def _event_storm(sim: Any, n_events: int, chains: int = 96) -> int:
    """Engine-shaped storm: dense mixed-delay chains + ack-cancelled timers.

    Every third tick behaves like a send completing under the reliability
    layer: it cancels the chain's previous retransmit timer (the ack) and
    arms a fresh one ``_RTO_US`` out with ``timer``, the one call that
    returns a cancellable handle. Exercises push/pop ordering, mixed
    priorities, the cancelled-entry path, and — in the current kernel —
    compaction. Returns events fired.
    """
    counter = [0]
    timers: dict[int, Any] = {}

    def retransmit(chain: int) -> None:
        counter[0] += 1

    def tick(chain: int) -> None:
        c = counter[0] = counter[0] + 1
        if c < n_events:
            sim.schedule(_DELAYS[(c + chain) % 6], tick, chain, priority=chain % 3)
            if c % 3 == 0:
                old = timers.get(chain)
                if old is not None:
                    old.cancel()
                timers[chain] = sim.timer(sim.now + _RTO_US, retransmit, chain)

    for c in range(chains):
        sim.schedule(float(c) * 0.1, tick, c)
    sim.run()
    return counter[0]


_IMPLS: dict[str, Callable[[], Any]] = {
    "seed": _SeedSimulator,
    "kernel": Simulator,
}


def _storm_digest(factory: Callable[[], Any], n_events: int = 4_000) -> str:
    """Digest of the exact fire sequence (time, chain, counter) of a storm."""
    sim = factory()
    log: list[tuple[float, int, int]] = []
    counter = [0]
    timers: dict[int, Any] = {}

    def retransmit(chain: int) -> None:
        counter[0] += 1
        log.append((sim.now, chain, counter[0]))

    def tick(chain: int) -> None:
        c = counter[0] = counter[0] + 1
        log.append((sim.now, chain, c))
        if c < n_events:
            sim.schedule(_DELAYS[(c + chain) % 6], tick, chain, priority=chain % 3)
            if c % 3 == 0:
                old = timers.get(chain)
                if old is not None:
                    old.cancel()
                timers[chain] = sim.timer(sim.now + _RTO_US, retransmit, chain)

    for c in range(16):
        sim.schedule(float(c) * 0.1, tick, c)
    sim.run()
    return hashlib.blake2s(repr(log).encode()).hexdigest()


def measure_kernel(n_events: int, trials: int = 5) -> dict[str, Any]:
    """Best-of-``trials`` events/sec of the seed and current kernels,
    trials interleaved."""
    best = {name: float("inf") for name in _IMPLS}
    fired: dict[str, int] = {}
    for _ in range(trials):
        for name, factory in _IMPLS.items():
            sim = factory()
            t0 = time.perf_counter()
            fired[name] = _event_storm(sim, n_events)
            best[name] = min(best[name], time.perf_counter() - t0)
    assert len(set(fired.values())) == 1, f"kernels fired different events: {fired}"
    eps = {name: fired[name] / best[name] for name in _IMPLS}
    sim = Simulator()
    _event_storm(sim, n_events)
    return {
        "events": fired["seed"],
        "trials": trials,
        "storm": {"chains": 96, "delays_us": list(_DELAYS), "rto_us": _RTO_US},
        "events_per_sec": {name: round(eps[name]) for name in _IMPLS},
        "speedup_vs_seed": round(eps["kernel"] / eps["seed"], 3),
        "queue": sim.queue_stats(),
    }


# -- sweep wall-clock: serial vs parallel --------------------------------------


def _sweep_point(size: int, compute_us: float, iterations: int) -> dict[str, float]:
    """One overlap grid point (top-level so parallel workers can import it)."""
    from repro.apps.overlap import OverlapConfig, run_overlap
    from repro.config import EngineKind

    res = run_overlap(
        OverlapConfig(
            engine=EngineKind.PIOMAN, size=size, compute_us=compute_us,
            iterations=iterations,
        )
    )
    return {"time_us": res.per_iteration_us}


def measure_sweep(quick: bool, workers: int) -> dict[str, Any]:
    """Wall-clock of the same grid run serially vs on a pool of ``workers``."""
    if quick:
        grid = {"size": [4096, 16384], "compute_us": [20.0], "iterations": [8]}
    else:
        # sized so serial wall-clock is >10s: with a ~1-2s spawn cost for
        # 4 workers, a ≥2.5× parallel speedup is reachable on a ≥4-CPU host
        grid = {
            "size": [4096, 16384, 65536, 262144],
            "compute_us": [20.0, 60.0, 100.0],
            "iterations": [3000],
        }
    t0 = time.perf_counter()
    serial = sweep(_sweep_point, grid, execution=ExecutionConfig.serial())
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sweep(_sweep_point, grid, execution=ExecutionConfig.pool(workers))
    parallel_s = time.perf_counter() - t0
    identical = serial.rows == parallel.rows
    assert identical, "parallel sweep must reproduce serial rows byte-identically"
    return {
        "grid_points": len(serial.rows),
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "workers": workers,
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "rows_identical": identical,
    }


def run_bench(quick: bool = False, workers: int = 4) -> dict[str, Any]:
    n_events = 30_000 if quick else 150_000
    kernel = measure_kernel(n_events, trials=3 if quick else 5)
    sweep_res = measure_sweep(quick, workers)
    return {
        **bench_header("kernel_throughput", 4, quick),
        "kernel": kernel,
        "sweep": sweep_res,
    }


# -- pytest smoke (perf lane) --------------------------------------------------


@pytest.mark.perf
def test_kernel_not_slower_than_seed():
    """The kernel (tuple-keyed heap with compaction, one inlined run loop)
    must at least match the seed fast path (a generous margin because
    shared CI runners are noisy; BENCH_kernel.json records the real ratio
    on the ack-heavy storm)."""
    result = measure_kernel(40_000, trials=3)
    assert result["speedup_vs_seed"] >= 1.0, f"kernel regressed: {result}"


@pytest.mark.perf
def test_parallel_sweep_rows_identical():
    result = measure_sweep(quick=True, workers=2)
    assert result["rows_identical"]


def test_queue_kernels_fire_identically():
    """Correctness guard, independent of timing: every kernel executes the
    storm event-for-event — identical fire sequence digest, final virtual
    time, and event count."""
    digests = {name: _storm_digest(factory) for name, factory in _IMPLS.items()}
    assert len(set(digests.values())) == 1, f"kernels diverged: {digests}"
    sims = {name: factory() for name, factory in _IMPLS.items()}
    fired = {name: _event_storm(sim, 5_000, chains=16) for name, sim in sims.items()}
    assert len(set(fired.values())) == 1, fired
    assert len({sim.now for sim in sims.values()}) == 1
    assert len({sim.events_fired for sim in sims.values()}) == 1


def test_bench_kernel_storm(benchmark):
    benchmark(lambda: _event_storm(Simulator(), 20_000))


# -- script entry point --------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-smoke sizes")
    parser.add_argument("--workers", type=int, default=4, help="parallel sweep worker count")
    parser.add_argument("--json", metavar="PATH", default=None, help="write results JSON to PATH")
    args = parser.parse_args(argv)
    result = run_bench(quick=args.quick, workers=args.workers)
    print(json.dumps(result, indent=2))
    k, s = result["kernel"], result["sweep"]
    eps = k["events_per_sec"]
    parts = [f"{name} {rate:,} ev/s" for name, rate in eps.items()]
    print("\nkernel storm : " + " | ".join(parts), file=sys.stderr)
    print(f"  kernel vs seed: {k['speedup_vs_seed']}x", file=sys.stderr)
    print(
        f"sweep {s['grid_points']} points : serial {s['serial_seconds']}s vs "
        f"{s['workers']}-worker {s['parallel_seconds']}s -> {s['speedup']}x "
        f"(on {result['cpu_count']} CPUs)",
        file=sys.stderr,
    )
    if (result["cpu_count"] or 1) < s["workers"]:
        print(
            f"note: only {result['cpu_count']} CPUs available — parallel "
            "speedup is not expected to materialize on this machine",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
