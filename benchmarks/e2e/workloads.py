"""The five end-to-end workloads, driven through the repo's public entry points.

Each workload is a closed loop in simulated time: one single-threaded
process runs a fixed amount of work and returns its simulated outputs. The
work is set by ``size`` (experiment iterations, ping-pong round trips per
message size and engine, or storm rounds per engine), so the same size
always posts the same messages.

* ``fig5_offload`` -- ``experiment_fig5``: eager submission and PIOMan copy
  offload to idle cores (nmad- and marcel-heavy).
* ``fig6_rdv`` -- ``experiment_fig6``: the rendezvous handshake progressed
  by idle-core polling (the kernel's largest share).
* ``table1_stencil`` -- ``experiment_table1``: the only workload with up to
  8 threads per node contending for cores.
* ``pingpong`` -- the ``repro demo`` ping-pong at 64 B and 128 KiB: no
  compute to overlap, so it bypasses PIOMan's offload benefit and is the
  control for offload changes.
* ``storm_lossy`` -- bursts of 1 KiB isends on two rails with windowed
  aggregation over a lossy wire with recovery on: the only workload that
  runs the fault injector, the reliability layer, multirail aggregation and
  the retransmit timers the kernel cancels.

``fig5``/``fig6``/``table1`` are the paper's seed-free experiments. The
seed feeds ``ClusterRuntime.build(seed=)``, the ping-pong payload tokens
and the storm's fault plan.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter
from typing import Any, Callable

from repro.apps.convolution import ConvolutionConfig
from repro.config import EngineKind
from repro.faults import FaultPlan
from repro.harness.executors import ExecutionConfig
from repro.harness.experiments import (
    FIG5_SIZES,
    FIG6_SIZES,
    TABLE1_CONFIGS,
    experiment_fig5,
    experiment_fig6,
    experiment_table1,
)
from repro.harness.runner import ClusterRuntime
from repro.units import KiB

ENGINES = (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
#: the experiments run serially in this process whatever $REPRO_BENCH_WORKERS says
SERIAL = ExecutionConfig.serial()

PINGPONG_SIZES = (64, KiB(128))
STORM_BURST = 32
STORM_MSG = KiB(1)
FIG5_COMPUTE_US = 20.0
FIG6_COMPUTE_US = 100.0


@dataclass
class Outcome:
    """What one workload run produced, in simulated terms."""

    #: headline simulated time (µs) -- see each workload for its definition
    sim_time_us: float
    #: JSON-able simulated outputs; their SHA-256 is the run's digest
    outputs: Any
    #: messages whose received payload differed from the one sent
    bad_payloads: int = 0
    #: shape or ordering checks that failed, one line each
    problems: list[str] = field(default_factory=list)


def digest(outputs: Any) -> str:
    """SHA-256 of the canonical JSON of a workload's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- message accounting ------------------------------------------------------------


def _stencil_messages(rows: int, cols: int) -> tuple[int, int]:
    """(messages, inter-node messages) one convolution iteration posts."""
    cfg = ConvolutionConfig(grid_rows=rows, grid_cols=cols)
    msgs = inter = 0
    for r in range(rows):
        for c in range(cols):
            for nr, nc in cfg.neighbors(r, c):
                msgs += 1
                inter += cfg.node_of(r, c) != cfg.node_of(nr, nc)
    return msgs, inter


def expected_traffic(workload: str, size: int) -> tuple[int, int]:
    """(application messages, payload bytes that cross the fabric) a run
    of ``workload`` at ``size`` posts. Known before the run, so a run that
    raises can still count every message as failed."""
    if workload in ("fig5_offload", "fig6_rdv"):
        sizes = FIG5_SIZES if workload == "fig5_offload" else FIG6_SIZES
        # three series (reference, baseline, PIOMan) per message size
        return 3 * len(sizes) * size, 3 * sum(sizes) * size
    if workload == "table1_stencil":
        msgs = payload = 0
        for _label, (rows, cols), msg, _f, _i in TABLE1_CONFIGS:
            n, inter = _stencil_messages(rows, cols)
            msgs += n
            payload += inter * msg
        return len(ENGINES) * msgs * size, len(ENGINES) * payload * size
    if workload == "pingpong":
        per_engine = 2 * size * len(PINGPONG_SIZES)
        return len(ENGINES) * per_engine, len(ENGINES) * 2 * size * sum(PINGPONG_SIZES)
    if workload == "storm_lossy":
        msgs = len(ENGINES) * size * STORM_BURST
        return msgs, msgs * STORM_MSG
    raise KeyError(workload)


# -- the paper's experiments ---------------------------------------------------------


def _check_overlap_shape(res, base: str, piom: str, slack_us: float) -> list[str]:
    """The sum/max shapes of Fig. 5/6 with the bounds the figure benches use:
    baseline = reference + compute (15 %), PIOMan = max(reference, compute)
    within [-0.5, +slack] µs, and PIOMan never slower than baseline."""
    problems = []
    ref = res.series["No computation (reference)"]
    compute = res.compute_us
    for x, r, b, p in zip(res.x_values, ref, res.series[base], res.series[piom]):
        if abs(b - (r + compute)) > 0.15 * (r + compute):
            problems.append(f"{res.name} sum shape broken at {x}: {b} vs {r} + {compute}")
        if not max(r, compute) - 0.5 <= p <= max(r, compute) + slack_us:
            problems.append(f"{res.name} max shape broken at {x}: {p} vs max({r}, {compute})")
        if p > b + 0.5:
            problems.append(f"{res.name} offloading slower than baseline at {x}")
    return problems


def fig5_offload(size: int, seed: int) -> Outcome:
    res = experiment_fig5(iterations=size, compute_us=FIG5_COMPUTE_US, execution=SERIAL)
    return Outcome(
        sim_time_us=fmean(res.series["copy offloading"]),
        outputs=res.to_dict(),
        problems=_check_overlap_shape(res, "No copy offloading", "copy offloading", 5.0),
    )


def fig6_rdv(size: int, seed: int) -> Outcome:
    res = experiment_fig6(iterations=size, compute_us=FIG6_COMPUTE_US, execution=SERIAL)
    return Outcome(
        sim_time_us=fmean(res.series["RDV progression"]),
        outputs=res.to_dict(),
        problems=_check_overlap_shape(res, "No RDV progression", "RDV progression", 6.0),
    )


def table1_stencil(size: int, seed: int) -> Outcome:
    res = experiment_table1(iterations=size, execution=SERIAL)
    # over many iterations the speedup settles below the paper's
    # single-iteration 14 %/13 %, so only the ordering is asserted
    problems = [
        f"table1 {row['label']}: offloading {row['offloading_us']} not below "
        f"no-offloading {row['no_offloading_us']}"
        for row in res.rows
        if not row["offloading_us"] < row["no_offloading_us"]
    ]
    return Outcome(
        sim_time_us=fmean(row["offloading_us"] for row in res.rows),
        outputs=res.to_dict(),
        problems=problems,
    )


# -- workloads the benchmark builds itself ---------------------------------------------


def pingpong(size: int, seed: int) -> Outcome:
    """``size`` round trips per message size and engine; every echoed
    payload token must come back unchanged."""
    rng = random.Random(seed)
    outputs = []
    bad = 0
    total_end = 0.0
    for msg_size in PINGPONG_SIZES:
        for engine in ENGINES:
            tokens = [rng.getrandbits(63) for _ in range(size)]
            echoed: list[Any] = []
            rtt_end: list[float] = []
            rt = ClusterRuntime.build(engine=engine, seed=seed)

            def origin(ctx, tokens=tokens, echoed=echoed, rtt_end=rtt_end, msg_size=msg_size):
                nm = ctx.env["nm"]
                for i, token in enumerate(tokens):
                    yield from nm.send(ctx, 1, i, msg_size, payload=token)
                    req = yield from nm.recv(ctx, 1, i, msg_size)
                    echoed.append(req.data)
                    rtt_end.append(ctx.now)
                yield from nm.drain(ctx)

            def echo(ctx, msg_size=msg_size):
                nm = ctx.env["nm"]
                for i in range(size):
                    req = yield from nm.recv(ctx, 0, i, msg_size)
                    yield from nm.send(ctx, 0, i, msg_size, payload=req.data)
                yield from nm.drain(ctx)

            rt.spawn(0, origin, name="origin")
            rt.spawn(1, echo, name="echo")
            end = rt.run()
            rt.close()
            bad += sum(a != b for a, b in zip(tokens, echoed)) + len(tokens) - len(echoed)
            total_end += end
            outputs.append(
                {"engine": engine, "size": msg_size, "end_us": end, "rtt_end_us": rtt_end}
            )
    return Outcome(
        sim_time_us=total_end / (size * len(PINGPONG_SIZES) * len(ENGINES)),
        outputs=outputs,
        bad_payloads=bad,
    )


def storm_lossy(size: int, seed: int) -> Outcome:
    """``size`` rounds of 32 × 1 KiB isends per engine over two aggregating
    rails and a lossy wire; every ``(round, i)`` payload must arrive intact
    at the receive posted for it."""
    outputs = []
    bad = 0
    total_end = 0.0
    for engine in ENGINES:
        rt = ClusterRuntime.build(
            engine=engine,
            seed=seed,
            rails=2,
            strategy="aggreg",
            strategy_kwargs={"flush_window_us": 5.0},
            faults=FaultPlan.lossy(drop=0.02, corrupt=0.01, duplicate=0.01, seed=seed),
            recover=True,
        )
        received: list[Any] = []
        round_end: list[float] = []

        def sender(ctx):
            nm = ctx.env["nm"]
            for r in range(size):
                reqs = []
                for i in range(STORM_BURST):
                    req = yield from nm.isend(ctx, 1, i, STORM_MSG, payload=(r, i))
                    reqs.append(req)
                yield from nm.wait_all(ctx, reqs)
            yield from nm.drain(ctx)

        def receiver(ctx, received=received, round_end=round_end):
            nm = ctx.env["nm"]
            for _ in range(size):
                reqs = []
                for i in range(STORM_BURST):
                    req = yield from nm.irecv(ctx, 0, i, STORM_MSG)
                    reqs.append(req)
                yield from nm.wait_all(ctx, reqs)
                received.extend(req.data for req in reqs)
                round_end.append(ctx.now)
            yield from nm.drain(ctx)

        rt.spawn(0, sender, name="sender")
        rt.spawn(1, receiver, name="receiver")
        end = rt.run()
        expected = [(r, i) for r in range(size) for i in range(STORM_BURST)]
        bad += sum(a != b for a, b in zip(expected, received)) + len(expected) - len(received)
        total_end += end
        outputs.append(
            {
                "engine": engine,
                "end_us": end,
                "round_end_us": round_end,
                "faults": rt.fault_injector.stats(),
                "recovery": rt.recovery_stats(),
            }
        )
        rt.close()
    return Outcome(
        sim_time_us=total_end / (size * STORM_BURST * len(ENGINES)),
        outputs=outputs,
        bad_payloads=bad,
    )


RUNNERS: dict[str, Callable[[int, int], Outcome]] = {
    "fig5_offload": fig5_offload,
    "fig6_rdv": fig6_rdv,
    "table1_stencil": table1_stencil,
    "pingpong": pingpong,
    "storm_lossy": storm_lossy,
}


# -- counters ------------------------------------------------------------------------

#: driver counters that put application data on a wire (control frames excluded)
DATA_SEND_KEYS = frozenset(
    ("eager_sends", "pio_sends", "inline_sends", "zero_copy_sends", "rdma_writes")
)
#: per-node counters summed across nodes and runtimes, by (lane, key)
NODE_COUNTERS = {
    ("session", "sends"): "sends",
    ("session", "unexpected_eager"): "unexpected",
    ("session", "unexpected_rts"): "unexpected",
    ("scheduler", "switches"): "switches",
    ("scheduler", "tasklets_run"): "tasklets_run",
    ("pioman", "offloaded_ops"): "offloaded_ops",
    ("pioman", "idle_activations"): "idle_activations",
    ("reliability", "retransmits"): "retransmits",
    ("reliability", "dup_drops"): "dup_drops",
    ("reliability", "gave_up"): "gave_up",
    ("latency", "recv_us.count"): "recvs_completed",
}
FAULT_KEYS = frozenset(
    ("drops", "corruptions", "delays", "duplicates", "flap_drops", "stall_delays")
)


def harvest(snapshot: dict[str, Any], events_fired: int, counts: Counter) -> None:
    """Add one finished runtime's counters (its ``rt.metrics()`` snapshot
    and ``rt.sim.events_fired``) into ``counts``."""
    counts["runtimes"] += 1
    counts["events"] += events_fired
    for key, value in snapshot.items():
        head, _, rest = key.partition(".")
        if head == "fabric":
            if rest.partition(".")[2] == "bytes":  # fabric.<name>.bytes, not per link
                counts["fabric_bytes"] += int(value)
        elif head == "faults":
            if rest in FAULT_KEYS:
                counts["faults_injected"] += value
        elif head[:1] == "n" and head[1:].isdigit():
            lane, _, stat = rest.partition(".")
            if lane == "driver":
                if stat.partition(".")[2] in DATA_SEND_KEYS:
                    counts["wire_sends"] += value
            elif (lane, stat) in NODE_COUNTERS:
                counts[NODE_COUNTERS[lane, stat]] += value


class RuntimeProbe:
    """Times every ``ClusterRuntime.build`` and harvests each runtime's
    counters right after its ``run`` returns.

    Installed around one workload run as a context manager. The wrappers
    only observe: they add host time and read counters, never simulated
    time, so digests are unchanged with the probe installed.
    """

    def __init__(self) -> None:
        self.build_s = 0.0
        self.counts: Counter = Counter()

    def __enter__(self) -> "RuntimeProbe":
        self._build = ClusterRuntime.__dict__["build"]
        self._run = ClusterRuntime.__dict__["run"]
        build, run, probe = self._build.__func__, self._run, self

        def timed_build(cls, *args, **kwargs):
            t0 = perf_counter()
            try:
                return build(cls, *args, **kwargs)
            finally:
                probe.build_s += perf_counter() - t0

        def harvested_run(rt, *args, **kwargs):
            end = run(rt, *args, **kwargs)
            harvest(rt.metrics(), rt.sim.events_fired, probe.counts)
            return end

        ClusterRuntime.build = classmethod(timed_build)
        ClusterRuntime.run = harvested_run
        return self

    def __exit__(self, *exc: object) -> None:
        ClusterRuntime.build = self._build
        ClusterRuntime.run = self._run
