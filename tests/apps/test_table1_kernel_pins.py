"""Table 1's kernel work, pinned run by run.

The two-iteration Table 1 convolution (both rows, both engines) is the
workload whose cores spend most of their time in long quiet computes, so
it is where the scheduler's tick chains pass the most boundaries. These
pins hold what each run does in the kernel — its end time, real events,
chain boundaries and the batches that passed them, run-aheads — and what
it charged: every core's busy/service/idle sums and every thread's CPU
time, bit for bit (as ``float.hex``, hashed). A change to how quiet ticks
are passed must leave every one of them as it is.
"""

from __future__ import annotations

import hashlib
from unittest import mock

from repro.harness.executors import ExecutionConfig
from repro.harness.experiments import experiment_table1
from repro.harness.runner import ClusterRuntime

#: (label, engine) -> (end µs, events_fired, chain_boundaries, chain_batches,
#: run_aheads, SHA-256 of the per-core sums and per-thread CPU times)
PINS: dict[tuple[str, str], tuple] = {
    ("4 threads", "sequential"): (
        854.0497070312503, 136, 332, 102, 0,
        "87b0eca32d8254dd101b26ea56c6d5771f83db7a5e60b031b0509098f3fc9c36",
    ),
    ("4 threads", "pioman"): (
        745.277578125, 268, 308, 92, 0,
        "c8688b5e84e941c97fa962adcf07f66b85cf0fdf21fb12223836ea93c377320f",
    ),
    ("16 threads", "sequential"): (
        2239.7920654296845, 704, 3244, 657, 143,
        "46689aa922dcc0c69a452deace339b2d2fcc9ebee6d0823e5c079b818b927da4",
    ),
    ("16 threads", "pioman"): (
        2008.9493733723962, 770, 3202, 338, 20,
        "d9b4c53e7a47b61f2394f36e5fb02d92a1b6bfb511fe228a28a101fe821affdb",
    ),
}


def _charges(rt: ClusterRuntime) -> str:
    values = []
    for nrt in rt.nodes:
        sched = nrt.scheduler
        for core in sched.cores:
            tl = core.timeline
            values += [tl.busy_us, tl.service_us, tl.idle_us]
        values += [t.cpu_us for t in sched.threads]
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


def _table1_runs() -> list[tuple]:
    runs: list[tuple] = []
    run = ClusterRuntime.run

    def recorded(rt, *args, **kwargs):
        end = run(rt, *args, **kwargs)
        sim = rt.sim
        runs.append(
            (end, sim.events_fired, sim.chain_boundaries, sim.chain_batches,
             sim.run_aheads, _charges(rt))
        )
        return end

    with mock.patch.object(ClusterRuntime, "run", recorded):
        experiment_table1(iterations=2, execution=ExecutionConfig.serial())
    return runs


def test_table1_kernel_work_is_pinned():
    runs = _table1_runs()
    assert len(runs) == len(PINS) == 4
    for got, (key, want) in zip(runs, PINS.items()):
        assert got == want, key
