"""One repetition of one workload, in this (fresh) process.

Run by ``bench_e2e.py``, one subprocess at a time::

    python rep.py WORKLOAD SIZE SEED TRACE

Prints one JSON record as the last line of stdout: set-up time (importing
``repro`` and the entry points the workloads drive, plus every
``ClusterRuntime.build``), wall time of the workload with set-up excluded,
peak RSS, the simulated outputs' digest, the summed per-runtime counters,
and -- with ``TRACE`` = 1 -- the cProfile attribution by module and layer.
A workload that raises is reported, not propagated: every message it
attempted counts as failed.

Timings are rescaled to a reference host speed. The clock speed of a
shared host drifts (by up to 2× within minutes on the 2-CPU host the
baseline comes from), moving set-up and workload times together. A fixed
pure-Python loop, timed in this process just before set-up and just after
the workload, measures that speed; each timing is multiplied by
``REFERENCE_S / measured``. The raw seconds are kept in the record.
"""

from __future__ import annotations

import heapq
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
#: seconds :func:`reference_loop` takes on the baseline host at full clock
REFERENCE_S = 0.032


def reference_loop(n: int = 60_000) -> float:
    """Seconds a fixed interpreter-bound event loop takes: generator
    resumptions, heap pushes and pops, dict updates -- the simulator's mix."""

    def process():
        t = 0.0
        while True:
            t += (yield t) or 1.0

    t0 = perf_counter()
    gens = [process() for _ in range(64)]
    for gen in gens:
        next(gen)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, (gens[i & 63].send(0.5 + i % 7), i))
        if len(heap) > 64:
            heapq.heappop(heap)
        counts[i & 255] = counts.get(i & 255, 0) + 1
    return perf_counter() - t0


def reference_s() -> float:
    """Best of three :func:`reference_loop` timings (interference only adds)."""
    return min(reference_loop() for _ in range(3))


def main(argv: list[str]) -> int:
    workload, size, seed, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    ref_before = reference_s()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (timed: part of set-up)
    import workloads

    import_s = perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    attempted, fabric_payload = workloads.expected_traffic(workload, size)
    record = {"workload": workload, "size": size, "seed": seed, "traced": trace}
    problems: list[str] = []
    outcome = None
    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
    with workloads.RuntimeProbe() as probe:
        start = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcome = workloads.RUNNERS[workload](size, seed)
        except Exception as exc:  # a failed run is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            if profiler is not None:
                profiler.disable()
        wall_s = perf_counter() - start - probe.build_s
    ref_after = reference_s()
    counts = dict(probe.counts)
    if outcome is None:
        failed = attempted
    else:
        problems += outcome.problems
        lost = attempted - counts.get("recvs_completed", 0)
        failed = min(attempted, max(lost, 0) + outcome.bad_payloads + counts.get("gave_up", 0))
        if outcome.bad_payloads:
            problems.append(f"{outcome.bad_payloads} payloads differ from the ones sent")
        record.update(sim_time_us=outcome.sim_time_us, digest=workloads.digest(outcome.outputs))
    if counts.get("sends", attempted) != attempted:
        problems.append(f"posted {counts['sends']} sends, expected {attempted}")
    setup_s = import_s + probe.build_s
    record.update(
        setup_s=setup_s * REFERENCE_S / ref_before,
        wall_s=wall_s * REFERENCE_S / ((ref_before + ref_after) / 2),
        raw_setup_s=setup_s,
        raw_wall_s=wall_s,
        reference_s=[ref_before, ref_after],
        attempted=attempted,
        failed=failed,
        fabric_payload_bytes=fabric_payload,
        problems=problems,
        counts=counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if profiler is not None:
        import pstats

        from layers import Attribution

        attr = Attribution(pstats.Stats(profiler).stats)
        record["profile"] = {
            "total_s": attr.total_s,
            "layer_s": attr.by_layer(),
            "submodule_s": attr.by_submodule(),
            "calls_in": dict(attr.calls_in),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
