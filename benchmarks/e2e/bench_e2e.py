"""End-to-end benchmark: the paper's experiments, with a per-layer wall-clock breakdown.

::

    python benchmarks/e2e/bench_e2e.py [--workload NAME] [--seed N] [--seconds S]
                                       [--trace [0|1]] [--quick] [--json PATH]

For each workload (all five by default, see ``workloads.py``) a set runs
one discarded warm-up repetition and then timed repetitions for
``--seconds``, at least three, each in a fresh subprocess, one at a time.
A repetition is a fixed amount of work (1/8 of the full-scale size, 1/20
with ``--quick``, which also skips the warm-up and needs one repetition).
The set reports the median of each end-to-end metric with min/max and n.

``--trace`` spends the second half of the budget on repetitions under
``cProfile`` and reports the per-layer metrics: each layer's self time per
message, share and boundary calls, sub-module shares, and the layers'
counters read through ``rt.metrics()`` after every runtime.

stdout carries one line per metric and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or the per-layer ones with ``--trace``; prefixed by workload when
several run). ``--json`` appends the whole run, with its host header, to a
results file. Exits 2 when ``src/repro`` is missing beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import LAYERS, SUBMODULES  # noqa: E402

#: work per workload at full scale: experiment iterations, ping-pong round
#: trips per (size, engine), storm rounds per engine. At full scale one
#: repetition takes 5-9 s on a 2-CPU host; the storm runs 500 rounds so
#: that the seed's effect on its fault count stays small next to noise.
FULL_SIZE = {
    "fig5_offload": 2000,
    "fig6_rdv": 1000,
    "table1_stencil": 250,
    "pingpong": 3000,
    "storm_lossy": 500,
}
WORKLOADS = tuple(FULL_SIZE)
SCALE = 1 / 8
QUICK_SCALE = 1 / 20
MIN_REPS = 3
DEFAULT_SECONDS = 20
#: a repetition takes seconds; one that runs this long is hung
REP_TIMEOUT_S = 150
SCHEMA = 1

#: name -> (unit, better, bound as a share of the parent commit's median)
END_TO_END = {
    "msgs_per_s": ("msg/s", "higher", 0.15),
    "wall_s": ("s", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}
#: printed beside the end-to-end metrics but held to exact values instead of
#: a bound: sim_time_us is part of the digest and fail_frac must stay 0
EXACT = {"sim_time_us": ("us", "lower"), "fail_frac": ("fraction", "lower")}

#: per-layer counters: name -> (unit, better)
COUNTERS = {
    "sim.events_per_msg": ("events/msg", "lower"),
    "sim.events_per_s": ("events/s", "higher"),
    "marcel.switches_per_msg": ("count/msg", "lower"),
    "marcel.tasklets_run_per_msg": ("count/msg", "lower"),
    "pioman.offloaded_ops_per_msg": ("count/msg", "higher"),
    "pioman.idle_activations_per_msg": ("count/msg", "lower"),
    "nmad.unexpected_per_msg": ("count/msg", "lower"),
    "nmad.sends_per_wire_send": ("ratio", "higher"),
    "nmad.reliability.retransmits_per_msg": ("count/msg", "lower"),
    "nmad.reliability.dup_drops_per_msg": ("count/msg", "lower"),
    "network.goodput_ratio": ("fraction", "higher"),
    "faults.injected_per_msg": ("count/msg", "lower"),
    "trace_overhead": ("ratio", "lower"),
}
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_us_per_msg"] = ("us/msg", "lower")
    PER_LAYER[f"{_layer}.share"] = ("fraction", "lower")
    PER_LAYER[f"{_layer}.calls_in_per_msg"] = ("calls/msg", "lower")
for _sub in SUBMODULES:
    PER_LAYER[f"{_sub}.share"] = ("fraction", "lower")
PER_LAYER.update(COUNTERS)
#: printed but left out of BENCHMARK.json: no workload calls the mpi layer,
#: and faults code runs only in storm_lossy, so these read 0 on every run
#: of a workload and no optimisation can move them there
UNDECLARED = frozenset(
    ("mpi.self_us_per_msg", "mpi.share", "mpi.calls_in_per_msg", "faults.self_us_per_msg")
)
DECLARED_PER_LAYER = {k: v for k, v in PER_LAYER.items() if k not in UNDECLARED}


# -- running repetitions ---------------------------------------------------------------


def run_rep(workload: str, size: int, seed: int, trace: bool) -> dict[str, Any]:
    """One repetition in a fresh single-threaded subprocess; waits for it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(size), str(seed), str(int(trace))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        rep = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        why = f"repetition exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        rep, why = None, f"repetition killed after {REP_TIMEOUT_S} s"
    if rep is None:
        rep = {"traced": trace, "problems": [why], "attempted": 0, "failed": 0}
    rep["elapsed_s"] = time.perf_counter() - t0
    return rep


def run_reps(workload: str, size: int, seed: int, trace: bool, min_reps: int,
             deadline: float) -> list[dict[str, Any]]:
    """At least ``min_reps`` repetitions, then more while the next one,
    judged by the last, still ends before ``deadline``."""
    reps: list[dict[str, Any]] = []
    while len(reps) < min_reps or time.perf_counter() + reps[-1]["elapsed_s"] <= deadline:
        reps.append(run_rep(workload, size, seed, trace))
        print(f"  {workload}: {'traced ' if trace else ''}rep {len(reps)} "
              f"{reps[-1]['elapsed_s']:.2f} s", file=sys.stderr)
    return reps


def rep_size(workload: str, quick: bool) -> int:
    """Work of one repetition; at least 5 keeps one post-warm-up iteration
    in the overlap experiments."""
    return max(5, round(FULL_SIZE[workload] * (QUICK_SCALE if quick else SCALE)))


def run_set(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            expected: dict[str, str]) -> dict[str, Any]:
    """Warm-up, timed (and traced) repetitions of one workload, summarised."""
    size = rep_size(workload, quick)
    warmup = [] if quick else [run_rep(workload, size, seed, False)]
    start = time.perf_counter()
    timed_budget = seconds / 2 if trace else seconds
    timed = run_reps(workload, size, seed, False, 1 if quick else MIN_REPS, start + timed_budget)
    traced = run_reps(workload, size, seed, True, 1, start + seconds) if trace else []
    reps = warmup + timed + traced

    problems = sorted({p for rep in reps for p in rep["problems"]})
    digests = {rep.get("digest") for rep in reps}
    counts = {json.dumps(rep.get("counts"), sort_keys=True) for rep in reps}
    if len(digests) > 1 or len(counts) > 1:
        problems.append("repetitions of one seed disagree: the simulation is not deterministic")
    digest = timed[0].get("digest")
    key = digest_key(workload, size, seed)
    result: dict[str, Any] = {
        "workload": workload,
        "size": size,
        "warmup_reps": len(warmup),
        "timed_reps": len(timed),
        "traced_reps": len(traced),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
        "correct": not problems,
        "digest": digest,
        "digest_key": key,
        "expected_digest": expected.get(key),
        "counts": timed[0].get("counts"),
        "reps": [{k: v for k, v in rep.items() if k != "counts"} for rep in reps],
    }
    if not problems:
        result["metrics"] = end_to_end_metrics(timed)
        if trace:
            result["per_layer"] = per_layer_metrics(timed, traced)
    return result


def digest_key(workload: str, size: int, seed: int) -> str:
    """Where a run's digest is filed in ``expected_digests.json``; only the
    storm's simulated outputs depend on the seed."""
    return f"{workload}/{size}" + (f"/seed={seed}" if workload == "storm_lossy" else "")


# -- metrics -----------------------------------------------------------------------------


def summary(values: list[float], unit: str) -> dict[str, Any]:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def end_to_end_metrics(timed: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    per_rep = {
        "msgs_per_s": [r["attempted"] / r["wall_s"] for r in timed],
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "sim_time_us": [r["sim_time_us"] for r in timed],
        "fail_frac": [r["failed"] / r["attempted"] for r in timed],
    }
    units = {name: spec[0] for name, spec in {**END_TO_END, **EXACT}.items()}
    return {name: summary(values, units[name]) for name, values in per_rep.items()}


def per_layer_metrics(timed: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-layer metrics of the traced repetitions (median over them), with
    rates taken against the untraced median wall time."""
    msgs = timed[0]["attempted"]
    untraced_wall = statistics.median(r["wall_s"] for r in timed)
    per_rep: dict[str, list[float]] = {}
    for rep in traced:
        prof = rep["profile"]
        total = prof["total_s"]
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_us_per_msg"] = prof["layer_s"][layer] * 1e6 / msgs
            values[f"{layer}.share"] = prof["layer_s"][layer] / total
            values[f"{layer}.calls_in_per_msg"] = prof["calls_in"].get(layer, 0) / msgs
        for sub in SUBMODULES:
            values[f"{sub}.share"] = prof["submodule_s"][sub] / total
        values["trace_overhead"] = rep["wall_s"] / untraced_wall
        for name, value in values.items():
            per_rep.setdefault(name, []).append(value)
    c = {"faults_injected": 0, **timed[0]["counts"]}  # no fault plan, no fault counter
    counters = {
        "sim.events_per_msg": c["events"] / msgs,
        "sim.events_per_s": c["events"] / untraced_wall,
        "marcel.switches_per_msg": c["switches"] / msgs,
        "marcel.tasklets_run_per_msg": c["tasklets_run"] / msgs,
        "pioman.offloaded_ops_per_msg": c["offloaded_ops"] / msgs,
        "pioman.idle_activations_per_msg": c["idle_activations"] / msgs,
        "nmad.unexpected_per_msg": c["unexpected"] / msgs,
        "nmad.sends_per_wire_send": c["sends"] / c["wire_sends"],
        "nmad.reliability.retransmits_per_msg": c["retransmits"] / msgs,
        "nmad.reliability.dup_drops_per_msg": c["dup_drops"] / msgs,
        "network.goodput_ratio": timed[0]["fabric_payload_bytes"] / c["fabric_bytes"],
        "faults.injected_per_msg": c["faults_injected"] / msgs,
    }
    out = {name: summary(values, PER_LAYER[name][0]) for name, values in per_rep.items()}
    for name, value in counters.items():
        out[name] = summary([value], PER_LAYER[name][0])
    return out


# -- reporting ---------------------------------------------------------------------------


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def header(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "bench": "e2e",
        "schema": SCHEMA,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "quick": args.quick,
        "seed": args.seed,
        "loadavg": list(os.getloadavg()),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def print_set(result: dict[str, Any]) -> None:
    w = result["workload"]
    print(f"== {w}: size {result['size']}, {result['warmup_reps']} warm-up + "
          f"{result['timed_reps']} timed + {result['traced_reps']} traced repetitions")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")
    for section in ("metrics", "per_layer"):
        for name, m in result.get(section, {}).items():
            line = f"  {w}.{name} = {m['value']:.6g} {m['unit']}"
            if m["n"] > 1:
                line += f" (median of {m['n']}; min {m['min']:.6g}, max {m['max']:.6g})"
            print(line)
    expected, digest = result["expected_digest"], result["digest"]
    if expected is None:
        print(f"  digest {digest} (no reference for {result['digest_key']})")
    elif expected == digest:
        print(f"  digest {digest} matches the reference")
    else:
        print("  " + "!" * 72)
        print(f"  DIGEST MISMATCH for {result['digest_key']}: simulated behaviour changed")
        print(f"    expected {expected}\n    got      {digest}")
        print("  " + "!" * 72)


def final_line(results: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The last stdout line: correctness, message counts, and the declared
    metrics (end-to-end, or per-layer with ``--trace``)."""
    declared = DECLARED_PER_LAYER if trace else END_TO_END
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        section = result.get("per_layer" if trace else "metrics", {})
        for name in declared:
            if name in section:
                m = section[name]
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def load_results(path: Path) -> dict[str, Any]:
    """The results file at ``path``, or a new empty one."""
    if not path.exists():
        return {"bench": "e2e", "schema": SCHEMA, "runs": []}
    doc = json.loads(path.read_text(encoding="utf-8"))
    if (doc.get("bench"), doc.get("schema")) != ("e2e", SCHEMA):
        raise SystemExit(f"{path} holds results of another benchmark or schema")
    return doc


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"measurement budget per workload (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run under cProfile and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of full scale, no warm-up, one repetition minimum")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="append this run, with its host header, to a results file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    expected = json.loads((HERE / "expected_digests.json").read_text(encoding="utf-8"))
    results_doc = load_results(args.json) if args.json else None
    run = header(args)
    results = []
    for workload in args.workload or WORKLOADS:
        result = run_set(workload, args.seed, args.seconds, bool(args.trace), args.quick, expected)
        print_set(result)
        results.append(result)
    run["workloads"] = {r["workload"]: r for r in results}
    if results_doc is not None:
        results_doc["runs"].append(run)
        args.json.write_text(json.dumps(results_doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
