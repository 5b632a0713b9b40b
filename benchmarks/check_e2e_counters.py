"""Gate on the deterministic work counters of the end-to-end benchmark.

::

    python benchmarks/check_e2e_counters.py [--results PATH] [--baseline PATH] [--record]

Wall-clock time on a shared runner is noisy, but much of what
``bench_e2e`` records is exact: every repetition of a workload agrees on
its event count and the layers' counters, and cProfile's boundary calls
into each layer are identical across traced repetitions. This script
compares those against the checked-in baseline ``BENCH_e2e_counters.json``
and exits 1 when, on any workload,

* ``sim.events_per_msg`` rises above the baseline,
* any layer's ``calls_in_per_msg`` rises above the baseline, or
* an exact count (``counts``: events, switches, wire sends, ...) differs.

Counters that fall pass; re-record the baseline (``--record``) to keep
the gain, and say so in CHANGES.md. cProfile's call counts depend on the
interpreter, so the check refuses (exit 2) a baseline recorded under
another Python minor version: run it on the baseline's Python.

Without ``--results`` it runs ``bench_e2e.py --quick --seconds 0 --trace``
itself (about a minute on a 2-CPU host); ``--results`` reads a results
file written by ``bench_e2e.py --json`` instead (its last run).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "BENCH_e2e_counters.json"
BENCH_ARGS = ["--quick", "--seconds", "0", "--trace"]
SCHEMA = 1
CALLS_IN = ".calls_in_per_msg"


def reduce_run(run: dict[str, Any]) -> dict[str, Any]:
    """The counters of one ``bench_e2e --trace`` run, per workload."""
    workloads = {}
    for name, result in run["workloads"].items():
        if not result["correct"]:
            raise SystemExit(f"{name}: the run is incorrect: {result['problems']}")
        if result["expected_digest"] not in (None, result["digest"]):
            raise SystemExit(f"{name}: digest {result['digest']} differs from the reference")
        per_layer = result["per_layer"]
        workloads[name] = {
            "size": result["size"],
            "sim.events_per_msg": per_layer["sim.events_per_msg"]["value"],
            "calls_in_per_msg": {
                key[: -len(CALLS_IN)]: m["value"]
                for key, m in per_layer.items()
                if key.endswith(CALLS_IN)
            },
            "counts": result["counts"],
        }
    return {
        "bench": "e2e_counters",
        "schema": SCHEMA,
        "python": ".".join(run["python"].split(".")[:2]),  # the minor version
        "git_sha": run["git_sha"],
        "quick": run["quick"],
        "seed": run["seed"],
        "workloads": workloads,
    }


def compare(baseline: dict[str, Any], current: dict[str, Any]) -> list[str]:
    """Every way ``current`` is worse than ``baseline`` (empty: it passes).
    Both are :func:`reduce_run` documents."""
    problems = []
    for key in ("quick", "seed"):
        if baseline[key] != current[key]:
            problems.append(f"run has {key}={current[key]!r}, baseline {baseline[key]!r}")
    for name, base in baseline["workloads"].items():
        cur = current["workloads"].get(name)
        if cur is None:
            problems.append(f"{name}: missing from the run")
            continue
        if cur["size"] != base["size"]:
            problems.append(f"{name}: size {cur['size']}, baseline {base['size']}")
            continue
        if cur["sim.events_per_msg"] > base["sim.events_per_msg"]:
            problems.append(
                f"{name}: sim.events_per_msg rose {base['sim.events_per_msg']:.6g}"
                f" -> {cur['sim.events_per_msg']:.6g}"
            )
        for layer, was in base["calls_in_per_msg"].items():
            now = cur["calls_in_per_msg"].get(layer, 0.0)
            if now > was:
                problems.append(
                    f"{name}: {layer}{CALLS_IN} rose {was:.6g} -> {now:.6g}"
                )
        for layer in cur["calls_in_per_msg"].keys() - base["calls_in_per_msg"].keys():
            if cur["calls_in_per_msg"][layer] > 0:
                problems.append(f"{name}: new layer {layer} has calls and no baseline")
        for count in sorted(base["counts"].keys() | cur["counts"].keys()):
            was, now = base["counts"].get(count), cur["counts"].get(count)
            if was != now:
                problems.append(f"{name}: count {count} was {was}, is {now}")
    return problems


def run_bench() -> dict[str, Any]:
    """Run the quick traced end-to-end benchmark; return its run record."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "e2e.json"
        cmd = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "bench_e2e.py"),
               *BENCH_ARGS, "--json", str(out)]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text(encoding="utf-8"))["runs"][-1]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, metavar="PATH",
                        help="a bench_e2e --json results file (default: run the benchmark)")
    parser.add_argument("--baseline", type=Path, default=BASELINE, metavar="PATH",
                        help=f"baseline file (default {BASELINE.name} at the repo root)")
    parser.add_argument("--record", action="store_true",
                        help="write the baseline from this run instead of checking it")
    args = parser.parse_args(argv)

    if args.results:
        run = json.loads(args.results.read_text(encoding="utf-8"))["runs"][-1]
    else:
        run = run_bench()
    current = reduce_run(run)
    if args.record:
        args.baseline.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
        return 0
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    if baseline["python"] != current["python"]:
        print(f"check_e2e_counters: baseline recorded under Python {baseline['python']},"
              f" this run under {current['python']}; run it on {baseline['python']}",
              file=sys.stderr)
        return 2
    problems = compare(baseline, current)
    for problem in problems:
        print(f"REGRESSION {problem}")
    if problems:
        return 1
    print(f"work counters of {len(baseline['workloads'])} workloads at or below the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
