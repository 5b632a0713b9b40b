"""Tests of the end-to-end benchmark, in quick mode::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_e2e  # noqa: E402
import layers  # noqa: E402


def run_bench(tmp_path: Path, *args: str, env: dict | None = None) -> tuple[dict, dict]:
    """A quick run of every workload: (last stdout line, --json run record)."""
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--quick", "--seconds", "0",
         "--json", str(out), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "DIGEST MISMATCH" not in proc.stdout, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())["runs"][-1]


def digests_and_counts(run: dict) -> dict:
    return {w: (r["digest"], r["counts"]) for w, r in run["workloads"].items()}


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("quick"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("traced"), "--trace")


def test_every_module_maps_to_exactly_one_layer():
    modules = [layers.module_of(str(p)) for p in sorted((ROOT / "src" / "repro").rglob("*.py"))]
    assert len(modules) > 50
    unmapped = [m for m in modules if len(layers.layers_of(m)) != 1]
    assert not unmapped, f"modules in no layer or in two: {unmapped}"


def test_layer_self_times_sum_to_profiled_total():
    import workloads

    profiler = cProfile.Profile()
    profiler.enable()
    workloads.storm_lossy(3, 0)
    profiler.disable()
    attr = layers.Attribution(pstats.Stats(profiler).stats)
    by_layer = attr.by_layer()
    assert sum(by_layer.values()) == pytest.approx(attr.total_s, rel=0.01)
    # builtins called from the kernel and the fault injector land there
    assert by_layer["sim"] > 0 and by_layer["faults"] > 0
    assert attr.calls_in["nmad"] > 0


def test_every_workload_reports_every_metric(quick):
    last, run = quick
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(run["workloads"]) == set(bench_e2e.WORKLOADS)
    for workload, result in run["workloads"].items():
        metrics = result["metrics"]
        for name, (unit, *_rest) in {**bench_e2e.END_TO_END, **bench_e2e.EXACT}.items():
            assert metrics[name]["unit"] == unit
            assert metrics[name]["value"] >= 0
        assert metrics["fail_frac"]["value"] == 0
        for name in bench_e2e.END_TO_END:
            assert last["metrics"][f"{workload}.{name}"]["value"] > 0
    assert len(last["metrics"]) == len(bench_e2e.WORKLOADS) * len(bench_e2e.END_TO_END)
    header = {"bench", "schema", "cpu_count", "python", "git_sha", "quick", "seed", "loadavg"}
    assert header <= set(run) and run["quick"] is True


def test_two_quick_runs_agree_exactly(quick, tmp_path):
    _last, again = run_bench(tmp_path)
    assert digests_and_counts(again) == digests_and_counts(quick[1])


def test_traced_run_reports_layers_and_keeps_digests(quick, traced):
    last, run = traced
    assert last["correct"]
    assert digests_and_counts(run) == digests_and_counts(quick[1])
    for workload, result in run["workloads"].items():
        per_layer = result["per_layer"]
        assert set(per_layer) == set(bench_e2e.PER_LAYER)
        shares = sum(per_layer[f"{layer}.share"]["value"] for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
        for name in bench_e2e.DECLARED_PER_LAYER:
            assert f"{workload}.{name}" in last["metrics"]
    storm = run["workloads"]["storm_lossy"]["per_layer"]
    assert storm["nmad.reliability.retransmits_per_msg"]["value"] > 0
    assert storm["faults.inject.share"]["value"] > 0


def test_pool_workers_env_does_not_change_digests(quick, tmp_path):
    env = dict(os.environ, REPRO_BENCH_WORKERS="2")
    _last, pooled = run_bench(tmp_path, env=env)
    assert digests_and_counts(pooled) == digests_and_counts(quick[1])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "pingpong",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        bench_e2e.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        bench_e2e.DECLARED_PER_LAYER
    )
