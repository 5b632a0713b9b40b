"""The work-counter gate (``benchmarks/check_e2e_counters.py``) on
hand-made results: what passes, what fails, and what it refuses."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_e2e_counters.py"
_spec = importlib.util.spec_from_file_location("check_e2e_counters", _PATH)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _run(python: str = "3.11.7", events: float = 10.0, sim_calls: float = 80.0,
         switches: int = 100, correct: bool = True) -> dict:
    """One ``bench_e2e --trace --json`` run record with one workload."""
    per_layer = {
        "sim.events_per_msg": {"value": events, "unit": "events/msg"},
        "sim.calls_in_per_msg": {"value": sim_calls, "unit": "calls/msg"},
        "marcel.calls_in_per_msg": {"value": 50.0, "unit": "calls/msg"},
        "sim.share": {"value": 0.3, "unit": "fraction"},
    }
    return {
        "python": python,
        "git_sha": "abc",
        "quick": True,
        "seed": 0,
        "workloads": {
            "pingpong": {
                "size": 150,
                "correct": correct,
                "problems": [] if correct else ["repetitions of one seed disagree"],
                "digest": "d1",
                "expected_digest": "d1",
                "per_layer": per_layer,
                "counts": {"events": 2000, "switches": switches},
            }
        },
    }


def test_reduce_keeps_only_the_exact_counters():
    doc = check.reduce_run(_run())
    assert doc["python"] == "3.11"
    assert doc["workloads"]["pingpong"] == {
        "size": 150,
        "sim.events_per_msg": 10.0,
        "calls_in_per_msg": {"sim": 80.0, "marcel": 50.0},
        "counts": {"events": 2000, "switches": 100},
    }


def test_reduce_rejects_an_incorrect_run():
    with pytest.raises(SystemExit, match="incorrect"):
        check.reduce_run(_run(correct=False))
    run = _run()
    run["workloads"]["pingpong"]["digest"] = "d2"
    with pytest.raises(SystemExit, match="differs from the reference"):
        check.reduce_run(run)


def test_identical_and_falling_counters_pass():
    base = check.reduce_run(_run())
    assert check.compare(base, check.reduce_run(_run())) == []
    assert check.compare(base, check.reduce_run(_run(events=9.0, sim_calls=70.0))) == []


@pytest.mark.parametrize(
    "change, needle",
    [
        ({"events": 10.5}, "sim.events_per_msg rose"),
        ({"sim_calls": 80.25}, "sim.calls_in_per_msg rose"),
        ({"switches": 99}, "count switches was 100, is 99"),
        ({"switches": 101}, "count switches was 100, is 101"),
    ],
)
def test_rising_counters_and_changed_counts_fail(change, needle):
    base = check.reduce_run(_run())
    problems = check.compare(base, check.reduce_run(_run(**change)))
    assert len(problems) == 1 and needle in problems[0]


def test_missing_workload_size_and_settings_fail():
    base = check.reduce_run(_run())
    cur = copy.deepcopy(base)
    cur["workloads"]["pingpong"]["size"] = 300
    cur["seed"] = 1
    problems = check.compare(base, cur)
    assert any("size 300" in p for p in problems)
    assert any("seed=1" in p for p in problems)
    cur["workloads"] = {}
    assert any("missing" in p for p in check.compare(base, cur))


def test_a_new_layer_with_calls_fails():
    base = check.reduce_run(_run())
    cur = copy.deepcopy(base)
    cur["workloads"]["pingpong"]["calls_in_per_msg"]["rpc"] = 1.0
    assert any("new layer rpc" in p for p in check.compare(base, cur))


def _write_results(tmp_path: Path, run: dict) -> Path:
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"bench": "e2e", "schema": 1, "runs": [run]}))
    return path


def test_main_records_checks_and_refuses_another_python(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    results = _write_results(tmp_path, _run())
    args = ["--baseline", str(baseline), "--results"]
    assert check.main([*args, str(results), "--record"]) == 0
    assert check.main([*args, str(results)]) == 0
    worse = _write_results(tmp_path, _run(sim_calls=81.0))
    assert check.main([*args, str(worse)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    other = _write_results(tmp_path, _run(python="3.12.1"))
    assert check.main([*args, str(other)]) == 2
    assert "recorded under Python 3.11" in capsys.readouterr().err
