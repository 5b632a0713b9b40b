"""Tests for report formatting and parameter sweeps."""

from __future__ import annotations

import pytest

from repro.errors import HarnessError
from repro.harness.report import ascii_plot, format_series_table, format_table
from repro.harness.sweep import sweep


class TestFormatTable:
    def test_alignment_and_content(self):
        out = format_table(["name", "value"], [["x", 1], ["longer", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "longer" in out and "22" in out
        # all data rows have identical width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header+sep may differ from padded rows by trailing spaces

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestSeriesTable:
    def test_figure_style_output(self):
        out = format_series_table(
            [1024, 32768],
            {"ref": [1.0, 2.0], "piom": [3.0, 4.0]},
            title="Figure X",
        )
        assert "1K" in out and "32K" in out
        assert "ref (µs)" in out and "piom (µs)" in out
        assert "3.0" in out


class TestAsciiPlot:
    def test_contains_marks_and_legend(self):
        out = ascii_plot([1024, 2048, 4096], {"a": [1, 2, 3], "b": [3, 2, 1]})
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_empty_data(self):
        assert ascii_plot([], {}) == "(no data)"


class TestSweep:
    def test_grid_cartesian_product(self):
        calls = []

        def fn(a, b):
            calls.append((a, b))
            return {"y": a * b}

        res = sweep(fn, {"a": [1, 2], "b": [10, 20]})
        assert calls == [(1, 10), (1, 20), (2, 10), (2, 20)]
        assert len(res.rows) == 4
        assert res.column("y") == [10, 20, 20, 40]

    def test_best_row(self):
        res = sweep(lambda a: {"y": (a - 3) ** 2}, {"a": [0, 1, 2, 3, 4]})
        assert res.best("y")["a"] == 3
        assert res.best("y", minimize=False)["a"] == 0

    def test_unknown_column_rejected(self):
        res = sweep(lambda a: {"y": a}, {"a": [1]})
        with pytest.raises(HarnessError):
            res.column("z")

    def test_empty_grid_rejected(self):
        with pytest.raises(HarnessError):
            sweep(lambda: {"y": 1}, {})

    def test_inconsistent_metric_keys_rejected(self):
        """Every row must return the same metric keys; the error names the
        offending parameter combination (previously metric_names was taken
        from the first row and later rows silently diverged)."""

        def fn(a):
            return {"y": a} if a < 2 else {"y": a, "extra": 1}

        with pytest.raises(HarnessError, match=r"'a': 2") as exc:
            sweep(fn, {"a": [0, 1, 2]})
        assert "extra" in str(exc.value)

    def test_missing_metric_key_rejected(self):
        def fn(a):
            return {"y": a, "z": a} if a == 0 else {"y": a}

        with pytest.raises(HarnessError, match="mismatch"):
            sweep(fn, {"a": [0, 1]})

    def test_format(self):
        res = sweep(lambda a: {"y": a * 1.5}, {"a": [1, 2]})
        out = res.format(title="S")
        assert "S" in out and "1.50" in out and "3.00" in out


class TestResultSerialization:
    def test_run_all_and_save(self, tmp_path):
        import json

        from repro.harness.experiments import run_all_experiments, save_results_json

        results = run_all_experiments(iterations=6)
        assert set(results) == {"fig5", "fig6", "table1"}
        path = tmp_path / "results.json"
        save_results_json(results, str(path))
        doc = json.loads(path.read_text())
        assert doc["fig5"]["series"]["copy offloading"]
        assert doc["fig5"]["crossover_size"] == 16384
        assert len(doc["table1"]["rows"]) == 2

    def test_figure_to_dict_roundtrip(self):
        from repro.harness.experiments import experiment_fig5

        fig = experiment_fig5(iterations=6)
        d = fig.to_dict()
        assert d["x_values"] == fig.x_values
        assert d["compute_us"] == 20.0


def test_bench_header_records_dirty_tree():
    """``dirty`` agrees with ``git status --porcelain`` of this checkout
    (None, like ``git_sha``, outside one)."""
    import subprocess
    from pathlib import Path

    import repro
    from repro.harness.report import bench_header

    header = bench_header("t", 1, quick=True)
    assert "dirty" in header
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=Path(repro.__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        proc = None
    if proc is None or proc.returncode != 0:
        assert header["git_sha"] is None and header["dirty"] is None
    else:
        assert header["git_sha"] is not None
        assert header["dirty"] is bool(proc.stdout.strip())
