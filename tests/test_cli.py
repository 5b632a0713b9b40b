"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "MX-like" in out
    assert "2 node(s)" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "No offloading" in out and "Speedup" in out


def test_fig5_table_only(capsys):
    assert main(["fig5", "--iterations", "6", "--no-plot"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "copy offloading" in out
    assert "crossover" in out
    assert "┐" not in out  # no plot frame


def test_fig6_with_plot(capsys):
    assert main(["fig6", "--iterations", "6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "RDV progression" in out
    assert "┐" in out  # plot frame present


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("fig5", "fig6", "table1", "all", "info"):
        assert cmd in text


def test_gantt_command(capsys):
    assert main(["gantt", "--engine", "pioman"]) == 0
    out = capsys.readouterr().out
    assert "█" in out and "overlap ratio" in out


def test_gantt_both_engines_by_default(capsys):
    assert main(["gantt"]) == 0
    out = capsys.readouterr().out
    assert "sequential" in out and "pioman" in out


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--out", str(out_path)]) == 0
    import json

    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]


def test_demo_smoke(capsys):
    assert main(["demo", "--messages", "2", "--engine", "pioman"]) == 0
    out = capsys.readouterr().out
    assert "2 round-trips" in out
    assert "recovery:" not in out  # no injector, no fault report


def test_demo_with_faults_smoke(capsys):
    assert main(["--faults", "demo", "--messages", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "sequential" in out and "pioman" in out
    assert "faults:" in out and "recovery:" in out


def test_demo_with_faults_is_deterministic(capsys):
    argv = ["--faults", "demo", "--messages", "4", "--engine", "pioman", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_demo_no_retransmit_reports_loss(capsys):
    assert (
        main(
            [
                "--faults",
                "demo",
                "--messages",
                "8",
                "--drop",
                "0.3",
                "--engine",
                "pioman",
                "--no-retransmit",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "LOST MESSAGES" in out


def test_all_with_json_artifact(tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(["all", "--iterations", "6", "--no-plot", "--json", str(out)]) == 0
    import json

    doc = json.loads(out.read_text())
    assert set(doc) == {"fig5", "fig6", "table1"}


def test_all_with_json_runs_each_experiment_once(tmp_path, capsys, monkeypatch):
    """``all --json`` computes fig5/fig6/table1 once and prints and saves
    those same results: one ``run_grid`` call per experiment, not two.
    The grid is stubbed with synthetic per-point times, so only the call
    count and the print/save plumbing are under test."""
    import json

    from repro.harness import experiments

    calls = []

    def counting_run_grid(fn, tasks, **kwargs):
        calls.append(fn.__name__)
        return [100.0 + 10.0 * i for i in range(len(tasks))]

    monkeypatch.setattr(experiments, "run_grid", counting_run_grid)
    out = tmp_path / "results.json"
    assert main(["all", "--json", str(out), "--iterations", "1"]) == 0
    assert len(calls) == 3
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text())
    for row in doc["table1"]["rows"]:
        assert f"{row['no_offloading_us']:.0f}µs" in printed
