"""Reach probe: the function-body lines of ``src/repro`` that nothing calls.

Runs, under one cProfile, everything that counts as reaching the library:

* the five end-to-end workloads at ``bench_e2e --quick`` size, through
  ``benchmarks/e2e/workloads.py``;
* the ``repro`` CLI subcommands (``all`` excepted: it is ``fig5``,
  ``fig6`` and ``table1`` together);
* every script in ``examples/``.

Then it parses every module under ``src/repro`` with :mod:`ast`. Each
source line of a function body (docstring, blank and comment-only lines
excluded) belongs to its innermost enclosing ``def``; a line is *reached*
when cProfile saw that function called at least once. It prints, per
module, the unreached lines out of the function-body lines, and the total.

Usage::

    python benchmarks/reach.py

It only reports: the exit status is 0 whatever the numbers. It takes a
few seconds on a 2-CPU host.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = ROOT / "examples"
E2E = ROOT / "benchmarks" / "e2e"

#: example -> extra argv (overlap_microbench's full sweep takes minutes)
EXAMPLE_ARGS = {"overlap_microbench.py": ["--fast"]}

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def cli_invocations(tmp: Path) -> list[list[str]]:
    """Every CLI subcommand, at small sizes; outputs go under ``tmp``."""
    return [
        ["info"],
        ["demo"],
        ["--faults", "demo"],
        ["fig5", "--iterations", "6", "--no-plot"],
        ["fig6", "--iterations", "6"],
        ["table1"],
        ["gantt"],
        ["trace", "--out", str(tmp / "trace.json")],
        ["metrics", "--format", "prom", "--sample", "20", "--out", str(tmp / "report.json")],
        ["--faults", "metrics", "--format", "csv", "--sample", "20"],
    ]


def drive(tmp: Path) -> None:
    """Run the workloads, the CLI and the examples (stdout discarded)."""
    sys.path.insert(0, str(E2E))
    import bench_e2e
    import workloads

    from repro.cli import main as cli_main

    for name in bench_e2e.WORKLOADS:
        getattr(workloads, name)(bench_e2e.rep_size(name, quick=True), 0)
    for argv in cli_invocations(tmp):
        cli_main(argv)
    saved_argv = sys.argv
    try:
        for script in sorted(EXAMPLES.glob("*.py")):
            sys.argv = [str(script), *EXAMPLE_ARGS.get(script.name, [])]
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = saved_argv


def profiled_functions() -> set[tuple[str, int]]:
    """``(file, first line)`` of every ``src/repro`` function called while
    driving the library."""
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        profiler.enable()
        try:
            drive(Path(tmp))
        finally:
            profiler.disable()
    profiler.create_stats()
    stats: dict[Any, Any] = profiler.stats  # type: ignore[attr-defined]
    return {
        (str(Path(filename).resolve()), line)
        for filename, line, _name in stats
        if filename.endswith(".py")
    }


def body_lines(path: Path) -> dict[int, FunctionNode]:
    """Each code line of a function body in ``path`` → its innermost
    enclosing function node."""
    source = path.read_text()
    text = source.splitlines()
    owner: dict[int, FunctionNode] = {}
    # ast.walk is breadth-first: an inner def is visited after every def
    # enclosing it, so its lines overwrite theirs
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (
            len(body) > 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]  # the docstring
        end = node.end_lineno or body[-1].lineno
        for line in range(body[0].lineno, end + 1):
            code = text[line - 1].strip()
            if code and not code.startswith("#"):
                owner[line] = node
    return owner


def first_lines(node: FunctionNode) -> list[int]:
    """Lines a code object of ``node`` may report as its first: the
    ``def`` line, or the first decorator's."""
    return [node.lineno] + [d.lineno for d in node.decorator_list[:1]]


def reach_report(called: set[tuple[str, int]]) -> dict[str, Any]:
    modules: dict[str, dict[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        owner = body_lines(path)
        if not owner:
            continue
        file = str(path.resolve())
        reached = {
            node
            for node in set(owner.values())
            if any((file, line) in called for line in first_lines(node))
        }
        unreached = sum(1 for node in owner.values() if node not in reached)
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        modules[module] = {"unreached": unreached, "lines": len(owner)}
    return {
        "unreached": sum(m["unreached"] for m in modules.values()),
        "lines": sum(m["lines"] for m in modules.values()),
        "modules": modules,
    }


def print_report(report: dict[str, Any]) -> None:
    rows = sorted(
        ((m, r["unreached"], r["lines"]) for m, r in report["modules"].items() if r["unreached"]),
        key=lambda row: (-row[1], row[0]),
    )
    width = max((len(row[0]) for row in rows), default=6)
    print(f"{'module':<{width}}  unreached / function-body lines")
    for module, unreached, lines in rows:
        print(f"{module:<{width}}  {unreached:>5} / {lines}")
    share = report["unreached"] / report["lines"] if report["lines"] else 0.0
    print(
        f"total: {report['unreached']} of {report['lines']} function-body lines "
        f"unreached ({share:.1%})"
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    print_report(reach_report(profiled_functions()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
