"""The library imports and runs with numpy blocked.

numpy is a test/examples dependency only: ``repro`` draws from a
pure-Python PCG64 stream and computes its means and percentiles in pure
Python. A subprocess with ``sys.modules["numpy"] = None`` (which makes
``import numpy`` raise) imports the entry points and runs the demo, with
and without faults.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``python -m repro ARGS`` with numpy blocked before anything is imported
_SCRIPT = """
import runpy, sys
sys.modules["numpy"] = None
import repro, repro.cli, repro.harness.experiments
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__")
"""


@pytest.mark.parametrize("args", [["demo"], ["--faults", "demo"]])
def test_cli_runs_with_numpy_blocked(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("round-trips") == 2
