"""Smoke tests: each script under scripts/ runs and prints its key line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    ("script", "args", "line"),
    [
        ("positivity_sweep.py", ["--n-max", "8"], "no positivity failures in range"),
        ("rank3_threshold.py", ["--n", "40", "--k", "5"], "n = 40, k = 5, lambda = 16450 (floor C(n,k)/n)"),
        (
            "reproduce_counterexamples.py",
            [],
            "(n, k, lambda) = (20, 9, 8398)  [gs-bound]: NOT positive",
        ),
    ],
    ids=["positivity_sweep", "rank3_threshold", "reproduce_counterexamples"],
)
def test_script_runs(script: str, args: list[str], line: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
