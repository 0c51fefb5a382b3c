"""The narrative demos 01-03 run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(DEMOS.parent / "src")


@pytest.mark.parametrize(
    "name",
    [
        "01_integers_as_permutations.py",
        "02_digits_and_inversions.py",
        "03_divisibility_rules.py",
    ],
)
def test_demo_runs(name):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
