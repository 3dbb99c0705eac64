"""Smoke test: the tutorial demos run to completion.

Demo 06 is a corpus run, which the acceptance tests already cover.
"""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


@pytest.mark.parametrize(
    "script",
    [
        "01_evaluate_recurrences.py",
        "02_linear_guessing.py",
        "03_domain_splitting.py",
        "04_symbolic_guessing.py",
        "05_verification.py",
    ],
)
def test_demo_runs(script):
    # conftest puts src on PYTHONPATH for child processes
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
