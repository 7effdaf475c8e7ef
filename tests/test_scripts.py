"""The experiment scripts run end to end on a few replicates or draws."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,flags,first_line",
    [
        ("run_coverage_tables.py", ["--replicates", "5"],
         "coverage of the upper bound over condition-met replicates (5 replicates, alpha=0.05)"),
        ("run_contrast_example.py", ["--draws", "20"], "voting experiment, treatment split:"),
    ],
)
def test_script_runs(script, flags, first_line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *flags],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == first_line
