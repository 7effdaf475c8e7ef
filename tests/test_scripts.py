"""The experiment scripts run end to end on a few replicates or draws, and the
scaling bench on one small size."""

import json
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
    result = _run(ROOT / "scripts" / script, *flags)
    assert result.stdout.splitlines()[0] == first_line


def test_scale_bench_records_every_stage(tmp_path):
    # The bench appends one record; at n=300 it times the Monte Carlo profile and
    # the bound on it too, and the eigenvalue takes the Collatz-Wielandt branch.
    # Every row also times the readers of a unit table and a neighborhood file.
    out = tmp_path / "scale.json"
    _run(ROOT / "benches" / "scale.py", "--sizes", "300", "--out", str(out))
    (record,) = json.loads(out.read_text())["records"]
    assert record["monte_carlo"] == {"samples": 8192, "seed": 11, "max_n": 3000}
    assert [(row["layout"], row["n"]) for row in record["rows"]] == [("uniform_square", 300), ("two_cluster", 300)]
    for row in record["rows"]:
        assert sorted(row["stages"]) == [
            "bound", "eigen", "knn", "load", "load_neighborhoods", "mc_bound", "mc_profile", "profile"
        ]
        assert row["lambda_1"]["certificate"] == "collatz_wielandt" and row["lambda_1"]["value"] > 0
        for stage in ("mc_profile", "mc_bound", "load", "load_neighborhoods"):
            assert row["stages"][stage]["seconds"] > 0 and row["stages"][stage]["peak_mb"] > 0


def _run(script, *flags):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script), *flags],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result
