"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import interfere  # noqa: E402
from interfere.exposure import _overlapping_pairs  # noqa: E402

TINY = {
    "estimate_n3000": workloads.EstimateSpec(n=80),
    "contrast_n2000": workloads.ContrastSpec(n=80, mc_samples=256),
    "simulate": workloads.SimulateSpec(replicates_small=20, n_large=60, replicates_large=5),
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    result = run.run(workload, 3, 0, False, ROOT, spec=TINY[workload], work=tmp_path)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in BENCH["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    for name in workloads.STEP_NAMES[workload] + ("setup_s", "peak_rss_mb", "failed_ops_frac"):
        assert name in printed
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_traced_run_reports_every_per_layer_metric(workload, tmp_path, capsys):
    result = run.run(workload, 3, 0, True, ROOT, spec=TINY[workload], work=tmp_path)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in BENCH["per_layer"]] == list(result["metrics"])
    for metric in BENCH["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "layer self times sum to main() wall time" in printed
    assert (tmp_path / "spans.json").is_file()
    # The traced run leaves the package as it found it.
    assert interfere.design.build_knn_neighborhoods.__module__ == "interfere.design"
    assert not hasattr(interfere.cli.build_knn_neighborhoods, "__wrapped__")


def _tiny_call(workload, label, tmp_path):
    inputs = workloads.generate(workload, 5, tmp_path, TINY[workload])
    index, call = next((i, c) for i, c in enumerate(inputs.calls) if c.label == label)
    argv = [sys.executable, "-m", "interfere.cli", *call.argv]
    code, _, _, stdout = run.run_child(argv, run.child_env(ROOT), ROOT, tmp_path / "out.txt", 60)
    return inputs, call, code, stdout


def test_lowered_upper_bound_counts_as_failed_call(tmp_path):
    inputs, call, code, stdout = _tiny_call("estimate_n3000", "scan", tmp_path)
    runner = run.Runner(ROOT, inputs, tmp_path, 0.0)
    runner.record(call, code, stdout, "test")
    assert (runner.attempted, runner.failed) == (1, 0)

    payload = json.loads(stdout)
    payload["configs"][1]["upper_bound"] = payload["configs"][1]["estimate"] - 1.0
    runner.record(call, code, json.dumps(payload), "test")
    assert (runner.attempted, runner.failed) == (2, 1)

    refs = {"seeds": {"5": {"upper_bounds": {"scan": [c["upper_bound"] * 1.01 for c in json.loads(stdout)["configs"]]}}}}
    assert workloads.check(call, code, stdout, inputs, refs)
    assert workloads.check(call, 1, stdout, inputs, {})


def test_contrast_and_simulate_checks_reject_corrupted_outputs(tmp_path):
    inputs, call, code, stdout = _tiny_call("contrast_n2000", "contrast", tmp_path)
    assert workloads.check(call, code, stdout, inputs, {}) == []
    lam = json.loads(stdout)["exposure_split"]["lambda_1"]
    assert workloads.check(call, code, stdout, inputs, {"lambda_1_eigvalsh": lam * 1.001})
    payload = json.loads(stdout)
    payload["exposure_split"]["n_exposed"] += 1
    assert workloads.check(call, code, json.dumps(payload), inputs, {})

    inputs, call, code, stdout = _tiny_call("simulate", "sim60_exposure_model", tmp_path)
    assert workloads.check(call, code, stdout, inputs, {}) == []
    assert workloads.check(call, code, stdout, inputs, {"seeds": {"5": {"sha256": {call.label: "0" * 64}}}})


def test_knn_order_matches_library_including_ties():
    rng = np.random.default_rng(0)
    grid = np.array([(i, j) for i in range(7) for j in range(7)], dtype=float)  # many exact distance ties
    for coords in (rng.random((150, 2)), grid):
        order = workloads.knn_order(coords, 10, chunk=32)
        for d in (1, 3, 6, 10):
            members = np.sort(np.column_stack([np.arange(len(coords)), order[:, : d - 1]]), axis=1)
            assert np.array_equal(members, interfere.build_knn_neighborhoods(coords, d).members)


def test_overlapping_pairs_matches_library():
    coords = np.random.default_rng(1).random((120, 2))
    for d in (1, 3, 6):
        nbhd = interfere.build_knn_neighborhoods(coords, d)
        assert spans.overlapping_pairs(nbhd.members) == len(_overlapping_pairs(nbhd))


def test_missing_layer_function_is_an_absent_metric(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "design.gone", ("interfere.design:no_such_function",))
    tracer = spans.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    try:
        assert any("no_such_function" in str(w.message) for w in caught)
        coords = np.random.default_rng(2).random((30, 2))
        pop = interfere.Population(ids=tuple(range(30)), coords=coords, treatment=np.arange(30) % 2,
                                   outcome=np.ones(30) + np.arange(30) % 3, rho=0.5)
        tracer.call(0, lambda _: interfere.monotone.bonferroni_scan(pop, [(2, 3)], 0.05), [])
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, [0])
    assert "design.gone.self_s" not in metrics
    assert metrics["design.knn.calls"] == 1 and metrics["monotone.scan.calls"] == 1
    assert sum(s for s, _ in tracer.layer_totals([0]).values()) == pytest.approx(tracer.root_wall(0), abs=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
