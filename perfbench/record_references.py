"""Record the reference outputs that later runs of the benchmark are checked against.

Run from the root of a checkout, at the commit whose outputs are the reference:

    python3 perfbench/record_references.py --seeds 0-19

For each workload and seed it runs every call once, untraced, and requires
the call to pass the seed-independent checks. It records the reported
``upper_bound`` of every estimate call (later runs must not report less) and
the SHA-256 of every simulate table (later runs must reproduce it byte for
byte). For ``contrast_n2000``, whose unit map is fixed, it records the largest
eigenvalue of the doubly centered exact joint matrix from
``numpy.linalg.eigvalsh``; the ``lambda_1`` a later run reports must not be
below it. Entries for other seeds already in ``references.json`` are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import run
import workloads


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def centered_joint_eigenvalue(root: Path, spec: workloads.ContrastSpec) -> float:
    """Top eigenvalue of (I - 11'/n) J (I - 11'/n) for the contrast workload's exact design."""
    sys.path.insert(0, str(root / "src"))
    import interfere

    coords = workloads.contrast_layout(spec)
    nbhd = interfere.build_knn_neighborhoods(coords, spec.d)
    joint = interfere.exact_profile(nbhd, interfere.ExposureMapping.threshold(spec.d_min), workloads.RHO).joint
    centered = joint - joint.mean(axis=0) - joint.mean(axis=1)[:, None] + joint.mean()
    return float(np.linalg.eigvalsh(centered)[-1])


def record_seed(root: Path, workload: str, seed: int, work: Path) -> dict:
    inputs = workloads.generate(workload, seed, work)
    env = run.child_env(root)
    entry = {}
    for index, call in enumerate(inputs.calls):
        argv = [sys.executable, "-m", "interfere.cli", *call.argv]
        code, _, _, stdout = run.run_child(argv, env, root, work / f"call{index}.out", run.CALL_TIMEOUT_S)
        problems = workloads.check(call, code, stdout, inputs, {})
        if problems:
            raise SystemExit(f"{workload} seed {seed} {call.label}: " + "; ".join(problems))
        if call.label.startswith("sim"):
            entry.setdefault("sha256", {})[call.label] = hashlib.sha256(stdout.encode()).hexdigest()
        elif call.label != "contrast":
            uppers = [config["upper_bound"] for config in json.loads(stdout)["configs"]]
            entry.setdefault("upper_bounds", {})[call.label] = uppers
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="seeds as a list of ranges, e.g. 0-19 or 1,5,9-12")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.SPECS))
    args = parser.parse_args()
    root = Path.cwd()
    refs = json.loads(workloads.REFERENCES.read_text()) if workloads.REFERENCES.is_file() else {}
    for workload in args.workload or sorted(workloads.SPECS):
        spec = workloads.SPECS[workload]
        entry = refs.get(workload, {})
        if entry.get("fingerprint") != workloads.fingerprint(spec):
            entry = {"fingerprint": workloads.fingerprint(spec), "seeds": {}}
        if workload == "contrast_n2000":
            entry["lambda_1_eigvalsh"] = centered_joint_eigenvalue(root, spec)
        work = root / ".perfbench_work" / "references"
        for seed in parse_seeds(args.seeds):
            entry["seeds"][str(seed)] = record_seed(root, workload, seed, work)
            print(f"{workload} seed {seed} recorded", flush=True)
        refs[workload] = entry
        workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
