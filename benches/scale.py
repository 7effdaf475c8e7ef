"""Scaling record of the estimate path and the contrast eigenvalue at several n, appended to BENCH_scale.json.

Run from anywhere; the package is imported from this checkout's ``src/``:

    python3 benches/scale.py                      # every size, both layouts
    python3 benches/scale.py --sizes 1000 3000    # a subset

For each layout (``uniform_square`` and ``two_cluster`` from
``synthetic_layout``) and each n, one threshold design (d_min=3, d=6,
rho=0.5, alpha=0.05) is analysed in four timed stages, its input files are
read in two more, and two more run up to n = ``MC_MAX_N``:

- ``knn``: ``build_knn_neighborhoods``;
- ``profile``: ``exact_profile``;
- ``bound``: ``evaluate_exposure`` and ``upper_confidence_bound``;
- ``eigen``: ``largest_centered_eigenvalue`` of the exact profile, the
  lambda_1 bound of the exposure-split contrast;
- ``load``: ``io.load_units`` of the population written once as a unit CSV
  (``id``, ``x``, ``y``, ``treatment``, ``outcome``);
- ``load_neighborhoods``: ``io.load_neighborhoods`` of the k-NN sets written
  once as a JSON list of index lists;
- ``mc_profile``: ``monte_carlo_profile`` with ``MC_SAMPLES`` draws and seed
  ``MC_SEED``. It holds all n(n-1)/2 pairs, so its memory is O(n^2);
- ``mc_bound``: ``evaluate_exposure`` and ``upper_confidence_bound`` on that
  Monte Carlo profile. Its peak excludes the profile, which exists before
  the stage.

Each stage's wall time (``perf_counter``, one untraced call) and its peak
``tracemalloc`` memory (a second, traced call) are recorded with the problem
sizes. Layouts, treatments and outcomes come from fixed seeds, so every record
analyses the same inputs.

One record (git HEAD, whether the package sources differ from it, their
hash, cores, Python and numpy versions) is appended to the
``records`` list of the output file. Earlier records are never rewritten.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)
LAYOUTS = ("uniform_square", "two_cluster")
LAYOUT_SEED = 20180611
DATA_SEED = 7
D_MIN, D, RHO, ALPHA = 3, 6, 0.5, 0.05
MC_SAMPLES, MC_SEED, MC_MAX_N = 8192, 11, 3_000


def _git(*args: str) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else ""


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "interfere").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _stage(fn, *args):
    """(result, seconds, peak traced MB) of a call: timed untraced, since
    tracing slows the many small allocations of a leaf loop, then run again
    under ``tracemalloc`` for its peak."""
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"seconds": round(seconds, 4), "peak_mb": round(peak / 2**20, 2)}


def measure(itf, layout: str, n: int) -> dict:
    coords = itf.synthetic_layout(layout, n, seed=LAYOUT_SEED)
    rng = np.random.default_rng(np.random.SeedSequence((DATA_SEED, n)))
    treatment = (rng.random(n) < RHO).astype(np.int64)
    outcome = rng.negative_binomial(3, 3 / (3 + 10), size=n).astype(float)
    pop = itf.Population(ids=tuple(range(n)), coords=coords, treatment=treatment, outcome=outcome, rho=RHO)
    mapping = itf.ExposureMapping.threshold(D_MIN)

    def bound(nbhd, profile):
        exposure = itf.evaluate_exposure(pop, nbhd, mapping)
        return exposure, itf.upper_confidence_bound(pop, exposure, profile, ALPHA)

    nbhd, knn = _stage(itf.build_knn_neighborhoods, pop, D)
    profile, exact = _stage(itf.exact_profile, nbhd, mapping, RHO)
    (exposure, report), scored = _stage(bound, nbhd, profile)
    lam, eigen = _stage(itf.largest_centered_eigenvalue, profile)
    stages = {"knn": knn, "profile": exact, "bound": scored, "eigen": eigen}
    with tempfile.TemporaryDirectory() as scratch:
        units, sets = Path(scratch) / "units.csv", Path(scratch) / "neighborhoods.json"
        with units.open("w", newline="") as handle:
            rows = zip(pop.ids, *coords.T.tolist(), treatment.tolist(), outcome.tolist())
            itf.io.write_csv(handle, ["id", "x", "y", "treatment", "outcome"], rows)
        sets.write_text(json.dumps(nbhd.members.tolist()))
        stages["load"] = _stage(itf.io.load_units, units, RHO)[1]
        stages["load_neighborhoods"] = _stage(itf.io.load_neighborhoods, sets)[1]
    if n <= MC_MAX_N:
        mc, stages["mc_profile"] = _stage(itf.monte_carlo_profile, nbhd, mapping, RHO, MC_SAMPLES, MC_SEED)
        stages["mc_bound"] = _stage(bound, nbhd, mc)[1]
    return {
        "layout": layout,
        "n": n,
        "k": nbhd.k,
        "pairs": int(profile.rows.size),
        "exposed": exposure.count,
        "upper_bound": report.upper_bound,
        "lambda_1": {"value": lam.value, "certificate": lam.certificate, "steps": lam.steps},
        "stages": stages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES), help="unit counts to run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json", help="file to append the record to")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import interfere as itf
    import interfere.io  # noqa: F401  (the readers of the load stages, as itf.io)

    history = json.loads(args.out.read_text()) if args.out.exists() else {"records": []}
    rows = []
    for layout in LAYOUTS:
        for n in args.sizes:
            row = measure(itf, layout, n)
            rows.append(row)
            stages = "  ".join(f"{name} {s['seconds']:.3f} s {s['peak_mb']:.1f} MB" for name, s in row["stages"].items())
            print(f"{layout:>14} n={n:<7} {stages}", flush=True)
    history["records"].append({
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "source_sha256": _source_sha256(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "design": {"d_min": D_MIN, "d": D, "rho": RHO, "alpha": ALPHA},
        "monte_carlo": {"samples": MC_SAMPLES, "seed": MC_SEED, "max_n": MC_MAX_N},
        "rows": rows,
    })
    args.out.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
