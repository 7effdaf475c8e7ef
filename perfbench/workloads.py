"""Workload definitions: seeded inputs, CLI call sequences and output checks.

Each workload is a fixed sequence of ``interfere`` CLI calls. Its inputs are
the unit CSVs and JSON configs written by :func:`generate` from the workload
seed; the program under test receives only those files.

The unit map (coordinates) of a workload is fixed, as in a study whose sites
do not move between experiments. The seed draws what a new experiment would
draw: treatments, outcomes, and the simulation and Monte Carlo seeds. So the
design-only work (k-NN, exposure profile, top eigenvalue) is the same for every
seed, and run-to-run spread measures the machine, not the problem.

Every call's output is checked against values the benchmark recomputes from
the generated CSV (exposure counts and estimates with its own k-NN), against
invariants that hold for any seed, and, for the seeds in ``references.json``,
against values recorded when the benchmark was defined.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYOUT_SEED = 1806_11219
RHO = 0.5
ALPHA = 0.05
SIM_LAYOUT_SEED = 7
SIM49_DESIGNS = ((1, 1), (2, 3), (3, 6), (4, 10), (5, 10))
SIM500_DESIGNS = ((2, 3), (3, 6), (4, 10))
SCENARIOS = ("no_effect_no_clustering", "no_effect_clustering", "exposure_model", "adversarial")
# Relative slack on "upper_bound is never below the reference": one rounding
# of a reassociated sum, far below any change in conservativeness.
UPPER_REL_SLACK = 1e-12
# The eigenvalue solver certifies its value to a relative residual of 1e-8.
LAMBDA_REL_SLACK = 1e-8
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class EstimateSpec:
    n: int = 3000
    d_min: int = 3
    d: int = 6
    scan: tuple = ((2, 3), (3, 6), (4, 6))


@dataclass(frozen=True)
class ContrastSpec:
    n: int = 2000
    d_min: int = 3
    d: int = 6
    mc_samples: int = 8192


@dataclass(frozen=True)
class SimulateSpec:
    n_small: int = 49
    replicates_small: int = 1000
    n_large: int = 500
    replicates_large: int = 200


SPECS = {
    "estimate_n3000": EstimateSpec(),
    "contrast_n2000": ContrastSpec(),
    "simulate": SimulateSpec(),
}

# What each workload's two timed steps run, for the printed report. The step
# metrics themselves have generic names so that every workload reports every
# declared metric.
STEP_NAMES = {
    "estimate_n3000": ("estimate_s", "scan_s"),
    "contrast_n2000": ("contrast_s", "estimate_mc_s"),
    "simulate": ("sim49_s", "sim500_s"),
}


def fingerprint(spec) -> str:
    """Identifies a spec, so references recorded for one size never apply to another."""
    text = type(spec).__name__ + json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Call:
    """One CLI call: the step whose time it adds to, its argv, and how to check it."""

    step: int
    label: str
    argv: tuple
    ok_codes: tuple = (0,)


@dataclass
class Inputs:
    """Generated files plus what the checks need to know about them."""

    workload: str
    spec: object
    seed: int
    calls: list
    expected: dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def _layout(n: int, stream: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence((LAYOUT_SEED, stream))).random((n, 2))


def contrast_layout(spec: ContrastSpec) -> np.ndarray:
    """The contrast workload's fixed unit map."""
    return _layout(spec.n, 2)


def _write_units(path: Path, coords, treatment, outcome) -> None:
    lines = ["id,x,y,treatment,outcome"]
    for i, ((cx, cy), t, y) in enumerate(zip(coords.tolist(), treatment.tolist(), outcome.tolist())):
        lines.append(f"u{i},{cx!r},{cy!r},{t},{y}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def knn_order(coords: np.ndarray, d_max: int, chunk: int = 256) -> np.ndarray:
    """(n, d_max - 1) nearest other units of each unit, nearest first.

    Same metric and tie-break as the library's k-NN (Euclidean distance, ties
    by ascending index), computed independently in row chunks.
    """
    n = coords.shape[0]
    order = np.empty((n, d_max - 1), dtype=np.int64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dist[np.arange(hi - lo), np.arange(lo, hi)] = -1.0  # self sorts first, others keep their order
        order[lo:hi] = np.argsort(dist, axis=1, kind="stable")[:, 1:d_max]
    return order


def threshold_exposure(treatment: np.ndarray, order: np.ndarray, d_min: int, d: int) -> np.ndarray:
    """Effective treatment: unit treated and at least d_min of its d-set treated."""
    treated_in_set = treatment + treatment[order[:, : d - 1]].sum(axis=1)
    return (treatment == 1) & (treated_in_set >= d_min)


def _design_expectation(outcome, treatment, order, d_min, d) -> dict:
    z = threshold_exposure(treatment, order, d_min, d)
    count = int(z.sum())
    return {
        "d_min": d_min,
        "d": d,
        "n_effective": count,
        "estimate": float(outcome[z].mean()) if count else None,
        "unexposed_mean": float(outcome[~z].mean()) if count < len(z) else None,
    }


def generate(workload: str, seed: int, work: Path, spec=None) -> Inputs:
    """Write the workload's inputs under ``work`` and return its calls and expectations."""
    spec = SPECS[workload] if spec is None else spec
    work.mkdir(parents=True, exist_ok=True)
    if workload == "estimate_n3000":
        calls, expected = _generate_estimate(spec, seed, work)
    elif workload == "contrast_n2000":
        calls, expected = _generate_contrast(spec, seed, work)
    elif workload == "simulate":
        calls, expected = _generate_simulate(spec, seed, work)
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(SPECS)}")
    return Inputs(workload, spec, seed, calls, expected)


def _generate_estimate(spec: EstimateSpec, seed, work):
    coords = _layout(spec.n, 1)
    rng = _rng(seed, 1)
    treatment = (rng.random(spec.n) < RHO).astype(np.int64)
    # Negative binomial counts with mean 10 and dispersion 3.
    outcome = rng.negative_binomial(3, 3 / (3 + 10), size=spec.n).astype(float)
    _write_units(work / "units.csv", coords, treatment, outcome)
    _write_json(work / "single.json", {
        "rho": RHO, "alpha": ALPHA,
        "mapping": {"kind": "threshold", "d_min": spec.d_min},
        "neighborhood": {"d": spec.d},
    })
    _write_json(work / "scan.json", {"rho": RHO, "alpha": ALPHA, "bonferroni": [list(c) for c in spec.scan]})
    order = knn_order(coords, max([spec.d] + [d for _, d in spec.scan]))
    units = str(work / "units.csv")

    def expect(d_min, d):
        return _design_expectation(outcome, treatment, order, d_min, d)

    calls = [
        Call(1, "estimate", ("estimate", "--config", str(work / "single.json"), "--data", units), (0, 4)),
        Call(2, "scan", ("estimate", "--config", str(work / "scan.json"), "--data", units), (0, 4)),
    ]
    expected = {
        "estimate": {"alpha": ALPHA, "designs": [expect(spec.d_min, spec.d)]},
        "scan": {"alpha": ALPHA / len(spec.scan), "designs": [expect(a, b) for a, b in spec.scan]},
    }
    return calls, expected


def _generate_contrast(spec: ContrastSpec, seed, work):
    coords = contrast_layout(spec)
    rng = _rng(seed, 2)
    treatment = (rng.random(spec.n) < RHO).astype(np.int64)
    # Binary outcomes whose rate drifts across the map and drops under treatment.
    rate = 0.2 + 0.2 * coords[:, 1] - 0.1 * treatment
    outcome = (rng.random(spec.n) < rate).astype(float)
    mc_seed = int(rng.integers(2**31))
    _write_units(work / "units.csv", coords, treatment, outcome)
    design = {
        "rho": RHO, "alpha": ALPHA,
        "mapping": {"kind": "threshold", "d_min": spec.d_min},
        "neighborhood": {"d": spec.d},
    }
    _write_json(work / "contrast.json", design)
    _write_json(work / "mc.json", dict(design, p_method={"kind": "mc", "samples": spec.mc_samples, "seed": mc_seed}))
    order = knn_order(coords, spec.d)
    exposure = _design_expectation(outcome, treatment, order, spec.d_min, spec.d)
    n1 = int(treatment.sum())
    units = str(work / "units.csv")
    calls = [
        Call(1, "contrast", ("contrast", "--config", str(work / "contrast.json"), "--data", units)),
        Call(2, "estimate_mc", ("estimate", "--config", str(work / "mc.json"), "--data", units), (0, 4)),
    ]
    expected = {
        "contrast": {
            "treatment": {
                "n_exposed": n1,
                "n_unexposed": spec.n - n1,
                "delta": float(outcome[treatment == 1].sum() / n1 - outcome[treatment == 0].sum() / (spec.n - n1)),
            },
            "exposure": exposure,
        },
        "estimate_mc": {"alpha": ALPHA, "designs": [exposure]},
    }
    return calls, expected


def _generate_simulate(spec: SimulateSpec, seed, work):
    rng = _rng(seed, 3)
    calls, expected = [], {}
    runs = [(kind, spec.n_small, spec.replicates_small, SIM49_DESIGNS, 1) for kind in SCENARIOS]
    runs.append(("exposure_model", spec.n_large, spec.replicates_large, SIM500_DESIGNS, 2))
    for kind, n, replicates, designs, step in runs:
        label = f"sim{n}_{kind}"
        _write_json(work / f"{label}.json", {
            "scenario": kind,
            "layout": {"kind": "uniform_square", "n": n, "seed": SIM_LAYOUT_SEED},
            "rho": RHO,
            "alpha": ALPHA,
            "configs": [list(c) for c in designs],
            "replicates": replicates,
            "seed": int(rng.integers(2**31)),
        })
        calls.append(Call(step, label, ("simulate", "--config", str(work / f"{label}.json"), "--format", "json")))
        expected[label] = {"scenario": kind, "n": n, "replicates": replicates, "designs": [list(c) for c in designs]}
    return calls, expected


def simulate_design_counts(spec: SimulateSpec) -> tuple:
    """Replicate-designs in each simulate step, the numerators of its throughputs."""
    return spec.replicates_small * len(SIM49_DESIGNS) * len(SCENARIOS), spec.replicates_large * len(SIM500_DESIGNS)


def load_references(workload: str, spec) -> dict:
    """References recorded for this workload at this size, or {} if none apply."""
    if not REFERENCES.is_file():
        return {}
    entry = json.loads(REFERENCES.read_text()).get(workload, {})
    if entry.get("fingerprint") != fingerprint(spec):
        return {}
    return entry


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check(call: Call, code, stdout: str, inputs: Inputs, refs: dict) -> list:
    """Problems with one call's result; an empty list means the call passed."""
    if code not in call.ok_codes:
        return [f"exit code {code}, expected one of {call.ok_codes}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    expected = inputs.expected[call.label]
    seed_refs = refs.get("seeds", {}).get(str(inputs.seed), {})
    if call.label.startswith("sim"):
        problems = _check_simulate(payload, expected)
        ref = seed_refs.get("sha256", {}).get(call.label)
        if ref is not None and hashlib.sha256(stdout.encode()).hexdigest() != ref:
            problems.append("simulate table differs from the recorded reference")
        return problems
    if call.label == "contrast":
        return _check_contrast(payload, expected, refs.get("lambda_1_eigvalsh"))
    return _check_estimate(payload, code, expected, seed_refs.get("upper_bounds", {}).get(call.label))


def _check_estimate(payload, code, expected, ref_uppers) -> list:
    problems = []
    configs = payload.get("configs", [])
    if len(configs) != len(expected["designs"]):
        return [f"{len(configs)} configs reported, expected {len(expected['designs'])}"]
    if (code == 0) != bool(payload.get("all_conditions_met")):
        problems.append(f"exit code {code} disagrees with all_conditions_met")
    for i, (got, want) in enumerate(zip(configs, expected["designs"])):
        where = f"config {i} (d_min={want['d_min']}, d={want['d']})"
        if (got.get("d_min"), got.get("d")) != (want["d_min"], want["d"]):
            problems.append(f"{where}: reported design ({got.get('d_min')}, {got.get('d')})")
        if got.get("n_effective") != want["n_effective"]:
            problems.append(f"{where}: n_effective {got.get('n_effective')} != recomputed {want['n_effective']}")
        elif not _close(got["estimate"], want["estimate"]):
            problems.append(f"{where}: estimate {got['estimate']!r} != recomputed {want['estimate']!r}")
        if not got.get("upper_bound", -math.inf) >= got.get("estimate", math.inf):
            problems.append(f"{where}: upper_bound {got.get('upper_bound')!r} below estimate {got.get('estimate')!r}")
        if not _close(got.get("alpha", math.nan), expected["alpha"]):
            problems.append(f"{where}: alpha {got.get('alpha')!r} != {expected['alpha']!r}")
        if ref_uppers is not None and not got["upper_bound"] >= ref_uppers[i] - UPPER_REL_SLACK * abs(ref_uppers[i]):
            problems.append(f"{where}: upper_bound {got['upper_bound']!r} below the reference {ref_uppers[i]!r}")
    return problems


def _check_split(block, want, where) -> list:
    problems = []
    if block is None:
        return [f"{where} missing"]
    for key in ("n_exposed", "n_unexposed"):
        if key in want and block.get(key) != want[key]:
            problems.append(f"{where}: {key} {block.get(key)} != recomputed {want[key]}")
    if not _close(block["delta"], want["delta"]):
        problems.append(f"{where}: delta {block['delta']!r} != recomputed {want['delta']!r}")
    low, high = block["two_sided"]
    if not (low <= block["delta"] <= high and block["one_sided_lower"] <= block["delta"]):
        problems.append(f"{where}: interval does not contain delta")
    return problems


def _check_contrast(payload, expected, ref_lambda) -> list:
    exposure = expected["exposure"]
    want_exposure = {
        "n_exposed": exposure["n_effective"],
        "delta": exposure["estimate"] - exposure["unexposed_mean"],
    }
    problems = _check_split(payload.get("treatment_split"), expected["treatment"], "treatment_split")
    problems += _check_split(payload.get("exposure_split"), want_exposure, "exposure_split")
    lam = (payload.get("exposure_split") or {}).get("lambda_1")
    if not (isinstance(lam, float) and lam > 0):
        problems.append(f"exposure_split: lambda_1 {lam!r} is not positive")
    elif ref_lambda is not None and lam < ref_lambda * (1.0 - LAMBDA_REL_SLACK):
        problems.append(f"exposure_split: lambda_1 {lam!r} below eigvalsh {ref_lambda!r}")
    return problems


def _check_simulate(payload, expected) -> list:
    problems = []
    if (payload.get("scenario"), payload.get("n_units"), payload.get("replicates")) != (
        expected["scenario"], expected["n"], expected["replicates"]
    ):
        problems.append("scenario, n_units or replicates differ from the config")
    rows = payload.get("rows", [])
    if [[r.get("d_min"), r.get("d")] for r in rows] != expected["designs"]:
        return problems + ["rows do not match the configured designs"]
    for r in rows:
        where = f"row ({r['d_min']}, {r['d']})"
        if r["n_valid"] + r["n_skipped"] != expected["replicates"] or not 0 <= r["n_condition_met"] <= r["n_valid"]:
            problems.append(f"{where}: replicate tallies are inconsistent")
        for key in ("condition_met_fraction", "coverage_given_condition", "coverage_ignoring_condition"):
            value = r.get(key)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {key} {value!r} outside [0, 1]")
    return problems
