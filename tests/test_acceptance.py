"""Acceptance suite: one test per release criterion, one printed verdict each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import interfere as itf
from interfere.design import evaluate_exposure_many
from interfere.monotone import conservative_variance, point_estimate, validity_condition, variance_estimate
from interfere.normal import norm_ppf

from conftest import random_design

SEED = 20260810


def _verdict(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def adversarial_run():
    layout = itf.synthetic_layout("uniform_square", 49, seed=7)
    scenario = itf.Scenario(kind="adversarial", layout=layout, rho=0.5, seed=SEED)
    start = time.perf_counter()
    table = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 1000)
    elapsed = time.perf_counter() - start
    return table.rows[0], elapsed


def test_criterion_1_two_arm_count_interval():
    start = time.perf_counter()
    report = itf.attributable_contrast_from_counts(
        n_treated=60_000_000,
        pos_treated=12_000_000,
        n_control=611_000,
        pos_control=109_000,
        alpha=0.05,
    )
    elapsed = time.perf_counter() - start
    low, high = (100 * v for v in report.two_sided)
    ok = abs(low - 2.06) <= 0.05 and abs(high - 2.26) <= 0.05 and elapsed < 1.0
    _verdict(
        1,
        "two-arm count interval",
        ok,
        f"two-sided [{low:.4f}%, {high:.4f}%] vs [2.06%, 2.26%] +/- 0.05pp in {elapsed:.3f}s",
    )


def test_criterion_2_adversarial_condition_fraction(adversarial_run):
    row, elapsed = adversarial_run
    fraction = row.condition_met_fraction
    ok = 0.41 <= fraction <= 0.51 and elapsed < 10.0
    _verdict(
        2,
        "adversarial (1,1) condition-met fraction",
        ok,
        f"fraction {fraction:.3f} in [0.41, 0.51], {row.replicates} replicates in {elapsed:.2f}s",
    )


def test_criterion_3_adversarial_coverage(adversarial_run):
    row, _ = adversarial_run
    conditional = row.coverage_given_condition
    unconditional = row.coverage_ignoring_condition
    ok = conditional >= 0.97 and 0.83 <= unconditional <= 0.91
    _verdict(
        3,
        "adversarial (1,1) coverage",
        ok,
        f"conditional {conditional:.3f} >= 0.97, ignoring-condition {unconditional:.3f} in [0.83, 0.91]",
    )


def test_criterion_4_no_effect_undercoverage_direction():
    layout = itf.synthetic_layout("uniform_square", 49, seed=7)
    scenario = itf.Scenario(kind="no_effect_no_clustering", layout=layout, rho=0.5, seed=SEED)
    table = itf.run_coverage_experiment(scenario, [(1, 1)], 0.05, 1000)
    coverage = table.rows[0].coverage_given_condition
    ok = 0.88 <= coverage <= 0.95
    _verdict(
        4,
        "no-effect (1,1) under-coverage direction",
        ok,
        f"coverage {coverage:.3f} in [0.88, 0.95] (synthetic count pool, 1000 replicates)",
    )


def test_criterion_5_exact_profile_matches_enumeration():
    gen = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for _ in range(17):
        n = int(gen.integers(2, 13))
        coords = gen.random((n, int(gen.integers(1, 3))))
        d = int(gen.integers(1, n + 1))
        nbhd = itf.build_knn_neighborhoods(coords, d)
        mappings = [itf.ExposureMapping.product(), itf.ExposureMapping.threshold(int(gen.integers(1, d + 1)))]
        for mapping in mappings:
            for rho in (0.2, 0.5, 0.8):
                exact = itf.exact_profile(nbhd, mapping, rho)
                oracle = itf.enumerated_profile(nbhd, mapping, rho)
                worst = max(
                    worst,
                    float(np.abs(exact.joint - oracle.joint).max()),
                    abs(exact.p - oracle.p),
                )
                count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and count >= 100 and elapsed < 30.0
    _verdict(
        5,
        "exact pairwise probabilities vs enumeration oracle",
        ok,
        f"max |diff| {worst:.2e} over {count} designs in {elapsed:.1f}s",
    )


def test_criterion_6_variance_decomposition_identity():
    gen = np.random.default_rng(SEED + 1)
    worst = 0.0
    all_close = True
    for _ in range(100):
        nbhd, mapping, rho = random_design(gen, max_units=12)
        profile = itf.enumerated_profile(nbhd, mapping, rho)
        theta = gen.gamma(2.0, 5.0, size=nbhd.n)
        centered_theta = theta - theta.mean()
        quadratic = float(centered_theta @ profile.joint @ centered_theta)
        decomposed = (
            profile.n * profile.p * (1 - profile.p) * (centered_theta**2).mean()
            + float(theta @ itf.center_excess(profile.joint, profile.p)[1] @ theta)
        )
        # relative check at 1e-8 with an absolute floor for designs whose
        # variance is identically zero (shared-neighborhood degeneracies)
        all_close &= math.isclose(quadratic, decomposed, rel_tol=1e-8, abs_tol=1e-8)
        scale = max(abs(quadratic), abs(decomposed))
        if scale > 1e-6:
            worst = max(worst, abs(quadratic - decomposed) / scale)
    ok = bool(all_close) and worst <= 1e-8
    _verdict(
        6,
        "variance decomposition identity",
        ok,
        f"worst relative gap {worst:.2e} over 100 random (theta, design) instances",
    )


def test_criterion_7_observed_outcomes_maximize_bound():
    gen = np.random.default_rng(99)
    alpha = 0.05
    z = norm_ppf(1 - alpha)
    found = 0
    trials = 0
    worst_gap = -math.inf
    while found < 50 and trials < 5000:
        trials += 1
        n = int(gen.integers(2, 6))
        coords = gen.random((n, 2))
        d = int(gen.integers(1, n + 1))
        nbhd = itf.build_knn_neighborhoods(coords, d)
        if gen.random() < 0.5:
            mapping = itf.ExposureMapping.product()
        else:
            mapping = itf.ExposureMapping.threshold(int(gen.integers(1, d + 1)))
        rho = float(gen.choice([0.2, 0.5, 0.8]))
        profile = itf.exact_profile(nbhd, mapping, rho)
        x = (gen.random(n) < rho).astype(np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        if expo.count == 0:
            continue
        y = np.round(gen.gamma(2.0, 5.0, size=n), 1)
        variance = conservative_variance(y, expo, profile)
        if variance <= 0:
            continue
        estimate = point_estimate(y, expo)
        if not validity_condition(estimate, variance, profile, alpha, expo.count):
            continue
        found += 1
        observed_value = estimate + z * math.sqrt(variance) / expo.count
        # grid over the active coordinates only; inactive units do not enter
        idx = np.flatnonzero(expo.indicator)
        axes = [np.linspace(0.0, y[i], 11) for i in idx]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        joint = profile.joint[np.ix_(idx, idx)]
        clipped = np.maximum(itf.center_excess(profile.joint, profile.p)[1][np.ix_(idx, idx)], 0.0) / joint
        means = points.mean(axis=1)
        lead = profile.n * profile.p * (1 - profile.p) * ((points - means[:, None]) ** 2).mean(axis=1)
        pair = np.einsum("mi,ij,mj->m", points, clipped, points)
        values = means + z * np.sqrt(lead + pair) / expo.count
        worst_gap = max(worst_gap, float(values.max() - observed_value))
    ok = found >= 50 and worst_gap <= 1e-9
    _verdict(
        7,
        "observed outcomes maximize the bound under the condition",
        ok,
        f"worst grid-vs-observed gap {worst_gap:.2e} over {found} condition-passing designs",
    )


def test_criterion_8_studentized_statistic_normality():
    start = time.perf_counter()
    n = 500
    layout = itf.synthetic_layout("line", n)
    nbhd = itf.build_knn_neighborhoods(layout, 3)
    mapping = itf.ExposureMapping.threshold(2)
    profile = itf.exact_profile(nbhd, mapping, 0.5)
    assert profile.overlap_degree <= 6
    gen = np.random.default_rng(np.random.SeedSequence(SEED))
    theta = gen.gamma(2.0, 5.0, size=n)
    target = theta.mean()
    x = (gen.random((2000, n)) < 0.5).astype(np.int8)
    zmat = evaluate_exposure_many(x, nbhd, mapping)
    studentized = np.empty(2000)
    for r in range(2000):
        expo = itf.EffectiveTreatment(indicator=zmat[r], count=int(zmat[r].sum()))
        estimate = point_estimate(theta, expo)
        variance = variance_estimate(theta, expo, profile)
        studentized[r] = expo.count * (target - estimate) / math.sqrt(variance)
    elapsed = time.perf_counter() - start
    ks_statistic = stats.kstest(studentized, "norm").statistic
    critical = stats.kstwobign.isf(0.01) / math.sqrt(2000)
    ok = ks_statistic < critical and elapsed < 120.0
    _verdict(
        8,
        "studentized statistic is normal at n=500",
        ok,
        f"KS {ks_statistic:.4f} < 1% critical {critical:.4f} (overlap degree "
        f"{profile.overlap_degree}, 2000 replicates, {elapsed:.1f}s)",
    )


def test_criterion_9_contrast_bound_exceedance():
    gen = np.random.default_rng(3)
    xi_apart = gen.integers(0, 2, size=400)
    treatment_summary = itf.concentration_check(xi_apart, 2000, 200, alpha=0.05, seed=11)
    layout = itf.synthetic_layout("uniform_square", 200, seed=5)
    nbhd = itf.build_knn_neighborhoods(layout, 3)
    mapping = itf.ExposureMapping.threshold(2)
    xi_net = gen.integers(0, 2, size=200)
    exposure_summary = itf.concentration_check(xi_net, 2000, (nbhd, mapping, 0.5), alpha=0.05, seed=12)
    ok = (
        treatment_summary.exceed_fraction <= 0.05 + 0.02
        and exposure_summary.exceed_fraction <= 0.05 + 0.02
    )
    _verdict(
        9,
        "full-control contrast exceedance",
        ok,
        f"treatment split {treatment_summary.exceed_fraction:.4f}, exposure split "
        f"{exposure_summary.exceed_fraction:.4f}, both <= 0.07 over 2000 draws",
    )
