import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import interfere as itf
from interfere import contrast
from interfere.contrast import _CW_MAX_ITERATIONS, _CW_TOLERANCE, _DENSE_MAX_N, _ROUNDING, _split_deltas
from interfere.errors import ValidationError
from interfere.exposure import _finalize
from interfere.normal import norm_ppf

from conftest import dense_profile


class TestTreatmentSplitContrast:
    def test_identical_arms_center_at_zero(self):
        x = np.array([1, 1, 0, 0])
        y = np.array([1, 0, 1, 0])
        report = itf.attributable_contrast(x, y, 0.05)
        assert report.delta == 0.0
        low, high = report.two_sided
        assert low == pytest.approx(-high)

    def test_equal_arm_half_width_formula(self):
        n_arm = 50
        x = np.repeat([1, 0], n_arm)
        y = np.zeros(2 * n_arm, dtype=int)
        report = itf.attributable_contrast(x, y, 0.05)
        expected = norm_ppf(0.975) / 2 * math.sqrt(2.0 / n_arm)
        assert report.two_sided[1] == pytest.approx(expected, rel=1e-12)

    def test_width_shrinks_by_sqrt2_when_arms_double(self):
        small = itf.attributable_contrast_from_counts(100, 10, 100, 5, 0.05)
        large = itf.attributable_contrast_from_counts(200, 20, 200, 10, 0.05)
        width_small = small.two_sided[1] - small.two_sided[0]
        width_large = large.two_sided[1] - large.two_sided[0]
        assert width_small / width_large == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_relabeling_invariance(self, rng):
        x = (rng.random(40) < 0.5).astype(int)
        while not 0 < x.sum() < 40:
            x = (rng.random(40) < 0.5).astype(int)
        y = (rng.random(40) < 0.3).astype(int)
        perm = rng.permutation(40)
        a = itf.attributable_contrast(x, y, 0.1)
        b = itf.attributable_contrast(x[perm], y[perm], 0.1)
        assert a.delta == pytest.approx(b.delta)
        assert a.two_sided == pytest.approx(b.two_sided)

    def test_counts_equal_expanded_units(self):
        counts = dict(n_treated=60, pos_treated=12, n_control=40, pos_control=4)
        from_counts = itf.attributable_contrast_from_counts(alpha=0.05, **counts)
        x = np.repeat([1, 0], [60, 40])
        y = np.concatenate([np.repeat([1, 0], [12, 48]), np.repeat([1, 0], [4, 36])])
        expanded = itf.attributable_contrast(x, y, 0.05)
        assert from_counts.delta == pytest.approx(expanded.delta, rel=1e-15)
        assert from_counts.two_sided == pytest.approx(expanded.two_sided, rel=1e-15)

    def test_one_sided_uses_lower_quantile(self):
        report = itf.attributable_contrast_from_counts(100, 30, 100, 10, 0.05)
        scale = 0.5 * math.sqrt(200 / (100 * 100))
        assert report.one_sided_lower == pytest.approx(report.delta - norm_ppf(0.95) * scale)

    def test_single_arm_rejected(self):
        with pytest.raises(ValidationError, match="both"):
            itf.attributable_contrast(np.ones(5, dtype=int), np.zeros(5, dtype=int), 0.05)

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(ValidationError, match="binary"):
            itf.attributable_contrast(np.array([1, 0, 1]), np.array([0.0, 2.0, 1.0]), 0.05)


def centered_top(joint):
    """numpy.linalg.eigvalsh's largest eigenvalue of (I - 11'/n) J (I - 11'/n)
    for a symmetric J, whose row and column means agree."""
    means = joint.mean(axis=1)
    return float(np.linalg.eigvalsh(joint - means[:, None] - means + means.mean())[-1])


def check_bound(result, profile):
    """The bound is at least lambda_1 and the Ritz value at most lambda_1, up
    to rounding. The exact certificate is lambda_1; a Collatz-Wielandt bound
    lies between rho(|M|) and rho(|M|) / (1 - tolerance), by its stopping rule."""
    shifted = profile.joint - profile.p * profile.p
    reference = centered_top(shifted)
    allowance = _ROUNDING * np.abs(shifted).sum(axis=1).max()
    assert result.value >= reference
    assert result.ritz <= reference + allowance
    if result.certificate == "exact":
        assert result.value == pytest.approx(max(reference, 0.0) + allowance, rel=1e-10, abs=1e-15)
        assert result.steps == 0
    else:
        assert result.certificate == "collatz_wielandt"
        perron = float(np.linalg.eigvalsh(np.abs(shifted))[-1])
        assert perron <= result.value <= perron / (1.0 - _CW_TOLERANCE) + allowance
        assert 1 <= result.steps < _CW_MAX_ITERATIONS
    return reference


def knn_profile(n, d, mapping, method, seed, layout="uniform_square"):
    nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout(layout, n, seed=seed), d)
    if method == "exact":
        return itf.exact_profile(nbhd, mapping, 0.5)
    return itf.monte_carlo_profile(nbhd, mapping, 0.5, 2000, seed=seed)


def pattern_profile(p, diag, joint):
    """A profile whose pattern is the nonzero off-diagonal upper entries of
    ``joint - p^2``, which need not come from a design."""
    rows, cols = np.nonzero(np.triu(joint - p * p, 1))
    return _finalize(p, diag, rows, cols, joint[rows, cols], 0, "exact")


def paired_profile(n=300, p=0.5, covariance=-0.2):
    """Units 2k and 2k+1 with covariance ``covariance``, all others independent.
    M is block diagonal with blocks [[a, c], [c, a]], a = p(1 - p), so with c < 0
    lambda_1 = a - c belongs to the mean-zero vector (1, -1, 1, -1, ...), while
    M's signed row sums are a + c."""
    joint = np.full((n, n), p * p)
    np.fill_diagonal(joint, p)
    pairs = np.arange(0, n, 2)
    joint[pairs, pairs + 1] = joint[pairs + 1, pairs] = p * p + covariance
    return pattern_profile(p, np.full(n, p), joint)


def signed_profile(n=300, p=0.5, seed=0):
    """J = p^2 11' + B B' / 4 for a sparse B with random signs: positive
    semidefinite, with negative excess entries on a sparse pattern."""
    gen = np.random.default_rng(seed)
    b = np.zeros((n, n))
    b[np.repeat(np.arange(n), 3), gen.integers(0, n, 3 * n)] = gen.choice([-1.0, 1.0], 3 * n)
    joint = p * p + b @ b.T / 4
    return pattern_profile(p, np.diagonal(joint).copy(), joint)


class TestLargestCenteredEigenvalue:
    def test_singleton_design_closed_form(self):
        # joint = p(1-p) I + p^2 11': centering kills the rank-one part,
        # leaving p(1-p) on the mean-zero subspace.
        nbhd = itf.build_knn_neighborhoods(np.arange(7.0)[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.3)
        for matrix in (profile, dense_profile(profile.joint)):
            lam = itf.largest_centered_eigenvalue(matrix)
            assert lam.value == pytest.approx(0.3 * 0.7, rel=1e-10)
            assert lam.certificate == "exact"
        # Above the dense cutoff |M| = M = p(1-p) I, so the first
        # Collatz-Wielandt iterate is exact too.
        nbhd = itf.build_knn_neighborhoods(np.arange(300.0)[:, None], 1)
        lam = itf.largest_centered_eigenvalue(itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.3))
        assert lam.value == pytest.approx(0.3 * 0.7, rel=1e-10)
        assert (lam.certificate, lam.steps) == ("collatz_wielandt", 1)

    def test_identity_matrix(self):
        assert itf.largest_centered_eigenvalue(dense_profile(np.eye(4))).value == pytest.approx(1.0, rel=1e-10)

    def test_two_units(self):
        assert itf.largest_centered_eigenvalue(dense_profile(np.eye(2))).value == pytest.approx(1.0, rel=1e-10)

    def test_single_unit_is_zero(self):
        assert itf.largest_centered_eigenvalue(dense_profile(np.eye(1))) == itf.EigenvalueBound(0.0, 0.0, 0, "exact")

    def test_matches_dense_eigensolver_on_random_psd(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n))
            psd = a @ a.T
            lam = itf.largest_centered_eigenvalue(dense_profile(psd))
            reference = centered_top(psd)
            assert lam.value == pytest.approx(reference, rel=1e-8, abs=1e-12)
            assert lam.value >= reference
            assert lam.certificate == "exact"

    def test_bound_on_random_psd_up_to_400_units(self, rng):
        # An all-pairs profile takes the dense branch at every n.
        for n in (2, 5, 30, 150, 240, 400):
            a = rng.standard_normal((n, n + 5))
            psd = a @ a.T / n
            profile = dense_profile(psd)
            result = itf.largest_centered_eigenvalue(profile)
            reference = check_bound(result, profile)
            proj = np.eye(n) - np.ones((n, n)) / n
            if n > 2:
                assert eigsh(proj @ psd @ proj, k=1, which="LA")[0][0] == pytest.approx(reference, rel=1e-10)
            assert result.certificate == "exact"

    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("mapping", [itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)])
    def test_bound_on_knn_designs(self, method, mapping):
        for n, d in ((2, 2), (9, 3), (60, 3), (250, 4), (400, 3)):
            profile = knn_profile(n, d, mapping, method, seed=n)
            result = itf.largest_centered_eigenvalue(profile)
            reference = check_bound(result, profile)
            if n > 2:
                joint = profile.joint
                proj = np.eye(n) - np.ones((n, n)) / n
                assert eigsh(proj @ joint @ proj, k=1, which="LA")[0][0] == pytest.approx(reference, rel=1e-10)
            pattern = method == "exact" and n > _DENSE_MAX_N
            assert result.certificate == ("collatz_wielandt" if pattern else "exact")

    @pytest.mark.parametrize("layout", ["uniform_square", "two_cluster"])
    @pytest.mark.parametrize("mapping", [itf.ExposureMapping.product(), itf.ExposureMapping.threshold(3)])
    @pytest.mark.parametrize("n", [300, 500, 2000])
    def test_bound_on_exact_knn_profiles(self, n, mapping, layout):
        profile = knn_profile(n, 6, mapping, "exact", seed=n, layout=layout)
        result = itf.largest_centered_eigenvalue(profile)
        assert result.certificate == "collatz_wielandt"
        check_bound(result, profile)

    @pytest.mark.parametrize("profile", [paired_profile(), signed_profile()], ids=["paired", "signed"])
    def test_bound_on_pattern_profiles_with_negative_excess(self, profile):
        assert (profile.values < profile.p * profile.p).any()
        result = itf.largest_centered_eigenvalue(profile)
        assert result.certificate == "collatz_wielandt"
        check_bound(result, profile)

    def test_first_iterate_is_the_row_sum_bound(self, monkeypatch):
        profile = signed_profile()
        monkeypatch.setattr(contrast, "_CW_MAX_ITERATIONS", 1)
        result = itf.largest_centered_eigenvalue(profile)
        row_sum = np.abs(profile.joint - profile.p * profile.p).sum(axis=1).max()
        assert result.value == pytest.approx(row_sum * (1 + _ROUNDING), rel=1e-13)
        assert result.steps == 1
        assert result.value >= centered_top(profile.joint)

    def test_branch_follows_size_and_pattern(self):
        mapping = itf.ExposureMapping.threshold(2)
        for n, method, certificate in (
            (_DENSE_MAX_N, "exact", "exact"),
            (_DENSE_MAX_N + 1, "exact", "collatz_wielandt"),
            (_DENSE_MAX_N + 1, "monte_carlo", "exact"),
        ):
            profile = knn_profile(n, 3, mapping, method, seed=1)
            assert itf.largest_centered_eigenvalue(profile).certificate == certificate

    @pytest.mark.parametrize("n", [20, 300])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_exposure_probability_is_finite(self, p, n):
        # p in {0, 1}: every joint probability is p = p^2, so M = 0.
        rows, cols = np.triu_indices(n, 1)
        keep = cols - rows <= 3
        profile = _finalize(p, np.full(n, p), rows[keep], cols[keep], np.full(keep.sum(), p), 6, "exact")
        with np.errstate(all="raise"):
            result = itf.largest_centered_eigenvalue(profile)
        assert result == itf.EigenvalueBound(0.0, 0.0, result.steps, result.certificate)

    def test_pattern_bound_memory_is_linear(self):
        # A 227-step basis at n = 20 000 alone would take 36 MB, the dense
        # matrix 3.2 GB; the iteration holds a few pattern-length arrays.
        profile = knn_profile(20_000, 6, itf.ExposureMapping.threshold(3), "exact", seed=1)
        n, pairs = profile.n, profile.rows.size
        tracemalloc.start()
        try:
            result = itf.largest_centered_eigenvalue(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.certificate == "collatz_wielandt"
        assert peak <= 8 * (10 * n + 6 * pairs)

    def test_not_positive_semidefinite_rejected(self):
        # -I and diag(1, ..., 1, -1): the centered form of each has a negative
        # eigenvalue, although the top one of the first is 0 (along 1).
        for diag in (-np.ones(5), np.append(np.ones(4), -1.0)):
            with pytest.raises(ValidationError, match="positive semidefinite"):
                itf.largest_centered_eigenvalue(dense_profile(np.diag(diag)))


class TestExposureSplitContrast:
    def _design(self, n=40, d_min=2, d=3, rho=0.5, seed=4):
        layout = itf.synthetic_layout("uniform_square", n, seed=seed)
        nbhd = itf.build_knn_neighborhoods(layout, d)
        mapping = itf.ExposureMapping.threshold(d_min)
        profile = itf.exact_profile(nbhd, mapping, rho)
        return nbhd, mapping, profile

    def test_singleton_half_width_closed_form(self):
        n = 30
        nbhd = itf.build_knn_neighborhoods(np.arange(float(n))[:, None], 1)
        mapping = itf.ExposureMapping.threshold(1)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        x = (np.random.default_rng(0).random(n) < 0.5).astype(np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        y = (np.random.default_rng(1).random(n) < 0.4).astype(int)
        report = itf.exposure_attributable_contrast(y, expo, profile, 0.05)
        # lambda_1 = p(1-p), so the one-sided margin is z / (2 sqrt(n p(1-p)))
        expected = norm_ppf(0.95) / (2 * math.sqrt(n * 0.25))
        assert report.delta - report.one_sided_lower == pytest.approx(expected, rel=1e-9)

    def test_zero_outcomes_center_interval_at_zero(self):
        nbhd, mapping, profile = self._design()
        x = (np.random.default_rng(2).random(40) < 0.5).astype(np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        report = itf.exposure_attributable_contrast(np.zeros(40, dtype=int), expo, profile, 0.05)
        assert report.delta == 0.0
        assert report.two_sided[0] == pytest.approx(-report.two_sided[1])

    def test_singleton_split_matches_treatment_split_delta(self):
        n = 24
        nbhd = itf.build_knn_neighborhoods(np.arange(float(n))[:, None], 1)
        mapping = itf.ExposureMapping.threshold(1)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        gen = np.random.default_rng(6)
        x = (gen.random(n) < 0.5).astype(np.int8)
        y = (gen.random(n) < 0.5).astype(int)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        z_report = itf.exposure_attributable_contrast(y, expo, profile, 0.05)
        t_report = itf.attributable_contrast(x, y, 0.05)
        assert z_report.delta == pytest.approx(t_report.delta, rel=1e-12)

    def test_half_width_ignores_outcomes(self):
        nbhd, mapping, profile = self._design()
        gen = np.random.default_rng(3)
        x = (gen.random(40) < 0.5).astype(np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        r1 = itf.exposure_attributable_contrast((gen.random(40) < 0.5).astype(int), expo, profile, 0.05)
        r2 = itf.exposure_attributable_contrast((gen.random(40) < 0.2).astype(int), expo, profile, 0.05)
        assert r1.two_sided[1] - r1.delta == pytest.approx(r2.two_sided[1] - r2.delta, rel=1e-12)
        assert r1.lambda_1 == r2.lambda_1

    def test_everyone_exposed_rejected(self):
        nbhd, mapping, profile = self._design()
        expo = itf.evaluate_exposure(np.ones(40, dtype=np.int8), nbhd, mapping)
        with pytest.raises(ValidationError, match="nonempty"):
            itf.exposure_attributable_contrast(np.zeros(40, dtype=int), expo, profile, 0.05)

    def test_exposure_of_another_length_rejected(self):
        _, _, profile = self._design()
        expo = itf.EffectiveTreatment(indicator=np.array([1, 0, 1], dtype=np.int8), count=2)
        with pytest.raises(ValidationError, match="differ in length"):
            itf.exposure_attributable_contrast(np.zeros(40, dtype=int), expo, profile, 0.05)

    def test_report_carries_assumption_text(self):
        nbhd, mapping, profile = self._design()
        x = (np.random.default_rng(9).random(40) < 0.5).astype(np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        report = itf.exposure_attributable_contrast(np.zeros(40, dtype=int), expo, profile, 0.05)
        assert "not checkable" in report.assumptions


class TestConcentrationCheck:
    def test_constant_vector_never_exceeds(self):
        summary = itf.concentration_check(np.ones(30, dtype=int), 200, 15, alpha=0.05, seed=2)
        assert summary.exceed_count == 0
        assert summary.num_valid == 200

    def test_treatment_split_exceedance_near_alpha(self):
        xi = (np.random.default_rng(3).random(400) < 0.5).astype(int)
        summary = itf.concentration_check(xi, 500, 200, alpha=0.05, seed=11)
        assert summary.kind == "treatment"
        assert summary.exceed_fraction <= 0.05 + 0.04

    def test_exposure_split_smoke(self):
        layout = itf.synthetic_layout("uniform_square", 60, seed=5)
        nbhd = itf.build_knn_neighborhoods(layout, 3)
        mapping = itf.ExposureMapping.threshold(2)
        xi = (np.random.default_rng(4).random(60) < 0.5).astype(int)
        summary = itf.concentration_check(xi, 400, (nbhd, mapping, 0.5), alpha=0.05, seed=12)
        assert summary.kind == "exposure"
        assert summary.num_valid + summary.num_degenerate == 400
        assert summary.exceed_fraction <= 0.05 + 0.05

    def test_deterministic_given_seed(self):
        xi = (np.random.default_rng(3).random(100) < 0.5).astype(int)
        a = itf.concentration_check(xi, 300, 50, alpha=0.05, seed=7)
        b = itf.concentration_check(xi, 300, 50, alpha=0.05, seed=7)
        assert a == b

    def test_rejects_nonbinary(self):
        with pytest.raises(ValidationError, match="binary"):
            itf.concentration_check(np.array([0.5, 1.0]), 10, 1)


def recorded_draws(monkeypatch, *args, **kwargs):
    """Run concentration_check and return its summary with the group rows
    and deltas it scored."""
    calls = []

    def record(y, groups):
        counts, deltas = _split_deltas(y, groups)
        calls.append((groups.copy(), deltas.copy()))
        return counts, deltas

    with monkeypatch.context() as patch:
        patch.setattr(contrast, "_split_deltas", record)
        summary = itf.concentration_check(*args, **kwargs)
    (groups, deltas), = calls
    return summary, groups, deltas


class TestConcentrationCheckScoresTheReportedDelta:
    """Every draw's delta is the one the report of that draw's groups gives."""

    def test_treatment_split(self, monkeypatch):
        xi = (np.random.default_rng(5).random(50) < 0.4).astype(int)
        summary, groups, deltas = recorded_draws(monkeypatch, xi, 200, 17, alpha=0.05, seed=3)
        assert groups.shape == (200, 50) and (groups.sum(axis=1) == 17).all()
        for row, delta in zip(groups, deltas):
            assert itf.attributable_contrast(row, xi, 0.05).delta == delta
        assert summary.exceed_count == int((deltas > summary.bound).sum()) > 0

    @pytest.mark.parametrize("mapping", [itf.ExposureMapping.threshold(2), itf.ExposureMapping.product()])
    def test_exposure_split(self, monkeypatch, mapping):
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 24, seed=2), 3)
        profile = itf.exact_profile(nbhd, mapping, 0.4)
        xi = (np.random.default_rng(6).random(24) < 0.5).astype(int)
        summary, groups, deltas = recorded_draws(monkeypatch, xi, 120, (nbhd, mapping, 0.4), alpha=0.2, seed=8)
        counts = groups.sum(axis=1)
        valid = (counts > 0) & (counts < 24)
        assert summary.num_valid == int(valid.sum()) > 0
        for row, count, delta in zip(groups[valid], counts[valid], deltas[valid]):
            exposure = itf.EffectiveTreatment(indicator=row, count=int(count))
            report = itf.exposure_attributable_contrast(xi, exposure, profile, 0.2)
            assert report.delta == delta
            assert report.n_exposed == count
        assert summary.exceed_count == int((deltas[valid] > summary.bound).sum())
