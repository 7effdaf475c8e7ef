import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import interfere as itf
from interfere import contrast
from interfere.contrast import (
    _ROUNDING, _SLACK, _centered_operator, _lanczos_steps, _random_start_slack, _split_deltas,
)
from interfere.errors import ValidationError
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
    """numpy.linalg.eigvalsh's largest eigenvalue of (I - 11'/n) J (I - 11'/n)."""
    n = joint.shape[0]
    proj = np.eye(n) - np.ones((n, n)) / n
    return float(np.linalg.eigvalsh(proj @ joint @ proj)[-1])


def check_bound(result, reference, row_sum, n):
    """The bound is at least lambda_1 and at most the documented slack above it."""
    assert result.value >= reference
    assert result.value <= reference / (1.0 - _SLACK) + _ROUNDING * row_sum
    assert result.ritz <= reference * (1 + 1e-12) + 1e-15
    if result.certificate == "random_start":
        widened = result.ritz / (1.0 - _random_start_slack(n, result.steps))
        assert result.value == pytest.approx(widened + _ROUNDING * row_sum, rel=1e-15)


def knn_profile(n, d, mapping, method, seed):
    layout = itf.synthetic_layout("uniform_square", n, seed=seed)
    nbhd = itf.build_knn_neighborhoods(layout, d)
    if method == "exact":
        return itf.exact_profile(nbhd, mapping, 0.5)
    return itf.monte_carlo_profile(nbhd, mapping, 0.5, 2000, seed=seed)


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
            lam = itf.largest_centered_eigenvalue(dense_profile(psd), seed=3)
            reference = centered_top(psd)
            assert lam.value == pytest.approx(reference, rel=1e-8, abs=1e-12)
            assert lam.value >= reference
            assert lam.certificate == "exact"

    def test_bound_on_random_psd_up_to_400_units(self, rng):
        for n in (2, 5, 30, 150, 240, 400):
            a = rng.standard_normal((n, n + 5))
            psd = a @ a.T / n
            result = itf.largest_centered_eigenvalue(dense_profile(psd), seed=n)
            reference = centered_top(psd)
            proj = np.eye(n) - np.ones((n, n)) / n
            if n > 2:
                assert eigsh(proj @ psd @ proj, k=1, which="LA")[0][0] == pytest.approx(reference, rel=1e-10)
            check_bound(result, reference, np.abs(psd).sum(axis=1).max(), n)
            exact = n - 1 <= _lanczos_steps(n)
            assert result.certificate == ("exact" if exact else "random_start")
            assert result.steps == min(n - 1, _lanczos_steps(n))

    @pytest.mark.parametrize("method", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("mapping", [itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)])
    def test_bound_on_knn_designs(self, method, mapping):
        for n, d in ((2, 2), (9, 3), (60, 3), (250, 4), (400, 3)):
            profile = knn_profile(n, d, mapping, method, seed=n)
            joint = profile.joint
            reference = centered_top(joint)
            if n > 2:
                proj = np.eye(n) - np.ones((n, n)) / n
                assert eigsh(proj @ joint @ proj, k=1, which="LA")[0][0] == pytest.approx(reference, rel=1e-10)
            _, _, row_sum = _centered_operator(profile)
            assert row_sum >= reference
            result = itf.largest_centered_eigenvalue(profile)
            check_bound(result, reference, row_sum, n)
            if result.certificate == "exact":
                assert result.value == pytest.approx(reference, rel=1e-8)

    def test_sparse_and_dense_operators_agree(self):
        profile = knn_profile(120, 5, itf.ExposureMapping.threshold(3), "exact", seed=2)
        matvec, n, row_sum = _centered_operator(profile)
        dense_matvec, _, _ = _centered_operator(dense_profile(profile.joint))
        shifted = profile.joint - profile.p**2
        assert row_sum == pytest.approx(np.abs(shifted).sum(axis=1).max(), rel=1e-12)
        v = np.random.default_rng(0).standard_normal(n)
        proj = np.eye(n) - np.ones((n, n)) / n
        assert np.allclose(matvec(v), proj @ profile.joint @ proj @ v, rtol=0, atol=1e-14)
        assert np.allclose(dense_matvec(v), matvec(v), rtol=0, atol=1e-14)

    def test_row_sum_caps_the_random_start_bound(self):
        # lambda_1(P D P) lies between the top two entries of D, both 1, which
        # is also D's largest row sum; the random-start bound would exceed it.
        n = 400
        diag = np.linspace(0.5, 1.0, n)
        diag[-2] = 1.0
        result = itf.largest_centered_eigenvalue(dense_profile(np.diag(diag)))
        assert result.certificate == "row_sum"
        assert result.value == pytest.approx(1.0, rel=1e-11)
        assert result.value >= centered_top(np.diag(diag))

    def test_not_positive_semidefinite_rejected(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            itf.largest_centered_eigenvalue(dense_profile(-np.eye(5)))


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
