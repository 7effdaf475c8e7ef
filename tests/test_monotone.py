import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interfere as itf
from interfere.design import evaluate_exposure_many
from interfere.errors import (
    DegenerateVarianceError,
    NoEffectiveUnitsError,
    ValidationError,
    ZeroJointProbabilityError,
)
from interfere.monotone import _bound_from_values
from interfere.normal import norm_ppf

from conftest import random_design


def make_exposure(bits):
    z = np.asarray(bits, dtype=np.int8)
    return itf.EffectiveTreatment(indicator=z, count=int(z.sum()))


class TestPointEstimate:
    def test_all_active_is_plain_mean(self, rng):
        values = rng.random(6)
        assert itf.point_estimate(values, make_exposure([1] * 6)) == pytest.approx(values.mean())

    def test_subset(self):
        assert itf.point_estimate(np.array([3.0, 7.0, 100.0]), make_exposure([1, 1, 0])) == 5.0

    def test_constant_values(self):
        assert itf.point_estimate(np.full(4, 2.5), make_exposure([0, 1, 0, 1])) == 2.5

    def test_no_active_units(self):
        with pytest.raises(NoEffectiveUnitsError):
            itf.point_estimate(np.ones(3), make_exposure([0, 0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="differ in length"):
            itf.point_estimate(np.ones(4), make_exposure([1, 0, 1]))


class TestVarianceEstimates:
    def test_singleton_design_reduces_to_leading_term(self, rng):
        n = 8
        nbhd = itf.build_knn_neighborhoods(np.arange(float(n))[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.5)
        x = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=np.int8)
        expo = make_exposure(x)
        theta = rng.gamma(2.0, 5.0, size=n)
        active = theta[x > 0]
        expected = n * 0.25 * ((active - active.mean()) ** 2).mean()
        assert itf.variance_estimate(theta, expo, profile) == pytest.approx(expected, rel=1e-12)
        assert itf.conservative_variance(theta, expo, profile) == pytest.approx(expected, rel=1e-12)

    def test_constant_values_leave_only_pair_term(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {0, 1}, {1, 2}])
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        expo = make_exposure([1, 1, 1])
        theta = np.full(3, 4.0)
        ratio = itf.center_excess(profile.joint, profile.p)[1] / profile.joint
        assert itf.variance_estimate(theta, expo, profile) == pytest.approx(16.0 * ratio.sum(), rel=1e-12)

    def test_three_unit_hand_computed_values(self):
        # Oracle: full-enumeration profile for product sets {0,1},{0,1},{1,2}
        # at rho=0.5 (positive centered-excess entries off-diagonal), then the
        # two variance formulas evaluated by hand for Y=(5,2,9), all exposed.
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {0, 1}, {1, 2}])
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        assert itf.center_excess(profile.joint, profile.p)[1][0, 1] > 0
        expo = make_exposure([1, 1, 1])
        y = np.array([5.0, 2.0, 9.0])
        assert itf.conservative_variance(y, expo, profile) == pytest.approx(
            18.84722222222222, rel=1e-12
        )
        assert itf.variance_estimate(y, expo, profile) == pytest.approx(
            3.0694444444444438, rel=1e-12
        )

    def test_expectation_matches_exact_variance(self):
        # Var(T) has the exact form (theta - mean)' J (theta - mean); the
        # estimator averaged over many assignments must come within a
        # tolerance that allows its O(1/(n p)) small-sample bias.
        n = 300
        nbhd = itf.build_knn_neighborhoods(np.arange(float(n))[:, None], 3)
        mapping = itf.ExposureMapping.threshold(2)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        gen = np.random.default_rng(4)
        theta = gen.gamma(2.0, 5.0, size=n)
        centered_theta = theta - theta.mean()
        exact_var = float(centered_theta @ profile.joint @ centered_theta)

        draws = 30_000
        x = (np.random.default_rng(9).random((draws, n)) < 0.5).astype(np.int8)
        zmat = evaluate_exposure_many(x, nbhd, mapping).astype(float)
        counts = zmat.sum(axis=1)
        assert counts.min() >= 1
        # vectorized replica of the estimator across draws
        weights = theta[:, None] * theta[None, :] * (itf.center_excess(profile.joint, profile.p)[1] / profile.joint)
        pair = np.einsum("ri,ij,rj->r", zmat, weights, zmat, optimize=True)
        means = (zmat @ theta) / counts
        lead = n * profile.p * (1 - profile.p) * ((zmat @ theta**2) / counts - means**2)
        sigmas = lead + pair
        # the vectorized formula agrees with the library on sampled draws
        for r in range(0, draws, draws // 25):
            expo = make_exposure(zmat[r].astype(np.int8))
            assert itf.variance_estimate(theta, expo, profile) == pytest.approx(
                sigmas[r], rel=1e-10
            )
        assert sigmas.mean() == pytest.approx(exact_var, rel=0.025)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_conservative_never_below_plain_estimate(self, seed):
        gen = np.random.default_rng(seed)
        nbhd, mapping, rho = random_design(gen, max_units=9)
        profile = itf.exact_profile(nbhd, mapping, rho)
        x = (gen.random(nbhd.n) < rho).astype(np.int8)
        expo = make_exposure(x)
        if expo.count == 0:
            return
        values = gen.gamma(2.0, 5.0, size=nbhd.n)
        assert itf.conservative_variance(values, expo, profile) >= itf.variance_estimate(
            values, expo, profile
        ) - 1e-12

    def test_negative_values_rejected_by_conservative(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(3.0)[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.5)
        with pytest.raises(ValidationError, match="nonnegative"):
            itf.conservative_variance(np.array([1.0, -1.0, 2.0]), make_exposure([1, 1, 0]), profile)

    def test_zero_joint_probability_on_active_pair(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {0, 1}])
        mapping = itf.ExposureMapping.product()
        # one all-control sample: empirical joint matrix is all zeros
        profile = itf.monte_carlo_profile(nbhd, mapping, 0.001, 1, seed=5)
        assert profile.joint.max() == 0.0
        with pytest.raises(ZeroJointProbabilityError):
            itf.variance_estimate(np.ones(2), make_exposure([1, 1]), profile)

    def test_zero_off_pattern_joint_probability_with_two_exposed(self):
        # Singleton sets overlap nowhere, so every pair is off the pattern, where
        # the joint probability p^2 = 1e-340 rounds to 0.
        nbhd = itf.build_knn_neighborhoods(np.arange(3.0)[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 1e-170)
        assert profile.rows.size == 0 and profile.p > 0.0 and profile.p * profile.p == 0.0
        for variance in (itf.variance_estimate, itf.conservative_variance):
            variance(np.ones(3), make_exposure([1, 0, 0]), profile)
            with pytest.raises(ZeroJointProbabilityError):
                variance(np.ones(3), make_exposure([1, 1, 0]), profile)


class TestValidityCondition:
    def test_zero_estimate_always_passes(self, line6_design):
        _, _, _, profile = line6_design
        assert itf.validity_condition(0.0, 5.0, profile, 0.05, 3) is True

    def test_degenerate_variance_raises(self, line6_design):
        _, _, _, profile = line6_design
        with pytest.raises(DegenerateVarianceError):
            itf.validity_condition(1.0, 0.0, profile, 0.05, 3)

    def test_slope_formula(self, line6_design):
        # slope = 1 - z * (estimate/sqrt(var)) * (n p (1-p) / count); with the
        # ratio and scale both 1 the slope is 1 - z < 0.
        _, _, _, profile = line6_design
        n, p = profile.n, profile.p
        count = 4
        scale = n * p * (1 - p) / count
        estimate = 1.0 / scale  # makes the product equal z
        assert itf.validity_condition(estimate, 1.0, profile, 0.05, count) is False
        assert itf.validity_condition(0.9 * estimate / norm_ppf(0.95), 1.0, profile, 0.05, count) is True


class TestUpperConfidenceBound:
    def test_line6_hand_computed_report(self, line6_design):
        # Oracle: direct scripted evaluation of the estimate, conservative
        # variance, condition, and bound from the enumerated profile of this
        # design (frozen values).
        coords, nbhd, mapping, profile = line6_design
        x = np.array([1, 1, 0, 1, 1, 1], dtype=np.int8)
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=x,
            outcome=np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0]),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        assert expo.indicator.tolist() == [1, 1, 0, 1, 1, 1]
        report = itf.upper_confidence_bound(pop, expo, profile, 0.05)
        assert report.p == pytest.approx(0.375, abs=1e-15)
        assert report.estimate == pytest.approx(4.0, abs=1e-12)
        assert report.variance == pytest.approx(36.1875, rel=1e-12)
        assert report.upper_bound == pytest.approx(5.978957844372414, rel=1e-10)
        assert report.condition_ok is True
        assert report.n_effective == 5

    def test_alpha_one_half_returns_point_estimate(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0]),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        report = itf.upper_confidence_bound(pop, expo, profile, 0.5)
        assert report.upper_bound == pytest.approx(report.estimate, abs=1e-12)

    def test_constant_outcomes_on_singleton_design_degenerate(self):
        n = 5
        coords = np.arange(float(n))[:, None]
        nbhd = itf.build_knn_neighborhoods(coords, 1)
        mapping = itf.ExposureMapping.threshold(1)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        pop = itf.Population(
            ids=tuple(range(n)),
            coords=coords,
            treatment=np.array([1, 0, 1, 0, 1]),
            outcome=np.full(n, 3.0),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        with pytest.raises(DegenerateVarianceError):
            itf.upper_confidence_bound(pop, expo, profile, 0.05)

    def test_bound_grows_as_alpha_shrinks(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0]),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        bounds = [
            itf.upper_confidence_bound(pop, expo, profile, a).upper_bound
            for a in (0.5, 0.2, 0.1, 0.05, 0.01)
        ]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_monotone_in_each_outcome_when_condition_holds(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        y = np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0])
        x = np.array([1, 1, 0, 1, 1, 1], dtype=np.int8)
        expo = itf.evaluate_exposure(x, nbhd, mapping)
        base_est, base_var, ok, base = _bound_from_values(y, expo, profile, 0.05)
        assert ok
        for i in range(6):
            bumped = y.copy()
            bumped[i] += 1e-6
            _, _, _, upper = _bound_from_values(bumped, expo, profile, 0.05)
            assert upper >= base - 1e-12

    def test_rejects_alpha_above_one_half(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=np.ones(6),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        with pytest.raises(ValidationError, match="alpha"):
            itf.upper_confidence_bound(pop, expo, profile, 0.7)


class TestIdealBound:
    def test_never_below_observed_bound_at_observed_outcomes(self, rng):
        # With theta = Y the plain variance estimate cannot exceed the clipped
        # one, so the idealized bound is dominated by the computable bound.
        ok = 0
        while ok < 20:
            nbhd, mapping, rho = random_design(rng, max_units=9)
            profile = itf.exact_profile(nbhd, mapping, rho)
            x = (rng.random(nbhd.n) < rho).astype(np.int8)
            expo = make_exposure(x)
            if expo.count == 0:
                continue
            y = rng.gamma(2.0, 5.0, size=nbhd.n)
            try:
                ideal = itf.ideal_upper_bound(y, expo, profile, 0.05)
                _, _, _, observed = _bound_from_values(y, expo, profile, 0.05)
            except DegenerateVarianceError:
                continue
            assert ideal <= observed + 1e-10
            ok += 1

    def test_coverage_near_nominal_on_separated_design(self):
        n = 200
        nbhd = itf.build_knn_neighborhoods(np.arange(float(n))[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.5)
        theta = np.clip(np.random.default_rng(21).normal(10.0, 3.0, size=n), 0.0, None)
        target = theta.mean()
        draws = (np.random.default_rng(5).random((1000, n)) < 0.5).astype(np.int8)
        covered = valid = 0
        for row in draws:
            expo = make_exposure(row)
            if expo.count == 0:
                continue
            valid += 1
            covered += target <= itf.ideal_upper_bound(theta, expo, profile, 0.05)
        assert 0.92 <= covered / valid <= 0.98


class TestVarianceFallback:
    def test_boundary_is_included(self):
        alpha, floor, n = 0.05, 1.0, 100
        z = norm_ppf(1 - alpha)
        variance = n * floor / (z * z * alpha)
        assert itf.variance_fallback_ok(variance, n, alpha, floor) is True
        assert itf.variance_fallback_ok(variance * 0.999, n, alpha, floor) is False

    def test_threshold_arithmetic(self):
        # floor=1, alpha=0.05, n=100: the cutoff for the variance is
        # 100 / (z^2 * 0.05) which is roughly 739.2
        assert itf.variance_fallback_ok(739.3, 100, 0.05, 1.0) is True
        assert itf.variance_fallback_ok(739.0, 100, 0.05, 1.0) is False

    def test_tiny_floor_always_passes(self):
        assert itf.variance_fallback_ok(1e-9, 50, 0.05, 1e-30) is True

    def test_invalid_floor(self):
        with pytest.raises(ValidationError):
            itf.variance_fallback_ok(1.0, 10, 0.05, 0.0)

    def test_report_carries_fallback_flag(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0]),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        report = itf.upper_confidence_bound(pop, expo, profile, 0.05, variance_floor=1e-6)
        assert report.fallback_ok is True
        report = itf.upper_confidence_bound(pop, expo, profile, 0.05, variance_floor=1e6)
        assert report.fallback_ok is False


class TestFullControlLowerBound:
    def _population(self, line6_design, outcome, enrollment):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=outcome,
            rho=0.5,
            enrollment=enrollment,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        return pop, expo, profile

    def test_identity_against_composed_bound(self, line6_design):
        outcome = np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0])
        enrollment = np.array([10.0, 9.0, 8.0, 12.0, 11.0, 7.0])
        pop, expo, profile = self._population(line6_design, outcome, enrollment)
        bound = itf.full_control_lower_bound(pop, expo, profile, 0.05)
        _, _, _, upper = _bound_from_values(enrollment - outcome, expo, profile, 0.05)
        assert bound == pytest.approx(enrollment.mean() - upper, rel=1e-12)

    def test_constant_enrollment_zero_outcomes(self, line6_design):
        enrollment = np.full(6, 9.0)
        pop, expo, profile = self._population(line6_design, np.zeros(6), enrollment)
        bound = itf.full_control_lower_bound(pop, expo, profile, 0.05)
        _, _, _, upper = _bound_from_values(enrollment, expo, profile, 0.05)
        assert bound == pytest.approx(9.0 - upper, rel=1e-12)

    def test_outcome_equal_to_enrollment_is_degenerate(self, line6_design):
        enrollment = np.array([4.0, 7.0, 3.0, 1.0, 6.0, 2.0])
        pop, expo, profile = self._population(line6_design, enrollment.copy(), enrollment)
        with pytest.raises(DegenerateVarianceError):
            itf.full_control_lower_bound(pop, expo, profile, 0.05)

    def test_missing_enrollment(self, line6_design):
        coords, nbhd, mapping, profile = line6_design
        pop = itf.Population(
            ids=tuple(range(6)),
            coords=coords,
            treatment=np.array([1, 1, 0, 1, 1, 1]),
            outcome=np.ones(6),
            rho=0.5,
        )
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        with pytest.raises(ValidationError, match="enrollment"):
            itf.full_control_lower_bound(pop, expo, profile, 0.05)


class TestBonferroniScan:
    def _population(self, rng, n=30):
        coords = np.random.default_rng(3).random((n, 2))
        gen = np.random.default_rng(8)
        return itf.Population(
            ids=tuple(range(n)),
            coords=coords,
            treatment=(gen.random(n) < 0.5).astype(int),
            outcome=gen.gamma(2.0, 5.0, size=n),
            rho=0.5,
        )

    def test_single_config_equals_direct_bound(self, rng):
        pop = self._population(rng)
        [report] = itf.bonferroni_scan(pop, [(2, 3)], 0.05)
        nbhd = itf.build_knn_neighborhoods(pop, 3)
        mapping = itf.ExposureMapping.threshold(2)
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        expo = itf.evaluate_exposure(pop, nbhd, mapping)
        direct = itf.upper_confidence_bound(pop, expo, profile, 0.05)
        assert report.upper_bound == direct.upper_bound
        assert report.alpha == 0.05
        assert (report.d_min, report.d) == (2, 3)

    def test_builds_neighborhoods_once_per_size(self, rng, monkeypatch):
        pop = self._population(rng)
        sizes = []

        def counting_knn(pop_or_coords, d):
            sizes.append(d)
            return itf.build_knn_neighborhoods(pop_or_coords, d)

        monkeypatch.setattr("interfere.exposure.build_knn_neighborhoods", counting_knn)
        reports = itf.bonferroni_scan(pop, [(2, 3), (3, 6), (4, 6), (1, 3)], 0.05)
        assert sorted(sizes) == [3, 6]
        monkeypatch.undo()
        for report in reports:
            [single] = itf.bonferroni_scan(pop, [(report.d_min, report.d)], 0.05 / 4)
            assert report.upper_bound == single.upper_bound

    def test_three_configs_use_adjusted_level(self, rng):
        pop = self._population(rng)
        reports = itf.bonferroni_scan(pop, [(2, 3), (3, 6), (4, 10)], 0.05)
        for report in reports:
            assert report.alpha == pytest.approx(0.05 / 3)
        # and the adjusted quantile is the 98.33% point of the normal
        assert norm_ppf(1 - 0.05 / 3) == pytest.approx(2.1280452346, abs=1e-9)

    def test_corrected_bounds_dominate_uncorrected(self, rng):
        pop = self._population(rng)
        corrected = itf.bonferroni_scan(pop, [(2, 3), (3, 6), (4, 10)], 0.05)
        for report in corrected:
            single = itf.bonferroni_scan(pop, [(report.d_min, report.d)], 0.05)[0]
            assert report.upper_bound >= single.upper_bound - 1e-12

    def test_empty_config_list_rejected(self, rng):
        with pytest.raises(ValidationError):
            itf.bonferroni_scan(self._population(rng), [], 0.05)


class TestVarianceDecomposition:
    def test_lemma_identity_small_sample(self, rng):
        # Smaller version of the acceptance check: the exact variance
        # quadratic form equals leading term plus centered quadratic.
        for _ in range(20):
            nbhd, mapping, rho = random_design(rng, max_units=10)
            profile = itf.enumerated_profile(nbhd, mapping, rho)
            theta = rng.gamma(2.0, 5.0, size=nbhd.n)
            centered_theta = theta - theta.mean()
            quad = float(centered_theta @ profile.joint @ centered_theta)
            decomposed = (
                profile.n * profile.p * (1 - profile.p) * (centered_theta**2).mean()
                + float(theta @ itf.center_excess(profile.joint, profile.p)[1] @ theta)
            )
            assert math.isclose(quad, decomposed, rel_tol=1e-8, abs_tol=1e-8)
