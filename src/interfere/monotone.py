"""Confidence upper bounds on the mean outcome under full treatment.

The estimand is the average counterfactual outcome had every unit been
treated. Under the monotonicity assumption (full treatment never increases
any outcome: 0 <= theta_i <= Y_i, the analyst's responsibility and not
testable from data) the observed outcomes of effectively treated units yield
a computable, conservative one-sided bound:

    upper = estimate + z_{1-alpha} * sqrt(variance) / count

where ``estimate`` averages Y over effectively treated units and ``variance``
is a conservative estimate of Var(count * (estimate - estimand)). The bound
inherits its validity from a normal approximation, and dominating the
unobservable idealized bound additionally requires a computable condition on
the estimate-to-spread ratio (``validity_condition``); reports carry the
condition flag rather than hiding failures, because ignoring it is known to
produce under-coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .design import (
    EffectiveTreatment,
    ExposureMapping,
    Population,
    build_knn_neighborhoods,
    evaluate_exposure,
)
from .errors import (
    DegenerateVarianceError,
    NoEffectiveUnitsError,
    ValidationError,
    ZeroJointProbabilityError,
)
from .exposure import ExposureProfile, exact_profile
from .normal import norm_ppf

# Entries of the (rows, |A|) block of rank-one centered values, or of the
# (n, columns) slice of the dense weight matrix, built per step: 2 MB.
_BLOCK = 1 << 18


@dataclass(frozen=True)
class MonotoneCiReport:
    """Result of one upper-bound analysis, with design diagnostics."""

    estimate: float              # mean outcome over effectively treated units
    variance: float              # conservative variance estimate
    condition_ok: bool           # computable-bound condition holds
    upper_bound: float
    alpha: float                 # level actually used (already adjusted in scans)
    n_effective: int
    p: float
    min_joint: float
    overlap_degree: int
    fallback_ok: Optional[bool] = None
    d_min: Optional[int] = None
    d: Optional[int] = None


def _active_values(values, exposure: EffectiveTreatment) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != exposure.indicator.shape:
        raise ValidationError("values and exposure indicator differ in length")
    if exposure.count < 1:
        raise NoEffectiveUnitsError("no unit is effectively treated (count = 0)")
    return values[exposure.indicator > 0]


def point_estimate(values, exposure: EffectiveTreatment) -> float:
    """Average of ``values`` over effectively treated units."""
    return float(_active_values(values, exposure).mean())


def _pair_term(values, exposure, profile: ExposureProfile, clip: bool) -> float:
    """sum over exposed i, j of v_i v_j c_ij / J_ij, c the centered excess
    (clipped at 0 when ``clip``), evaluated from the sparse profile.

    Every centered entry is the rank-one part g_ij = t - u_i - u_j (u = r/n,
    t = s/n^2) plus the excess, which is 0 off the pattern, where also
    J_ij = p^2. So the rank-one part is summed over all of A x A in row
    blocks of about ``_BLOCK`` entries, and the diagonal and pattern entries
    then swap their rank-one value for their actual one. Clipping applies to
    each entry, as in ``max(centered, 0)``, so the clipped result is the sum
    of the same nonnegative terms, up to rounding.
    """
    mask = exposure.indicator > 0
    idx = np.flatnonzero(mask)
    on = mask[profile.rows] & mask[profile.cols]
    rows, cols, joint = profile.rows[on], profile.cols[on], profile.values[on]
    diag = profile.diag[idx]
    n, p = profile.n, profile.p
    pp = p * p
    off_pattern = idx.size * (idx.size - 1) // 2 > rows.size
    if diag.min() <= 0.0 or joint.min(initial=1.0) <= 0.0 or (off_pattern and not pp > 0.0):
        raise ZeroJointProbabilityError(
            "a jointly exposed pair has zero joint probability; "
            "the exposure profile is inconsistent with the realized assignment"
        )
    h = _clip if clip else (lambda c: c)
    u = profile.row_excess / n
    t = profile.excess_total / (n * n)
    v_all = np.asarray(values, dtype=float)
    v, vi, vj, ua = v_all[idx], v_all[rows], v_all[cols], u[idx]
    rank_diag, w_diag = _entry_weights(t, ua, ua, h, (diag - p * (1.0 - p)) - pp, diag)
    rank_pair, w_pair = _entry_weights(t, u[rows], u[cols], h, joint - pp, joint)
    total = 0.0
    if off_pattern:
        w_diag -= rank_diag / pp
        w_pair -= rank_pair / pp
        step = max(1, _BLOCK // idx.size)
        for lo in range(0, idx.size, step):
            block = _entry_weights(t, ua[lo : lo + step, None], ua, h)
            total += float(v[lo : lo + step] @ block @ v) / pp
    return total + float(v @ (v * w_diag)) + 2.0 * float(vi @ (vj * w_pair))


def _clip(c):
    return np.maximum(c, 0.0)


def _entry_weights(t, u_i, u_j, h, excess=None, joint=None):
    """h(g) for the rank-one part g = t - u_i - u_j of centered entries
    (i, j); with the entries' ``excess`` and ``joint`` probability, also
    their pair-term weights h(g + excess) / joint.

    Off the pattern an entry's weight is h(g) / p^2. ``_pair_term`` and
    ``_batch_bounds`` both form their entries here, so they agree entry by
    entry.
    """
    g = (t - u_i) - u_j
    if excess is None:
        return h(g)
    return h(g), h(g + excess) / joint


def _leading_term(values, exposure, profile: ExposureProfile) -> float:
    active = _active_values(values, exposure)
    spread = float(((active - active.mean()) ** 2).mean())
    return profile.n * profile.p * (1.0 - profile.p) * spread


def variance_estimate(values, exposure: EffectiveTreatment, profile: ExposureProfile) -> float:
    """Plug-in estimate of Var(T), T = sum_i (mean(values) - values_i) Z_i.

    Consistent under bounded overlap, but not guaranteed nonnegative in
    finite samples; the conservative variant below is what the observable
    bound uses.
    """
    if profile.n != exposure.indicator.shape[0]:
        raise ValidationError("profile and exposure sizes differ")
    return _leading_term(values, exposure, profile) + _pair_term(values, exposure, profile, clip=False)


def conservative_variance(values, exposure: EffectiveTreatment, profile: ExposureProfile) -> float:
    """Variance estimate with negative centered-excess entries clipped to zero.

    For nonnegative values this never falls below ``variance_estimate`` and
    is safe to maximize over the monotonicity constraint set.
    """
    if profile.n != exposure.indicator.shape[0]:
        raise ValidationError("profile and exposure sizes differ")
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValidationError("conservative variance requires nonnegative values")
    return _leading_term(values, exposure, profile) + _pair_term(values, exposure, profile, clip=True)


def validity_condition(
    estimate: float,
    variance: float,
    profile: ExposureProfile,
    alpha: float,
    count: int,
) -> bool:
    """Whether plugging the observed outcomes into the bound is maximal.

    The bound as a function of the counterfactual vector has gradient
    componentwise at least (Z_i/count) * (1 - z * (estimate/sqrt(variance)) *
    (n p (1-p) / count)) over the constraint set; when that factor is
    nonnegative the observed outcomes maximize the bound, so the computable
    bound dominates the idealized one.
    """
    if variance < 0:
        raise DegenerateVarianceError(f"negative variance estimate {variance}")
    if variance == 0:
        raise DegenerateVarianceError("zero variance estimate; condition is undefined")
    z = norm_ppf(1.0 - alpha)
    scale = profile.n * profile.p * (1.0 - profile.p) / count
    return 1.0 - z * (estimate / math.sqrt(variance)) * scale >= 0.0


def variance_fallback_ok(variance: float, n: int, alpha: float, variance_floor: float) -> bool:
    """Chebyshev fallback: with variance/n >= floor / (z^2 alpha), the bound
    stays level-(1-alpha) valid even if the true randomization variance sits
    below the floor the normal approximation assumes."""
    if not variance_floor > 0:
        raise ValidationError("variance_floor must be positive")
    z = norm_ppf(1.0 - alpha)
    return variance / n >= variance_floor / (z * z * alpha)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 0.5:
        raise ValidationError(f"alpha must lie in (0, 0.5] for a one-sided upper bound, got {alpha}")


def _bound_from_values(values, exposure, profile, alpha, strict=True):
    """(estimate, variance, condition_ok, upper) of the conservative bound.

    A zero variance is degenerate: with ``strict`` it raises, otherwise the
    bound is the estimate itself and the condition counts as failed.
    """
    estimate = point_estimate(values, exposure)
    variance = conservative_variance(values, exposure, profile)
    if variance == 0.0:
        if not strict:
            return estimate, variance, False, estimate
        raise DegenerateVarianceError(
            "conservative variance is zero (all effectively treated outcomes "
            "identical and no positive centered-excess mass); no bound can be formed"
        )
    condition_ok = validity_condition(estimate, variance, profile, alpha, exposure.count)
    upper = estimate + norm_ppf(1.0 - alpha) * math.sqrt(variance) / exposure.count
    return estimate, variance, condition_ok, upper


def _batch_bounds(values, indicator, profile: ExposureProfile, alpha: float) -> tuple:
    """The conservative bound of many replicates in array operations: row r
    of the nonnegative ``values`` and of the 0/1 ``indicator`` is one.

    Returns arrays (count, estimate, variance, condition, upper, clear,
    upper_error). The pair term is rowsum((V W) * V), V = values * indicator,
    where W holds the clipped weights h(centered) / J of ``_entry_weights``,
    built in column slices of ``_BLOCK`` entries.

    These floats differ from ``_bound_from_values`` in the last bits, so each
    row also gets a bound on that difference. A sum of k terms, added in any
    order, is off by at most k * eps/2 times the sum of the terms'
    magnitudes. Both variances sum nonnegative terms: the leading term's
    (a - mean)^2, at most (a + mean)^2, and the weighted pair terms. The
    scalar pair term also adds the clipped rank-one value h(g) / p^2 of every
    entry of A x A and takes it back on the diagonal and the pattern, so
    twice that share counts too; it is at most the largest such value times
    (sum of v)^2. ``rel`` counts the terms of the longest sum either
    computation forms, 6n + pairs + 13 roundings at most, five times over.
    ``clear`` marks rows whose variance exceeds twice its error bound and
    whose condition margin lies farther from 0 than its propagated error;
    ``upper_error`` bounds |upper - the upper of _bound_from_values|.
    """
    n, p = profile.n, profile.p
    pp = p * p
    u = profile.row_excess / n
    t = profile.excess_total / (n * n)
    rows, cols = profile.rows, profile.cols
    rank_diag, w_diag = _entry_weights(t, u, u, _clip, (profile.diag - p * (1.0 - p)) - pp, profile.diag)
    rank_pair, w_pair = _entry_weights(t, u[rows], u[cols], _clip, profile.values - pp, profile.values)
    count = indicator.sum(axis=1)
    per = np.maximum(count, 1)
    v = values * indicator
    total = v.sum(axis=1)
    estimate = total / per
    npq = n * p * (1.0 - p)
    leading = npq * ((((values - estimate[:, None]) * indicator) ** 2).sum(axis=1) / per)
    pair = np.zeros(values.shape[0])
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        w = _entry_weights(t, u[:, None], u[lo:hi], _clip)
        w /= pp
        w[np.arange(lo, hi), np.arange(hi - lo)] = w_diag[lo:hi]
        upper_half = (lo <= cols) & (cols < hi)
        w[rows[upper_half], cols[upper_half] - lo] = w_pair[upper_half]
        lower_half = (lo <= rows) & (rows < hi)
        w[cols[lower_half], rows[lower_half] - lo] = w_pair[lower_half]
        pair += ((v @ w) * v[:, lo:hi]).sum(axis=1)
    variance = leading + pair

    rel = 16 * (n + rows.size + 16) * np.finfo(float).eps
    spread_mag = npq * ((((values + estimate[:, None]) ** 2) * indicator).sum(axis=1) / per)
    taken_back = max(rank_diag.max(), rank_pair.max(initial=0.0)) / pp * total**2
    var_error = rel * (spread_mag + pair + 2.0 * taken_back)
    clear = variance > 2.0 * var_error  # the relative error of the variance is below 1/2
    rel_var = var_error / np.where(clear, variance, 1.0)
    z = norm_ppf(1.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with no exposed unit or zero variance
        ratio = z * (estimate / np.sqrt(variance)) * (npq / per)
        margin = 1.0 - ratio
        clear &= np.abs(margin) > (ratio + 1.0) * rel + 2.0 * ratio * rel_var
    width = z * np.sqrt(variance) / per
    upper = estimate + width
    return count, estimate, variance, margin >= 0.0, upper, clear, rel * upper + rel_var * width


def upper_confidence_bound(
    pop: Population,
    exposure: EffectiveTreatment,
    profile: ExposureProfile,
    alpha: float,
    variance_floor: Optional[float] = None,
) -> MonotoneCiReport:
    """One-sided (1 - alpha) upper confidence bound on the full-treatment mean.

    The numeric bound is always computed; when the validity condition fails
    the report flags it as not covered by the dominance guarantee rather than
    discarding it, since the number remains useful for diagnostics.
    """
    _check_alpha(alpha)
    estimate, variance, condition_ok, upper = _bound_from_values(
        pop.outcome, exposure, profile, alpha
    )
    fallback = None
    if variance_floor is not None:
        fallback = variance_fallback_ok(variance, profile.n, alpha, variance_floor)
    return MonotoneCiReport(
        estimate=estimate,
        variance=variance,
        condition_ok=condition_ok,
        upper_bound=upper,
        alpha=alpha,
        n_effective=exposure.count,
        p=profile.p,
        min_joint=profile.min_joint,
        overlap_degree=profile.overlap_degree,
        fallback_ok=fallback,
    )


def ideal_upper_bound(theta, exposure: EffectiveTreatment, profile: ExposureProfile, alpha: float) -> float:
    """Upper bound built from the true counterfactual vector.

    Only evaluable in simulations or tests where the counterfactual is known;
    it is the quantity the observable bound dominates.
    """
    _check_alpha(alpha)
    variance = variance_estimate(theta, exposure, profile)
    if variance <= 0.0:
        raise DegenerateVarianceError(f"variance estimate {variance} is not positive")
    return point_estimate(theta, exposure) + norm_ppf(1.0 - alpha) * math.sqrt(variance) / exposure.count


def full_control_lower_bound(
    pop: Population,
    exposure: EffectiveTreatment,
    profile: ExposureProfile,
    alpha: float,
) -> float:
    """Lower confidence bound on the mean outcome under full control.

    Assumes withholding treatment everywhere gives the worst outcomes, with
    enrollment the known per-unit ceiling; the transformed outcomes
    enrollment - Y then satisfy the monotone setup, and the bound is
    mean(enrollment) minus the upper bound computed on them.
    """
    _check_alpha(alpha)
    if pop.enrollment is None:
        raise ValidationError("full-control bound needs enrollment for every unit")
    transformed = pop.enrollment - pop.outcome
    _, _, _, upper = _bound_from_values(transformed, exposure, profile, alpha)
    return float(pop.enrollment.mean()) - upper


def bonferroni_scan(
    pop: Population,
    configs: Sequence[tuple],
    alpha: float,
    variance_floor: Optional[float] = None,
) -> list:
    """Evaluate several threshold (d_min, d) designs, each at level alpha / #configs.

    Every report records its own effective level; exceptions from individual
    configurations propagate unchanged.
    """
    configs = list(configs)
    if not configs:
        raise ValidationError("at least one (d_min, d) configuration is required")
    _check_alpha(alpha)
    adjusted = alpha / len(configs)
    reports = []
    neighborhoods = {}
    for d_min, d in configs:
        if d not in neighborhoods:
            neighborhoods[d] = build_knn_neighborhoods(pop, d)
        nbhd = neighborhoods[d]
        mapping = ExposureMapping.threshold(d_min)
        profile = exact_profile(nbhd, mapping, pop.rho)
        exposure = evaluate_exposure(pop, nbhd, mapping)
        report = upper_confidence_bound(pop, exposure, profile, adjusted, variance_floor)
        reports.append(replace(report, d_min=int(d_min), d=int(d)))
    return reports
