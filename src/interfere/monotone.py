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

Every bound here and in the simulation harness comes from one routine,
``_score``, over rows of outcomes and exposure indicators; a single analysis
is its one-row case, checked and shaped by ``_one_row``. Its variance
(``_variances``) takes O(n log n + pairs) per row and builds no (n, n) or
(|A|, |A|) array. Beyond the profile, its memory is one buffer of products
for a chunk of rows, n + pairs wide, plus one block of pairs whose nonzero
weights ``_weights`` builds as they are read; a call of several row chunks
keeps those weights, with their int64 indices, for every chunk.
The Bonferroni scan takes its designs from ``exposure._threshold_designs``,
as the simulation harness does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .design import EffectiveTreatment, Population, evaluate_exposure
from .errors import (
    DegenerateVarianceError,
    NoEffectiveUnitsError,
    ValidationError,
    ZeroJointProbabilityError,
    check_count,
    check_instance,
    check_level,
    check_positive,
    read_array,
    read_number,
)
from .exposure import _PAIR_BLOCK, ExposureProfile, _threshold_designs
from .normal import norm_ppf

# Entries that ``_variances`` holds per step of rows, n outcomes and a buffer
# of n + pairs products per row: 512 KB, which stays in cache (steps of 2 MB
# took three times as long). A step holds whole rows, and a row's floats do
# not depend on the step.
_BLOCK = 1 << 16
_ZERO_JOINT = (
    "a jointly exposed pair has zero joint probability; "
    "the exposure profile is inconsistent with the realized assignment"
)


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


def _one_row(values, exposure: EffectiveTreatment, profile=..., nonnegative=False) -> tuple:
    """``values`` and the exposure indicator as the one row of a call to
    ``_variances`` or ``_score``, after the checks of a single analysis:
    ``exposure`` is an exposure, ``profile`` is a profile when passed (only
    ``point_estimate`` passes none, so a ``None`` profile is an error), the
    values are finite, the sizes agree, some unit is exposed, and with
    ``nonnegative`` no value is negative."""
    values = read_array(values, "values", float)
    if not np.isfinite(values).all():
        raise ValidationError("values must be finite")
    check_instance(exposure, EffectiveTreatment, "exposure")
    if profile is not ... and check_instance(profile, ExposureProfile, "profile").n != exposure.indicator.shape[0]:
        raise ValidationError("profile and exposure sizes differ")
    if values.shape != exposure.indicator.shape:
        raise ValidationError("values and exposure indicator differ in length")
    if exposure.count < 1:
        raise NoEffectiveUnitsError("no unit is effectively treated (count = 0)")
    if nonnegative and np.any(values < 0):
        raise ValidationError("conservative variance requires nonnegative values")
    return values[None, :], exposure.indicator[None, :]


def point_estimate(values, exposure: EffectiveTreatment) -> float:
    """Average of ``values`` over effectively treated units, by the formula
    of every bound's estimate (``_variances``), so that it equals theirs bit
    for bit; one that overflows is a ValidationError, not an infinity."""
    values, indicator = _one_row(values, exposure)
    with np.errstate(over="ignore"):
        estimate = float((values * indicator).sum(axis=1)[0] / exposure.count)
    if not math.isfinite(estimate):
        raise ValidationError("the point estimate overflows: outcomes this large exceed double precision")
    return estimate


def _weights(profile: ExposureProfile, exposed, u, t, floor, off_pattern):
    """The nonzero weights of ``_variances`` and their entries, yielded in
    blocks (first, second, w): int64 units first[e] <= second[e], and w of
    shape (1, m), or (2, m) with the rank-one row when ``off_pattern``.

    Entries come in blocks of at most ``_PAIR_BLOCK``, sliced from the
    diagonal and then from the pattern pairs of the profile, each with its
    excess shift and entry count (p (1-p) and 1 on the diagonal, 0 and 2 for
    a pair and its mirror).
    Every block computes its weights by one formula, count h(g + J - shift -
    p^2) / J, and keeps the nonzero ones, so the kept entries and their order
    do not depend on the block size. Each block is built when it is asked
    for, and its temporaries are dropped before it is yielded: a consumer
    that reads each block once holds one block at a time. A pair exposed
    together in a row of ``exposed`` with joint probability 0 raises when
    its block is built.
    """
    p = profile.p
    pp = p * p
    diagonal = np.arange(profile.n)
    parts = [
        (diagonal, diagonal, profile.diag, p * (1.0 - p), 1.0),
        (profile.rows, profile.cols, profile.values, 0.0, 2.0),
    ]
    for units, others, joints, shift, entries in parts:
        for lo in range(0, joints.size, _PAIR_BLOCK):
            at = slice(lo, lo + _PAIR_BLOCK)
            first, second, joint = units[at], others[at], joints[at]
            zero = joint <= 0.0
            if (exposed[:, first[zero]] & exposed[:, second[zero]]).any():
                raise ZeroJointProbabilityError(_ZERO_JOINT)
            g = t - u[first]
            g -= u[second]
            w = joint - shift
            w -= pp  # the excess, in place: no second block-sized temporary
            with np.errstate(divide="ignore", invalid="ignore"):  # zero joints, dropped below
                w += g
                np.maximum(w, floor, out=w)
                w /= joint
                w = np.stack((w, np.maximum(g, floor) / pp)) if off_pattern else w[None]
            del g
            keep = np.flatnonzero(~zero & w.any(axis=0))
            del zero
            w = np.take(w, keep, axis=1)
            w *= entries
            first, second = np.take(first, keep), np.take(second, keep)
            del keep
            yield first, second, w


def _variances(values, indicator, profile: ExposureProfile, clip: bool = True) -> tuple:
    """(count, estimate, variance) arrays, one entry per row of the (R, n)
    ``values`` and 0/1 ``indicator``; a row without exposed units gets 0s.

    The variance is the leading term n p (1-p) times the spread of the
    exposed values, plus the pair term: the sum over exposed i, j of
    v_i v_j h(c_ij) / J_ij, where c is the centered excess and h clips it at
    0 (``clip``) or keeps it. Every centered entry is the rank-one part
    g_ij = (t - u_i) - u_j (u = r/n, t = s/n^2) plus the excess, which is 0
    off the pattern, where also J_ij = p^2. So the diagonal and pattern
    entries add their own weights h(g + excess) / J, and the entries off the
    pattern add the rank-one sum over all of A x A, in closed form, less its
    diagonal and pattern entries, h(g) / p^2 each.

    Unclipped, the rank-one sum is t S^2 - 2 S (v.u), S the sum of v.
    Clipped, only the positive g_ij count: with u sorted, those of row i are
    the first k_i, u_j < t - u_i, and they add v_i ((t - u_i) V(k_i) -
    W(k_i)), V and W the prefix sums of v and v u. That difference can
    cancel, so each such term gets an upward allowance for its rounding: at
    most (k_i + 2) eps/2 times (|t - u_i| + max_{j<k_i} |u_j|) V(k_i),
    counted twice over. The clipped off-pattern sum has nonnegative terms,
    so it is clipped at 0 too. If no g_ij is positive, it is 0.

    The weights of the diagonal and pattern entries are built in blocks of
    ``_PAIR_BLOCK`` pairs (``_weights``), with only the nonzero ones kept.
    The rows come in chunks of ``step`` rows, whose products go into a
    buffer of n + pairs columns per row, the most entries that can keep a
    weight (and a second buffer with off-pattern pairs). A call of one
    chunk reads each block as it is built; a call of several builds the
    blocks first and keeps them, never joined, for every chunk. So a
    one-row call holds, beyond the profile, its buffer row and one block of
    pairs. For each chunk, every block takes v_i into its columns of the
    buffer, multiplies them by v_j, writes their products with w[1] (the
    diagonal and pattern entries of the rank-one sum) into the second
    buffer with off-pattern pairs, and multiplies them by w[0] last; the
    filled columns of each buffer are then summed along its rows. Every sum
    runs along a row, over the kept entries in one order that depends on
    the profile alone, so a row's results do not depend on the other rows
    of the call, nor on the block sizes.
    A variance that overflows (outcomes near the square root of the largest
    float) is a ValidationError, not a NaN or an infinity.
    """
    n, p = profile.n, profile.p
    pp = p * p
    exposed = indicator > 0
    off_pattern = profile.off_pattern
    if off_pattern and not pp > 0.0:
        count = exposed.sum(axis=1)
        on_pattern = (exposed[:, profile.rows] & exposed[:, profile.cols]).sum(axis=1)
        if (count * (count - 1) // 2 > on_pattern).any():
            raise ZeroJointProbabilityError(_ZERO_JOINT)
        off_pattern = False  # no row has an exposed pair off the pattern

    floor = 0.0 if clip else -np.inf  # h(c) = max(c, floor)
    u = profile.row_excess / n
    t = profile.excess_total / (n * n)
    if off_pattern and clip:
        order = np.argsort(u, kind="stable")
        head = t - u
        k = np.searchsorted(u[order], head, side="left")
        lead = np.flatnonzero(k > 0)  # units with a positive rank-one entry
        off_pattern = lead.size > 0
        order = order[: k.max()]
        u_sorted = u[order]
        head, last = head[lead], k[lead] - 1  # the prefix sums include their last entry
        far = np.maximum(np.abs(u_sorted[:1]), np.abs(u_sorted[last]))
        slack = (last + 3) * np.finfo(float).eps * (np.abs(head) + far)
    count = indicator.sum(axis=1)
    per = np.maximum(count, 1)
    estimate = np.empty(count.shape)
    variance = np.empty(count.shape)
    npq = n * p * (1.0 - p)
    width = n + profile.rows.size  # the most entries that can keep a weight
    step = max(1, _BLOCK // (n + width))
    both = np.empty((min(step, count.size), width))
    if off_pattern:  # the rank-one sum's own diagonal and pattern entries
        mirror = np.empty_like(both)
    try:  # an overflow, and any variance that is not finite, is an error
        with np.errstate(over="raise", invalid="raise"):
            blocks = _weights(profile, exposed, u, t, floor, off_pattern)
            if step < count.size:  # every row chunk reads the blocks
                blocks = list(blocks)
            for lo in range(0, count.size, step):
                at = slice(lo, lo + step)
                y, z = values[at], indicator[at]
                v = y * z
                chunk = v.shape[0]
                estimate[at] = v.sum(axis=1) / per[at]
                leading = npq * ((((y - estimate[at, None]) * z) ** 2).sum(axis=1) / per[at])
                end = 0
                for first, second, w in blocks:
                    at_block = slice(end, end + first.size)
                    prod = both[:chunk, at_block]
                    np.take(v, first, axis=1, out=prod, mode="wrap")  # in range; "raise" would buffer out
                    prod *= np.take(v, second, axis=1)
                    if off_pattern:
                        np.multiply(prod, w[1], out=mirror[:chunk, at_block])
                    prod *= w[0]
                    end += first.size
                    del first, second, w  # so a block read once goes before the next is built
                pair = both[:chunk, :end].sum(axis=1)
                if off_pattern:
                    if clip:
                        ahead = np.take(v, order, axis=1)
                        prefix = np.take(np.cumsum(ahead, axis=1), last, axis=1)
                        moment = np.take(np.cumsum(ahead * u_sorted, axis=1), last, axis=1)
                        term = np.maximum(head * prefix - moment, 0.0) + slack * prefix
                        rank = (np.take(v, lead, axis=1) * term).sum(axis=1)
                    else:
                        total = v.sum(axis=1)
                        rank = t * total * total - 2.0 * total * (v * u).sum(axis=1)
                    off = rank / pp - mirror[:chunk, :end].sum(axis=1)
                    pair += np.maximum(off, 0.0) if clip else off
                variance[at] = leading + pair
        finite = bool(np.isfinite(variance).all())
    except FloatingPointError:
        finite = False
    if not finite:
        with np.errstate(over="ignore"):
            for _ in blocks:  # a zero joint probability of a block not yet built is the error to report
                pass
        raise ValidationError("the variance estimate overflows: outcomes this large exceed double precision")
    return count, estimate, variance


def variance_estimate(values, exposure: EffectiveTreatment, profile: ExposureProfile) -> float:
    """Plug-in estimate of Var(T), T = sum_i (mean(values) - values_i) Z_i.

    Consistent under bounded overlap, but not guaranteed nonnegative in
    finite samples; the conservative variant below is what the observable
    bound uses.
    """
    return float(_variances(*_one_row(values, exposure, profile, False), profile, clip=False)[2][0])


def conservative_variance(values, exposure: EffectiveTreatment, profile: ExposureProfile) -> float:
    """Variance estimate with negative centered-excess entries clipped to zero.

    For nonnegative values this never falls below ``variance_estimate`` and
    is safe to maximize over the monotonicity constraint set.
    """
    return float(_variances(*_one_row(values, exposure, profile, True), profile)[2][0])


def _margin(estimate, variance, profile: ExposureProfile, count, z):
    """The factor 1 - z (estimate / sqrt(variance)) (n p (1-p) / count) of
    the validity condition, elementwise."""
    return 1.0 - z * (estimate / np.sqrt(variance)) * (profile.n * profile.p * (1.0 - profile.p) / count)


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
    estimate = read_number(estimate, "estimate")
    variance = read_number(variance, "variance")
    check_instance(profile, ExposureProfile, "profile")
    alpha = check_level(alpha, "alpha")
    count = check_count(count, "count")
    if variance < 0:
        raise DegenerateVarianceError(f"negative variance estimate {variance}")
    if variance == 0:
        raise DegenerateVarianceError("zero variance estimate; condition is undefined")
    return bool(_margin(estimate, variance, profile, count, norm_ppf(1.0 - alpha)) >= 0.0)


def variance_fallback_ok(variance: float, n: int, alpha: float, variance_floor: float) -> bool:
    """Chebyshev fallback: with variance/n >= floor / (z^2 alpha), the bound
    stays level-(1-alpha) valid even if the true randomization variance sits
    below the floor the normal approximation assumes."""
    variance = read_number(variance, "variance")
    n = check_count(n, "n")
    alpha = check_level(alpha, "alpha")
    variance_floor = check_positive(variance_floor, "variance_floor")
    z = norm_ppf(1.0 - alpha)
    return variance / n >= variance_floor / (z * z * alpha)


def _score(values, indicator, profile: ExposureProfile, alpha: float) -> tuple:
    """The conservative bound of each row of the nonnegative (R, n)
    ``values`` and 0/1 ``indicator``: arrays (count, estimate, variance,
    condition, upper).

    The variance sums nonnegative terms, so it is never negative, and a
    variance that is not finite raises (``_variances``). A row with zero
    variance is degenerate: its upper bound is its estimate and its
    condition fails.
    """
    count, estimate, variance = _variances(values, indicator, profile)
    per = np.maximum(count, 1)
    z = norm_ppf(1.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero variance
        condition = (variance > 0.0) & (_margin(estimate, variance, profile, per, z) >= 0.0)
    upper = estimate + z * np.sqrt(variance) / per
    return count, estimate, variance, condition, upper


def _bound_from_values(values, exposure, profile, alpha):
    """(estimate, variance, condition_ok, upper) of the conservative bound:
    row 0 of a one-row ``_score``. A zero variance is degenerate and raises.
    """
    values, indicator = _one_row(values, exposure, profile, True)
    _, estimate, variance, condition, upper = (a[0] for a in _score(values, indicator, profile, alpha))
    if variance == 0.0:
        raise DegenerateVarianceError(
            "conservative variance is zero (all effectively treated outcomes "
            "identical and no positive centered-excess mass); no bound can be formed"
        )
    return float(estimate), float(variance), bool(condition), float(upper)


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
    alpha = check_level(alpha, "alpha")
    estimate, variance, condition_ok, upper = _bound_from_values(
        check_instance(pop, Population, "population").outcome, exposure, profile, alpha
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
    alpha = check_level(alpha, "alpha")
    _, (estimate,), (variance,) = _variances(*_one_row(theta, exposure, profile), profile, clip=False)
    if variance <= 0.0:
        raise DegenerateVarianceError(f"variance estimate {variance} is not positive")
    return float(estimate) + norm_ppf(1.0 - alpha) * math.sqrt(variance) / exposure.count


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
    alpha = check_level(alpha, "alpha")
    if check_instance(pop, Population, "population").enrollment is None:
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
    alpha = check_level(alpha, "alpha")
    check_instance(pop, Population, "population")
    designs = _threshold_designs(pop, configs, pop.rho)
    adjusted = alpha / len(designs)
    reports = []
    for nbhd, mapping, profile in designs:
        exposure = evaluate_exposure(pop, nbhd, mapping)
        report = upper_confidence_bound(pop, exposure, profile, adjusted, variance_floor)
        reports.append(replace(report, d_min=mapping.d_min, d=nbhd.k))
    return reports
