"""Attributable-contrast intervals that need no interference assumptions.

The estimand is the difference between the observed treated-vs-control
contrast and the contrast the same grouping would have shown under full
control. It concentrates because the full-control outcomes are fixed and the
grouping is randomized, so the intervals below are valid under completely
arbitrary interference; the price is that the estimand speaks only about the
contrast, not about either arm separately.

Both interval families assume binary outcomes (their variance bound of 1/4 is
specific to that case). The treatment-split interval assumes assignment by
sampling without replacement; the exposure-split interval assumes Bernoulli
assignment plus the same design conditions as the monotone machinery, which
cannot be validated from observed data and are therefore recorded in the
report text.

``_split_deltas`` scores (R, n) rows of 0/1 groups: a unit-level split is its
one-row case, and ``concentration_check`` scores all its drawn groups in one
call, so it measures the reported statistic. ``_report`` builds every interval.
The exposure split's eigenvalue bound takes a profile and runs on its pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import EffectiveTreatment, evaluate_exposure_many
from .errors import ValidationError, check_count, check_integer, check_probability, check_seed, read_array
from .exposure import ExposureProfile, _check_profile, exact_profile
from .normal import norm_ppf

_TREATMENT_ASSUMPTIONS = (
    "treatments assigned by sampling without replacement; binary outcomes; "
    "interference otherwise arbitrary"
)
_EXPOSURE_ASSUMPTIONS = (
    "independent Bernoulli treatment assignment; binary outcomes; shared "
    "exposure probability, bounded neighborhood overlap, and non-degenerate "
    "randomization variance of the full-control contrast statistic (the last "
    "three are not checkable from observed data)"
)
# The top centered eigenvalue is returned as an upper bound; see
# largest_centered_eigenvalue for how each constant enters it.
_DELTA = 1e-12     # failure probability of the random-start certificate
_SLACK = 0.005     # relative slack the Lanczos step count is chosen for
_ROUNDING = 1e-12  # rounding allowance, relative to the row-sum bound


@dataclass(frozen=True)
class ContrastReport:
    """Point contrast with one-sided and symmetric two-sided intervals."""

    kind: str                    # "treatment" or "exposure" split
    delta: float
    one_sided_lower: float
    two_sided: tuple             # (lower, upper), centered at delta
    alpha: float
    n_exposed: int
    n_unexposed: int
    lambda_1: Optional[float] = None      # exposure split: upper bound on the eigenvalue
    lambda_1_certificate: Optional[str] = None
    lambda_1_ritz: Optional[float] = None
    lambda_1_steps: Optional[int] = None
    assumptions: str = ""


@dataclass(frozen=True)
class EigenvalueBound:
    """Upper bound on the top eigenvalue of a doubly centered matrix.

    ``value`` is the bound, certified as ``certificate`` says: ``exact``,
    ``random_start`` or ``row_sum`` (see :func:`largest_centered_eigenvalue`).
    ``ritz`` is the top Ritz value, never above the eigenvalue but for
    rounding, and ``steps`` the number of Lanczos steps behind it.
    """

    value: float
    ritz: float
    steps: int
    certificate: str


@dataclass(frozen=True)
class ConcentrationSummary:
    """Empirical exceedance of a contrast bound under a known full-control vector."""

    kind: str
    num_draws: int
    num_valid: int
    num_degenerate: int
    bound: float
    exceed_count: int
    exceed_fraction: float
    alpha: float


def _check_binary(values, name: str) -> np.ndarray:
    arr = read_array(values, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name} must be binary (0/1); rescaling is not supported")
    return arr.astype(float)


def _treatment_scale(n1: int, n0: int) -> float:
    """Half-width per unit of z of the treatment split: sqrt(n / (n0 n1)) / 2."""
    return 0.5 * math.sqrt((n1 + n0) / (n0 * n1))


def _exposure_scale(lam: float, n: int, p: float) -> float:
    """Half-width per unit of z of the exposure split: sqrt(lambda_1 / n) / (2 p (1 - p))."""
    return math.sqrt(lam / n) / (2.0 * p * (1.0 - p))


def _split_deltas(y: np.ndarray, groups: np.ndarray) -> tuple:
    """Sizes and deltas of the groups of (R, n) 0/1 rows over binary ``y``; the
    sums are exact, so a row's delta does not depend on the other rows. An
    empty or full group gets nan or inf."""
    counts = groups.sum(axis=1)
    return counts, _delta(groups @ y, counts, y.sum(), y.size)


def _delta(positives, count, total: int, n: int):
    """Mean outcome of a group of ``count`` units less that of the other units."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return positives / count - (total - positives) / (n - count)


def _report(kind: str, delta, n_exposed: int, n: int, scale: float, alpha: float,
            lam: Optional[EigenvalueBound] = None) -> ContrastReport:
    """Intervals delta - z_(1-alpha) ``scale`` and delta -+ z_(1-alpha/2) ``scale``;
    only an exposure split has an eigenvalue bound ``lam``."""
    half = norm_ppf(1.0 - alpha / 2.0) * scale
    eigen = {} if lam is None else dict(
        lambda_1=lam.value, lambda_1_certificate=lam.certificate,
        lambda_1_ritz=lam.ritz, lambda_1_steps=lam.steps,
    )
    return ContrastReport(
        kind=kind,
        delta=float(delta),
        one_sided_lower=float(delta - norm_ppf(1.0 - alpha) * scale),
        two_sided=(float(delta - half), float(delta + half)),
        alpha=alpha,
        n_exposed=int(n_exposed),
        n_unexposed=int(n - n_exposed),
        assumptions=_TREATMENT_ASSUMPTIONS if lam is None else _EXPOSURE_ASSUMPTIONS,
        **eigen,
    )


def attributable_contrast_from_counts(
    n_treated: int,
    pos_treated: int,
    n_control: int,
    pos_control: int,
    alpha: float,
) -> ContrastReport:
    """Treatment-split interval from aggregate two-arm counts.

    The interval half-widths depend on the data only through the group sizes,
    so aggregate counts are fully equivalent to unit-level rows.
    """
    check_probability(alpha, "alpha")
    n1, pos1, n0, pos0 = (
        check_integer(value, name)
        for value, name in (
            (n_treated, "n_treated"), (pos_treated, "pos_treated"),
            (n_control, "n_control"), (pos_control, "pos_control"),
        )
    )
    for total, pos, name in ((n1, pos1, "treated"), (n0, pos0, "control")):
        if total < 1:
            raise ValidationError(f"{name} arm is empty; both arms are required")
        if not 0 <= pos <= total:
            raise ValidationError(f"{name} positives must lie in [0, {total}], got {pos}")
    delta = _delta(pos1, n1, pos1 + pos0, n1 + n0)
    return _report("treatment", delta, n1, n1 + n0, _treatment_scale(n1, n0), alpha)


def attributable_contrast(x, y, alpha: float) -> ContrastReport:
    """Treatment-split attributable contrast from unit-level binary data."""
    x = _check_binary(x, "treatment")
    y = _check_binary(y, "outcome")
    if x.shape != y.shape:
        raise ValidationError("treatment and outcome vectors differ in length")
    (n1,), (delta,) = _split_deltas(y, x[None])
    n1, n = int(n1), x.size
    if n1 < 1 or n1 > n - 1:
        raise ValidationError("both a treated and a control group are required")
    check_probability(alpha, "alpha")
    return _report("treatment", delta, n1, n, _treatment_scale(n1, n - n1), alpha)


def _log_ratio(n: int) -> float:
    return math.log(1.648 * math.sqrt(n) / _DELTA)


def _lanczos_steps(n: int) -> int:
    """Krylov dimension k at which the random-start slack reaches ``_SLACK``."""
    return math.ceil((_log_ratio(n) / math.sqrt(_SLACK) + 1.0) / 2.0)


def _random_start_slack(n: int, k: int) -> float:
    """The eps solving 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)) = ``_DELTA``."""
    return (_log_ratio(n) / (2 * k - 1)) ** 2


def _centered(product):
    """v -> P product(P v), P = I - 11'/n."""

    def matvec(v):
        w = product(v - v.mean())
        return w - w.mean()

    return matvec


def _centered_operator(profile: ExposureProfile) -> tuple:
    """``(matvec, n, row_sum)`` for P M P with P = I - 11'/n.

    M is the joint matrix J less p^2 11', so P M P = P J P, and ``row_sum``
    is the largest absolute row sum of M. M is zero off the profile's
    pattern: the product costs O(n + pairs) and J is never built. A profile
    whose pattern is every pair (Monte Carlo, enumeration) already holds
    O(n^2) values and takes the dense product.
    """
    n, shift = profile.n, profile.p * profile.p
    if profile.off_pattern:
        diag, pair = profile.diag - shift, profile.values - shift
        rows, cols = profile.rows, profile.cols
        row_sum = np.abs(diag) + np.bincount(rows, np.abs(pair), n) + np.bincount(cols, np.abs(pair), n)

        def product(u):
            return diag * u + np.bincount(rows, pair * u[cols], n) + np.bincount(cols, pair * u[rows], n)

        return _centered(product), n, float(row_sum.max())
    dense = profile.joint
    dense -= shift
    return _centered(dense.__matmul__), n, float(np.abs(dense).sum(axis=1).max(initial=0.0))


def _lanczos(matvec, n: int, steps: int, seed: int, tiny: float) -> tuple:
    """Top Ritz value of at most ``steps`` Lanczos steps, the steps taken, and
    whether the Krylov space ran out (a residual norm of ``tiny`` or less).

    The start vector is a seeded Gaussian made mean-zero and normalized, so
    it is uniform on the unit sphere of the centered subspace. Every new
    vector is reorthogonalized against the whole basis.
    """
    start = np.random.default_rng(seed).standard_normal(n)
    start -= start.mean()
    basis = np.empty((steps, n))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(steps), np.empty(steps)
    k, exhausted = 0, False
    while True:
        w = matvec(basis[k])
        alpha[k] = basis[k] @ w
        k += 1
        if k == steps:
            break
        w -= alpha[k - 1] * basis[k - 1]
        if k > 1:
            w -= beta[k - 2] * basis[k - 2]
        w -= (basis[:k] @ w) @ basis[:k]
        beta[k - 1] = np.linalg.norm(w)
        if beta[k - 1] <= tiny:
            exhausted = True
            break
        basis[k] = w / beta[k - 1]
    off = beta[: k - 1]
    tridiagonal = np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(tridiagonal)[-1]), k, exhausted


def largest_centered_eigenvalue(profile: ExposureProfile, seed: int = 0) -> EigenvalueBound:
    """Certified upper bound on the largest eigenvalue of P J P, P = I - 11'/n.

    J is the joint matrix of ``profile``, positive semidefinite as a second
    moment matrix. Lanczos with full reorthogonalization runs on the
    implicit centered operator from a random start drawn from ``seed`` (see
    :func:`_centered_operator` and :func:`_lanczos`) for
    k = min(n - 1, ``_lanczos_steps(n)``) steps, and the top Ritz value
    theta, which never exceeds lambda_1, becomes an upper bound:

    * ``exact``: the Krylov space ran out, either by breakdown or because k
      reached n - 1, the dimension of the centered subspace. theta is then
      lambda_1 itself (for every start vector with a component along the top
      eigenvector, which a random start has with probability 1).
    * ``random_start``: otherwise the bound is theta / (1 - eps), where eps
      solves 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)) = delta (Kuczynski and
      Wozniakowski 1992, *SIAM J. Matrix Anal. Appl.*, for the Lanczos
      algorithm on a PSD matrix from a start uniform on the sphere).
      It fails with probability at most delta = ``_DELTA`` = 1e-12 over the
      start vector. The n in the formula over-counts the n - 1 dimensions
      of the centered subspace, which only makes eps larger. k is the least
      step count with eps <= ``_SLACK`` = 0.005, so the bound is at most
      theta / 0.995 (about 227 steps at n = 2000, 235 at n = 20 000).
    * ``row_sum``: the largest absolute row sum of M = J - c11' caps either
      bound, deterministically: lambda_1(P M P) <= max(lambda_max(M), 0),
      and lambda_max(M) is at most that row sum. It is taken when smaller.

    Rounding: ``_ROUNDING`` = 1e-12 times the row sum, a bound on the norm of
    the centered operator, is added to the result. That is over 4 000 units
    in the last place of the norm, far above the O(k eps) relative error of
    a fully reorthogonalized Lanczos run of a few hundred steps. Breakdown
    is declared at a residual no larger than the same allowance.
    """
    _check_profile(profile)
    seed = check_seed(seed)
    matvec, n, row_sum = _centered_operator(profile)
    if n <= 1:
        return EigenvalueBound(value=0.0, ritz=0.0, steps=0, certificate="exact")
    allowance = _ROUNDING * row_sum
    ritz, steps, exhausted = _lanczos(matvec, n, min(n - 1, _lanczos_steps(n)), seed, allowance)
    if ritz < -allowance:
        raise ValidationError("matrix is not positive semidefinite; dominant eigenvalue is negative")
    if exhausted or steps == n - 1:
        value, certificate = ritz, "exact"
    else:
        value, certificate = ritz / (1.0 - _random_start_slack(n, steps)), "random_start"
    if row_sum < value:
        value, certificate = row_sum, "row_sum"
    return EigenvalueBound(value=max(value, 0.0) + allowance, ritz=ritz, steps=steps, certificate=certificate)


def exposure_attributable_contrast(
    y,
    exposure: EffectiveTreatment,
    profile: ExposureProfile,
    alpha: float,
) -> ContrastReport:
    """Attributable contrast for the effective-treatment split of the units."""
    check_probability(alpha, "alpha")
    y = _check_binary(y, "outcome")
    n = _check_profile(profile).n
    if y.size != n or exposure.indicator.size != n:
        raise ValidationError("outcome vector, exposure and profile differ in length")
    count = exposure.count
    if count < 1 or count > n - 1:
        raise ValidationError(
            f"the exposure split needs both groups nonempty, got {count} of {n} exposed"
        )
    _, (delta,) = _split_deltas(y, exposure.indicator[None])
    lam = largest_centered_eigenvalue(profile)
    return _report("exposure", delta, count, n, _exposure_scale(lam.value, n, profile.p), alpha, lam)


def concentration_check(
    xi,
    num_draws: int,
    design,
    alpha: float = 0.05,
    seed: int = 0,
) -> ConcentrationSummary:
    """Empirically check that the full-control contrast respects its bound.

    ``design`` selects the randomization: an integer is the treated-group
    size for sampling without replacement (treatment split); a tuple
    (neighborhoods, mapping, rho) draws Bernoulli assignments and uses the
    exposure split. Only usable when the full-control vector is known, i.e.
    in simulations.
    """
    xi = _check_binary(xi, "full-control outcomes")
    num_draws = check_count(num_draws, "num_draws")
    check_probability(alpha, "alpha")
    seed = check_seed(seed, philox=True)
    n = xi.size
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    if isinstance(design, (int, float, np.number)):
        n1 = check_integer(design, "treated-group size")
        if not 1 <= n1 <= n - 1:
            raise ValidationError(f"treated-group size must lie in [1, {n - 1}], got {n1}")
        groups = np.zeros((num_draws, n), dtype=np.int8)
        treated = np.argpartition(rng.random((num_draws, n)), n1 - 1, axis=1)[:, :n1]
        np.put_along_axis(groups, treated, 1, axis=1)
        scale = _treatment_scale(n1, n - n1)
        kind = "treatment"
    else:
        nbhd, mapping, rho = design
        profile = exact_profile(nbhd, mapping, rho)
        groups = evaluate_exposure_many((rng.random((num_draws, n)) < rho).astype(np.int8), nbhd, mapping)
        scale = _exposure_scale(largest_centered_eigenvalue(profile).value, n, profile.p)
        kind = "exposure"
    counts, deltas = _split_deltas(xi, groups)
    valid = (counts > 0) & (counts < n)
    bound = norm_ppf(1.0 - alpha) * scale
    exceed = int(np.sum(deltas[valid] > bound))
    num_valid = int(valid.sum())
    return ConcentrationSummary(
        kind=kind,
        num_draws=num_draws,
        num_valid=num_valid,
        num_degenerate=num_draws - num_valid,
        bound=float(bound),
        exceed_count=exceed,
        exceed_fraction=exceed / num_valid if num_valid else math.nan,
        alpha=alpha,
    )
