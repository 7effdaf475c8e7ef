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
The exposure split's eigenvalue bound takes a profile. A small or all-pairs
profile gets the dense eigenvalue (``_dense_bound``); any other gets a
deterministic Collatz-Wielandt bound computed on its pattern
(``_pattern_bound``), in O(n + pairs) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import EffectiveTreatment, evaluate_exposure_many
from .errors import ValidationError, check_count, check_instance, check_integer, check_probability
from .errors import check_seed, read_array
from .exposure import ExposureProfile, exact_profile
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
_DENSE_MAX_N = 225          # largest n always decomposed densely (a 0.4 MB matrix)
_ROUNDING = 1e-12           # rounding allowance, relative to the row-sum bound
_CW_TOLERANCE = 1e-3        # relative gap to the lower bound that ends the iteration
_CW_MAX_ITERATIONS = 1000   # about 8 s of iterations at n = 100 000


@dataclass(frozen=True)
class ContrastReport:
    """Point contrast with one-sided and symmetric two-sided intervals.

    An exposure split also carries its eigenvalue bound (an
    :class:`EigenvalueBound`): ``lambda_1`` is the upper bound the interval
    uses, ``lambda_1_certificate`` says how it was certified (``exact`` or
    ``collatz_wielandt``), ``lambda_1_ritz`` is a lower bound on the
    eigenvalue, and ``lambda_1_steps`` the number of iterations behind them
    (0 for ``exact``). A treatment split leaves all four None.
    """

    kind: str                    # "treatment" or "exposure" split
    delta: float
    one_sided_lower: float
    two_sided: tuple             # (lower, upper), centered at delta
    alpha: float
    n_exposed: int
    n_unexposed: int
    lambda_1: Optional[float] = None
    lambda_1_certificate: Optional[str] = None
    lambda_1_ritz: Optional[float] = None
    lambda_1_steps: Optional[int] = None
    assumptions: str = ""


@dataclass(frozen=True)
class EigenvalueBound:
    """Upper bound on the top eigenvalue of a doubly centered matrix.

    ``value`` is the bound, certified as ``certificate`` says: ``exact`` or
    ``collatz_wielandt`` (see :func:`largest_centered_eigenvalue`).
    ``ritz`` is a Rayleigh quotient of the centered matrix, never above the
    eigenvalue but for rounding, and ``steps`` the number of Collatz-Wielandt
    iterations behind both (0 for ``exact``, where ``ritz`` is the eigenvalue).
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
    """Half-width per unit of z of the exposure split: sqrt(lambda_1 / n) / (2 p (1 - p)),
    for an exposure probability p in (0, 1)."""
    p = check_probability(p, "exposure probability")
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
    alpha = check_probability(alpha, "alpha")
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
    alpha = check_probability(alpha, "alpha")
    return _report("treatment", delta, n1, n, _treatment_scale(n1, n - n1), alpha)


def _dense_bound(profile: ExposureProfile) -> EigenvalueBound:
    """``eigvalsh`` of the dense P M P, M = J - p^2 11'; certificate ``exact``."""
    shifted = profile.joint
    shifted -= profile.p * profile.p
    allowance = _ROUNDING * float(np.abs(shifted).sum(axis=1).max())
    means = shifted.mean(axis=1)  # also the column means: M is symmetric
    shifted -= means[:, None]
    shifted -= means
    shifted += means.mean()
    low, *_, top = np.linalg.eigvalsh(shifted).tolist()
    if low < -allowance:
        raise ValidationError(f"matrix is not positive semidefinite; its centered form has eigenvalue {low:.6g}")
    return EigenvalueBound(value=max(top, 0.0) + allowance, ritz=top, steps=0, certificate="exact")


def _pattern_bound(profile: ExposureProfile) -> EigenvalueBound:
    """Collatz-Wielandt bound on rho(|M|), M = J - p^2 11' on the profile's
    pattern; certificate ``collatz_wielandt``."""
    n, shift = profile.n, profile.p * profile.p
    rows, cols = profile.rows, profile.cols
    diag, pair = profile.diag - shift, profile.values - shift

    def product(d, e, u):
        """The product with the symmetric matrix of diagonal d and pattern entries e."""
        return d * u + np.bincount(rows, e * u[cols], n) + np.bincount(cols, e * u[rows], n)

    abs_diag, abs_pair = np.abs(diag), np.abs(pair)
    w, bound = np.ones(n), math.inf
    for steps in range(1, _CW_MAX_ITERATIONS + 1):
        image = product(abs_diag, abs_pair, w)
        if steps == 1:
            row_sum = float(image.max())
        bound = min(bound, float(np.max(image / w)))
        if bound - float(w @ image) / float(w @ w) <= _CW_TOLERANCE * bound:
            break
        w = np.maximum(image / image.max(), np.finfo(float).tiny)
    centered = w - w.mean()
    norm = float(centered @ centered)
    ritz = float(centered @ product(diag, pair, centered)) / norm if norm > 0 else 0.0
    return EigenvalueBound(
        value=bound + _ROUNDING * row_sum, ritz=ritz, steps=steps, certificate="collatz_wielandt",
    )


def largest_centered_eigenvalue(profile: ExposureProfile) -> EigenvalueBound:
    """Upper bound on the largest eigenvalue of P J P, P = I - 11'/n.

    J is the joint matrix of ``profile``, positive semidefinite as a second
    moment matrix, and P J P = P M P for M = J - c11' with c = p^2 (the
    float ``p * p`` that fills J off the pattern). M is zero off the pattern.
    Two branches, chosen by the profile:

    * ``exact``: for n <= ``_DENSE_MAX_N`` = 225 (a 0.4 MB matrix), or when
      the pattern is every pair (Monte Carlo, enumeration), so that the
      profile already holds O(n^2) values. The value is the top eigenvalue
      of the dense P M P from ``numpy.linalg.eigvalsh``; ``ritz`` is that
      eigenvalue and ``steps`` is 0. An eigenvalue below minus the rounding
      allowance is an error: P J P, and so J, is not positive semidefinite.
    * ``collatz_wielandt``: every other profile, in O(n + pairs) time per
      iteration and O(n + pairs) memory. For any positive w,

          lambda_1(P M P) <= lambda_max(M) <= rho(|M|) <= max_i (|M| w)_i / w_i,

      the last being the Collatz-Wielandt bound (Horn and Johnson, *Matrix
      Analysis*, Thm 8.1.26). The iteration starts at w = 1, whose ratio
      is the largest absolute row sum of M, and continues with the power
      iterates w <- |M| w / max(|M| w), floored at the smallest normal float
      so that they stay positive. The value is the least max ratio over all
      iterates. It stops once that value is within ``_CW_TOLERANCE`` = 1e-3,
      relative, of the Rayleigh quotient w'|M|w / w'w, a lower bound on
      rho(|M|), or after ``_CW_MAX_ITERATIONS``; either way the value is a
      bound. The bound holds for any sign of M's entries; those of the
      threshold and product mappings are nonnegative (Harris 1960), and then
      rho(|M|) = lambda_max(M) and the bound is tight up to the centering.
      ``ritz`` is the Rayleigh quotient on P M P of the centered final
      iterate, a lower bound on lambda_1 up to rounding (0 when that iterate
      is constant), and ``steps`` the number of iterates.

    Rounding: ``_ROUNDING`` = 1e-12 times the largest absolute row sum of M,
    which bounds the norm of M, is added in both branches. That is over
    4 000 units in the last place of the norm. It covers the backward error
    of ``eigvalsh``, and the rounding of each Collatz-Wielandt ratio: a sum
    of nonnegative terms over a unit and its pattern pairs, divided by w_i,
    with relative error below (degree + 3) eps, under 1e-12 for a unit with
    fewer than 4 000 pattern pairs.
    """
    n = check_instance(profile, ExposureProfile, "profile").n
    if n <= 1:
        return EigenvalueBound(value=0.0, ritz=0.0, steps=0, certificate="exact")
    if n <= _DENSE_MAX_N or not profile.off_pattern:
        return _dense_bound(profile)
    return _pattern_bound(profile)


def exposure_attributable_contrast(
    y,
    exposure: EffectiveTreatment,
    profile: ExposureProfile,
    alpha: float,
) -> ContrastReport:
    """Attributable contrast for the effective-treatment split of the units."""
    alpha = check_probability(alpha, "alpha")
    y = _check_binary(y, "outcome")
    n = check_instance(profile, ExposureProfile, "profile").n
    if y.size != n or check_instance(exposure, EffectiveTreatment, "exposure").indicator.size != n:
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
    alpha = check_probability(alpha, "alpha")
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
    elif isinstance(design, (tuple, list)) and len(design) == 3:
        nbhd, mapping, rho = design
        profile = exact_profile(nbhd, mapping, rho)
        groups = evaluate_exposure_many((rng.random((num_draws, n)) < rho).astype(np.int8), nbhd, mapping)
        scale = _exposure_scale(largest_centered_eigenvalue(profile).value, n, profile.p)
        kind = "exposure"
    else:
        raise ValidationError(
            f"design must be a treated-group size or a (neighborhoods, mapping, rho) triple, got {type(design).__name__}"
        )
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
