"""Randomization distribution of the effective-treatment vector.

Given neighborhoods, a mapping, and the treatment probability, this module
computes the shared marginal exposure probability p and the pairwise joint
probabilities J[i, j] = P(Z_i = Z_j = 1), either exactly or by Monte Carlo,
plus the derived quantities used by the variance estimators:

    excess   = J - p(1-p) I - p^2 11'      (deviation from independence)
    centered = (I - 11'/n) excess (I - 11'/n)

Units whose neighborhoods are disjoint are independent, so their joint
probability is exactly p^2 and their excess exactly 0. An exact profile
therefore stores only the overlapping pairs, memory linear in n for bounded
overlap; the dense matrices above are built on demand (tests, matrix dumps,
the eigenvalue solver).

The exact pairwise computation partitions the union of two neighborhoods into
the two private parts and the shared part and convolves binomial counts over
the three regions, so cost per pair is O(k^2) rather than O(2^|union|). A
full-enumeration oracle (n <= 20) is provided for testing and diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import ExposureMapping, NeighborhoodSet, evaluate_exposure_many, _check_mapping
from .errors import ValidationError, check_integer, check_seed

_MC_SHARD = 1 << 16


@dataclass(frozen=True)
class ExposureProfile:
    """Second-order randomization quantities of the exposure vector.

    Joint probabilities are stored sparsely: the diagonal, plus one entry per
    pair ``rows[t] < cols[t]`` of the pattern. Off the pattern the joint
    probability is ``p * p`` and the excess is exactly 0. Exact profiles use
    the pairs whose neighborhoods overlap as the pattern; Monte Carlo and
    enumeration profiles estimate every pair separately and use all pairs.
    ``row_excess`` holds the row sums r of the excess matrix and
    ``excess_total`` their sum s, so centered entries are
    ``excess[i, j] - r[i]/n - r[j]/n + s/n^2``.
    """

    p: float                    # shared marginal P(Z_i = 1)
    diag: np.ndarray            # (n,) J[i, i] = P(Z_i = 1)
    rows: np.ndarray            # (m,) int64, first unit of each pattern pair
    cols: np.ndarray            # (m,) int64, second unit, rows < cols
    values: np.ndarray          # (m,) J[rows, cols]
    row_excess: np.ndarray      # (n,) row sums of the excess matrix
    excess_total: float         # sum of all excess entries
    min_joint: float            # smallest off-diagonal joint probability
    overlap_degree: int         # max number of other neighborhoods meeting any set
    method: str                 # "exact" | "monte_carlo" | "enumeration"
    num_samples: Optional[int] = None

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def joint(self) -> np.ndarray:
        """Dense (n, n) joint probability matrix, built on each access."""
        joint = np.full((self.n, self.n), self.p * self.p)
        np.fill_diagonal(joint, self.diag)
        joint[self.rows, self.cols] = self.values
        joint[self.cols, self.rows] = self.values
        return joint

    @property
    def excess(self) -> np.ndarray:
        """Dense excess matrix, built on each access."""
        return _excess(self.joint, self.p)

    @property
    def centered(self) -> np.ndarray:
        """Dense doubly centered excess matrix, built on each access."""
        return center_excess(self.joint, self.p)[1]


def _binom_pmf_table(k: int, rho: float) -> list:
    """pmf[n][m] = P(Binomial(n, rho) = m) for all n in 0..k."""
    tables = []
    for n in range(k + 1):
        row = np.array(
            [math.comb(n, m) * rho**m * (1.0 - rho) ** (n - m) for m in range(n + 1)]
        )
        tables.append(row)
    return tables


def _binom_sf_table(pmf: list) -> list:
    """sf[n][t] = P(Binomial(n, rho) >= t) for t in 0..n+1."""
    tables = []
    for row in pmf:
        sf = np.zeros(len(row) + 1)
        sf[:-1] = row[::-1].cumsum()[::-1]
        tables.append(sf)
    return tables


def _sf(sf_tables: list, n: int, t: int) -> float:
    if t <= 0:
        return 1.0
    if t > n:
        return 0.0
    return float(sf_tables[n][t])


def exact_marginal(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho: float) -> float:
    """Closed-form P(Z_i = 1), identical across units by size uniformity."""
    _check_mapping(nbhd, mapping)
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"treatment probability must lie in (0, 1), got {rho}")
    k = nbhd.k
    if mapping.kind == "product":
        return rho**k
    pmf = _binom_pmf_table(k, rho)
    sf = _binom_sf_table(pmf)
    return rho * _sf(sf, k - 1, mapping.d_min - 1)


def _overlapping_pairs(nbhd: NeighborhoodSet) -> np.ndarray:
    """Rows (i, j, |S_i & S_j|) for every pair i < j whose sets meet, sorted.

    Each member u contributes one pair record for every two sets holding it,
    so a pair appears once per shared member.
    """
    n, k = nbhd.members.shape
    unit = nbhd.members.ravel()
    owner = np.repeat(np.arange(n, dtype=np.int64), k)
    by_unit = np.lexsort((owner, unit))
    unit, owner = unit[by_unit], owner[by_unit]
    keys = []
    for shift in range(1, unit.size):
        same = unit[shift:] == unit[:-shift]
        if not same.any():
            break
        keys.append(owner[:-shift][same] * n + owner[shift:][same])
    keys, shared = np.unique(np.concatenate(keys or [np.empty(0, np.int64)]), return_counts=True)
    return np.column_stack((keys // n, keys % n, shared))


def _degree(rows: np.ndarray, cols: np.ndarray, n: int) -> int:
    counts = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    return int(counts.max(initial=0))


def overlap_degree(nbhd: NeighborhoodSet) -> int:
    """Maximum, over units, of the number of other neighborhoods meeting its set."""
    pairs = _overlapping_pairs(nbhd)
    return _degree(pairs[:, 0], pairs[:, 1], nbhd.n)


def _excess(joint: np.ndarray, p: float) -> np.ndarray:
    n = joint.shape[0]
    return joint - p * (1.0 - p) * np.eye(n) - p * p * np.ones((n, n))


def center_excess(joint: np.ndarray, p: float) -> tuple:
    """Excess over the independent second moment, and its doubly centered form.

    Centering is applied through the row sums r of the excess and their
    total s, ``excess[i, j] - r[i]/n - r[j]/n + s/n^2``, in O(n^2) time.
    """
    joint = np.asarray(joint, dtype=float)
    n = joint.shape[0]
    if joint.ndim != 2 or joint.shape[1] != n:
        raise ValidationError("joint probability matrix must be square")
    if not np.allclose(joint, joint.T, rtol=0.0, atol=1e-12):
        raise ValidationError("joint probability matrix must be symmetric")
    excess = _excess(joint, p)
    r = excess.sum(axis=1)
    centered = excess - r[:, None] / n - r[None, :] / n + r.sum() / (n * n)
    return excess, centered


def _finalize(p, diag, rows, cols, values, degree, method, num_samples=None) -> ExposureProfile:
    n = diag.shape[0]
    off_pattern = rows.size < n * (n - 1) // 2
    min_joint = float(p) if n == 1 else float(np.min(values, initial=p * p if off_pattern else np.inf))
    pair_excess = values - p * p
    row_excess = (
        (diag - p * (1.0 - p)) - p * p
        + np.bincount(rows, weights=pair_excess, minlength=n)
        + np.bincount(cols, weights=pair_excess, minlength=n)
    )
    for arr in (diag, rows, cols, values, row_excess):
        arr.setflags(write=False)
    return ExposureProfile(
        p=float(p),
        diag=diag,
        rows=rows,
        cols=cols,
        values=values,
        row_excess=row_excess,
        excess_total=float(row_excess.sum()),
        min_joint=min_joint,
        overlap_degree=degree,
        method=method,
        num_samples=num_samples,
    )


def _dense_finalize(joint, p, nbhd, method, num_samples=None) -> ExposureProfile:
    """Profile whose pattern is every pair, from a dense symmetric joint matrix."""
    rows, cols = np.triu_indices(joint.shape[0], 1)
    return _finalize(
        p, np.diagonal(joint).copy(), rows, cols, joint[rows, cols],
        overlap_degree(nbhd), method, num_samples,
    )


def _threshold_joint(a, b, c, base_i, base_j, d_min, rho, pmf, sf) -> float:
    # Condition on X_i = X_j = 1 and convolve the three disjoint regions: a
    # members only in S_i, b only in S_j, c shared (i and j excluded), with
    # base_i, base_j treated members already counted towards each threshold.
    total = 0.0
    pmf_c = pmf[c]
    for m in range(c + 1):
        total += (
            pmf_c[m]
            * _sf(sf, a, d_min - base_i - m)
            * _sf(sf, b, d_min - base_j - m)
        )
    return rho * rho * total


def exact_profile(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho: float) -> ExposureProfile:
    """Exact joint exposure probabilities for every pair of units.

    Pairs with disjoint neighborhoods are independent, so their joint
    probability is p^2; only overlapping pairs are stored, and the region
    convolution runs once per distinct tuple of region sizes.
    """
    p = exact_marginal(nbhd, mapping, rho)
    n, k = nbhd.members.shape
    pairs = _overlapping_pairs(nbhd)
    rows, cols, shared = pairs[:, 0].copy(), pairs[:, 1].copy(), pairs[:, 2]
    if mapping.kind == "product":
        sizes, where = np.unique(2 * k - shared, return_inverse=True)
        table = np.array([rho ** int(size) for size in sizes])
    else:
        j_in_i = (nbhd.members[rows] == cols[:, None]).any(axis=1)
        i_in_j = (nbhd.members[cols] == rows[:, None]).any(axis=1)
        # |only_i|, |only_j|, |shared| with i and j removed, base_i, base_j
        regions = np.column_stack((
            k - shared - ~i_in_j,
            k - shared - ~j_in_i,
            shared - i_in_j - j_in_i,
            1 + j_in_i,
            1 + i_in_j,
        ))
        tuples, where = np.unique(regions, axis=0, return_inverse=True)
        pmf = _binom_pmf_table(k, rho)
        sf = _binom_sf_table(pmf)
        table = np.array([
            _threshold_joint(*(int(v) for v in t), mapping.d_min, rho, pmf, sf) for t in tuples
        ])
    values = table[where.ravel()]
    return _finalize(p, np.full(n, p), rows, cols, values, _degree(rows, cols, n), "exact")


def _mc_shard_counts(nbhd, mapping, rho, seed, shard, shard_n):
    rng = np.random.Generator(np.random.Philox(key=[seed, shard]))
    x = (rng.random((shard_n, nbhd.n)) < rho).astype(np.int8)
    z = evaluate_exposure_many(x, nbhd, mapping).astype(float)
    return z.T @ z


def monte_carlo_profile(
    nbhd: NeighborhoodSet,
    mapping: ExposureMapping,
    rho: float,
    num_samples: int,
    seed: int = 0,
) -> ExposureProfile:
    """Empirical joint exposure frequencies over independent assignment draws.

    Sampling uses a counter-based generator keyed by (seed, shard index), so
    results are bit-identical for a given seed.
    """
    _check_mapping(nbhd, mapping)
    num_samples = check_integer(num_samples, "num_samples")
    if num_samples < 1:
        raise ValidationError("num_samples must be at least 1")
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"treatment probability must lie in (0, 1), got {rho}")
    seed = check_seed(seed, philox=True)
    counts = sum(
        _mc_shard_counts(nbhd, mapping, rho, seed, shard, min(_MC_SHARD, num_samples - start))
        for shard, start in enumerate(range(0, num_samples, _MC_SHARD))
    )
    joint = counts / num_samples
    p = float(np.diagonal(joint).mean())
    return _dense_finalize(joint, p, nbhd, "monte_carlo", num_samples=num_samples)


def enumerated_profile(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho: float) -> ExposureProfile:
    """Exact profile by enumerating all 2^n assignments (test oracle, n <= 20)."""
    _check_mapping(nbhd, mapping)
    n = nbhd.n
    if n > 20:
        raise ValidationError(f"full enumeration supports at most 20 units, got {n}")
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"treatment probability must lie in (0, 1), got {rho}")
    total = 1 << n
    x = ((np.arange(total)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    treated = x.sum(axis=1)
    weights = rho ** treated.astype(float) * (1.0 - rho) ** (n - treated).astype(float)
    z = evaluate_exposure_many(x, nbhd, mapping).astype(float)
    marginals = weights @ z
    spread = float(marginals.max() - marginals.min())
    if spread > 1e-9:
        raise ValidationError(
            f"marginal exposure probabilities are not uniform (spread {spread:.3g}); "
            "all neighborhoods must give units the same exposure probability"
        )
    joint = z.T @ (weights[:, None] * z)
    joint = (joint + joint.T) / 2.0
    return _dense_finalize(joint, float(marginals.mean()), nbhd, "enumeration")
