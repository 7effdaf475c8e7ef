"""Randomization distribution of the effective-treatment vector.

Given neighborhoods, a mapping, and the treatment probability, this module
computes the shared marginal exposure probability p and the pairwise joint
probabilities J[i, j] = P(Z_i = Z_j = 1), either exactly or by Monte Carlo,
plus the row sums of the excess J - p(1-p) I - p^2 11' (the deviation from
independence) that the variance estimators center with.

Units whose neighborhoods are disjoint are independent, so their joint
probability is exactly p^2 and their excess exactly 0. An exact profile
therefore stores only the overlapping pairs, memory linear in n for bounded
overlap. The dense ``joint`` property is built on demand only: for tests and
the eigenvalue of an all-pairs (Monte Carlo) profile.

The exact pairwise computation partitions the union of two neighborhoods into
the two private parts and the shared part and convolves binomial counts over
the three regions, so cost per pair is O(k^2) rather than O(2^|union|).
The binomial coefficients must fit a float, so exact threshold
probabilities take sets of at most 1 029 units (``_binom_tables``). A
full-enumeration oracle (n <= 20) is provided for testing and diagnostics.

A Monte Carlo profile counts co-exposure over all pairs, one shard of at
most 2^16 draws at a time. A shard's draws come in row chunks of one Philox
stream; each chunk is evaluated unit by unit (unit-major, ``(n, chunk)``)
and fills the next columns of an (n, batch) float32 buffer. When the next
chunk would not fit or the shard is done, the buffer's product ``b @ b.T``
is added to the upper triangle of the shard's counts one row block at a
time, ``b[r0:r1] @ b[r0:].T``, so no (n, n) product is formed beside the
counts. Every product and running sum is an integer count of at most 2^16,
below 2^24, so the float32 sums are exact in any order and the counts do
not depend on the chunk, batch or block sizes. The profile adds each
shard's diagonal, and its pairs i < j one row segment at a time, into two
float64 vectors (integer sums below 2^53, so exact), and divides the
vectors by the number of draws. No dense joint matrix is formed, and the
pattern's int32 index arrays are built once the last shard's counts are
gone: beside the profile's values, the build holds one shard's counts at a
time, and ``_finalize`` one block of pairs.

``_threshold_designs`` checks the design list of the Bonferroni scan and
the simulation harness (nonempty, integer (d_min, d) pairs) and returns
their threshold designs, on one k-NN per distinct d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import (
    ExposureMapping,
    NeighborhoodSet,
    _check_mapping,
    _exposed_by_unit,
    build_knn_neighborhoods,
    evaluate_exposure_many,
)
from .errors import ValidationError, check_count, check_instance, check_integer, check_seed, read_array
from .errors import read_number

_MAX_EXACT_SIZE = 1029  # of exact threshold probabilities: math.comb(1030, 515) exceeds a float
_MC_SHARD = 1 << 16
# Uniforms drawn and evaluated at once within a Monte Carlo shard (8 MiB of float64).
_MC_DRAW = 1 << 20
# Exposures counted with one product within a Monte Carlo shard (16 MiB of float32).
_MC_BATCH = 1 << 22
# Pattern pairs handled at once by ``_finalize`` and by the bound's weights
# (``monotone._weights``): 512 KB per float array, so a block adds little to
# the profile (blocks of 2^14 to 2^18 pairs took the same time).
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class ExposureProfile:
    """Second-order randomization quantities of the exposure vector.

    Joint probabilities are stored sparsely: the diagonal, plus one entry per
    pair ``rows[t] < cols[t]`` of the pattern, 16 bytes per pair: int32 unit
    indices, so n < 2^31, and a float64 value. Off the pattern the joint
    probability is ``p * p`` and the excess is exactly 0. Exact profiles use
    the pairs whose neighborhoods overlap as the pattern; Monte Carlo and
    enumeration profiles estimate every pair separately and use all pairs.
    ``row_excess`` holds the row sums r of the excess matrix and
    ``excess_total`` their sum s, so centered entries are
    ``excess[i, j] - r[i]/n - r[j]/n + s/n^2``.
    """

    p: float                    # shared marginal P(Z_i = 1)
    diag: np.ndarray            # (n,) J[i, i] = P(Z_i = 1)
    rows: np.ndarray            # (m,) int32, first unit of each pattern pair
    cols: np.ndarray            # (m,) int32, second unit, rows < cols
    values: np.ndarray          # (m,) J[rows, cols]
    row_excess: np.ndarray      # (n,) row sums of the excess matrix
    excess_total: float         # sum of all excess entries
    overlap_degree: int         # max number of other neighborhoods meeting any set
    method: str                 # "exact" | "monte_carlo" | "enumeration"
    num_samples: Optional[int] = None

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def off_pattern(self) -> bool:
        """Whether some pair lies off the pattern, so has joint probability p^2."""
        return self.rows.size < self.n * (self.n - 1) // 2

    @property
    def min_joint(self) -> float:
        """Smallest off-diagonal joint probability (p for a single unit)."""
        if self.n == 1:
            return self.p
        return float(np.min(self.values, initial=self.p * self.p if self.off_pattern else np.inf))

    @property
    def joint(self) -> np.ndarray:
        """Dense (n, n) joint probability matrix, built on each access."""
        joint = np.full((self.n, self.n), self.p * self.p)
        np.fill_diagonal(joint, self.diag)
        joint[self.rows, self.cols] = self.values
        joint[self.cols, self.rows] = self.values
        return joint


def _binom_tables(k: int, rho: float) -> tuple:
    """(pmf, sf) for all n in 0..k: pmf[n][m] = P(Binomial(n, rho) = m) and
    sf[n][t] = P(Binomial(n, rho) >= t) for t in 0..n+1. Each term takes the
    binomial coefficient as a float, so a k above ``_MAX_EXACT_SIZE`` is an
    error. The coefficients of row n are exact integers, built from row n - 1
    by Pascal's rule, so each is math.comb(n, m) for O(k^2) additions in all."""
    if k > _MAX_EXACT_SIZE:
        raise ValidationError(f"exact threshold probabilities need sets of at most {_MAX_EXACT_SIZE} units, got {k}")
    pmf, sf = [], []
    coefficients = [1]
    for n in range(k + 1):
        if n:
            coefficients = [1, *(a + b for a, b in zip(coefficients, coefficients[1:])), 1]
        row = np.array([c * rho**m * (1.0 - rho) ** (n - m) for m, c in enumerate(coefficients)])
        tail = np.zeros(n + 2)
        tail[:-1] = row[::-1].cumsum()[::-1]
        pmf.append(row)
        sf.append(tail)
    return pmf, sf


def _sf(sf_tables: list, n: int, t: int) -> float:
    if t <= 0:
        return 1.0
    if t > n:
        return 0.0
    return float(sf_tables[n][t])


def exact_marginal(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho: float) -> float:
    """Closed-form P(Z_i = 1), identical across units by size uniformity."""
    rho = _check_mapping(nbhd, mapping, rho)
    return _marginal(nbhd.k, mapping, rho)


def _marginal(k: int, mapping: ExposureMapping, rho: float, sf: Optional[list] = None) -> float:
    """P(Z_i = 1) under ``mapping`` on sets of size k, for a checked ``rho``;
    a threshold mapping reads ``sf`` of ``_binom_tables(k, rho)``, built
    here when not passed."""
    if mapping.kind == "product":
        return rho**k
    if sf is None:
        _, sf = _binom_tables(k, rho)
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
    pairs = _overlapping_pairs(check_instance(nbhd, NeighborhoodSet, "neighborhoods"))
    return _degree(pairs[:, 0], pairs[:, 1], nbhd.n)


def center_excess(joint: np.ndarray, p: float) -> tuple:
    """Excess over the independent second moment, and its doubly centered form.

    Centering is applied through the row sums r of the excess and their
    total s, ``excess[i, j] - r[i]/n - r[j]/n + s/n^2``, in O(n^2) time.
    """
    joint = read_array(joint, "joint probability matrix", float)
    p = read_number(p, "p")
    if joint.ndim != 2 or joint.shape[0] != joint.shape[1]:
        raise ValidationError("joint probability matrix must be square")
    n = joint.shape[0]
    if not np.allclose(joint, joint.T, rtol=0.0, atol=1e-12):
        raise ValidationError("joint probability matrix must be symmetric")
    excess = joint - p * (1.0 - p) * np.eye(n) - p * p * np.ones((n, n))
    r = excess.sum(axis=1)
    centered = excess - r[:, None] / n - r[None, :] / n + r.sum() / (n * n)
    return excess, centered


def _all_pairs(n: int) -> tuple:
    """Every pair i < j of n units as int32 (rows, cols), row by row and
    within a row by j: the rows by ``np.repeat``, the columns by one in-place
    ``cumsum`` of steps of 1 that jump back at each row's start, so no int64
    copy of the pattern is made."""
    lengths = np.arange(n - 1, 0, -1)
    rows = np.repeat(np.arange(n - 1, dtype=np.int32), lengths)
    cols = np.ones(rows.size, dtype=np.int32)
    cols[np.cumsum(lengths[:-1])] = 2 - lengths[:-1]  # row i starts at column i + 1, after column n - 1
    np.cumsum(cols, out=cols)
    return rows, cols


def _finalize(p, diag, rows, cols, values, degree, method, num_samples=None) -> ExposureProfile:
    """The profile of these arrays, with the row sums of the excess; the
    pattern's indices are stored as int32, so n must be below 2^31.

    A pair's excess ``values - p^2`` is formed ``_PAIR_BLOCK`` pairs at a
    time and added to the sums of its two units by ``np.add.at``, which adds
    each unit's pairs in pattern order starting from 0.0, as
    ``np.bincount`` with weights does; so the sums do not depend on the
    block size, and beyond the profile the build holds one block."""
    n = diag.shape[0]
    if n >= 1 << 31:
        raise ValidationError(f"exposure profiles hold at most 2^31 - 1 units, got {n}")
    rows, cols = rows.astype(np.int32, copy=False), cols.astype(np.int32, copy=False)
    pp = p * p
    by_row, by_col = np.zeros(n), np.zeros(n)
    for lo in range(0, values.size, _PAIR_BLOCK):
        at = slice(lo, lo + _PAIR_BLOCK)
        pair_excess = values[at] - pp
        np.add.at(by_row, rows[at].astype(np.intp), pair_excess)  # intp: np.add.at would convert int32 per call
        np.add.at(by_col, cols[at].astype(np.intp), pair_excess)
    row_excess = (diag - p * (1.0 - p)) - pp + by_row + by_col
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
        overlap_degree=degree,
        method=method,
        num_samples=num_samples,
    )


def _threshold_joint(k, key, d_min, rho, pmf, sf) -> float:
    # Condition on X_i = X_j = 1 and convolve the three disjoint regions: a
    # members only in S_i, b only in S_j, c shared (i and j excluded), with
    # base_i, base_j treated members already counted towards each threshold.
    # With k fixed, key = 4 |S_i & S_j| + 2 [j in S_i] + [i in S_j] sets all five.
    shared, j_in_i, i_in_j = key >> 2, key >> 1 & 1, key & 1
    a, b, c = k - shared - 1 + i_in_j, k - shared - 1 + j_in_i, shared - i_in_j - j_in_i
    base_i, base_j = 1 + j_in_i, 1 + i_in_j
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
    rho = _check_mapping(nbhd, mapping, rho)
    n, k = nbhd.members.shape
    pmf, sf = (None, None) if mapping.kind == "product" else _binom_tables(k, rho)
    p = _marginal(k, mapping, rho, sf)
    pairs = _overlapping_pairs(nbhd)
    rows, cols, shared = pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32), pairs[:, 2]
    if mapping.kind == "product":
        sizes, where = np.unique(2 * k - shared, return_inverse=True)
        table = np.array([rho ** int(size) for size in sizes])
    else:
        j_in_i = (nbhd.members[rows] == cols[:, None]).any(axis=1)
        i_in_j = (nbhd.members[cols] == rows[:, None]).any(axis=1)
        keys, where = np.unique(4 * shared + 2 * j_in_i + i_in_j, return_inverse=True)
        table = np.array([_threshold_joint(k, int(key), mapping.d_min, rho, pmf, sf) for key in keys])
    values = table[where.ravel()]
    return _finalize(p, np.full(n, p), rows, cols, values, _degree(rows, cols, n), "exact")


def _threshold_designs(coords, configs, rho) -> list:
    """The (neighborhoods, mapping, exact profile) of each threshold
    (d_min, d) design in the nonempty list ``configs`` of integer pairs, on
    one k-NN per distinct d; the mapping holds d_min and the sets' size is d."""
    try:
        entries = list(configs)
    except TypeError:
        raise ValidationError(f"configs must be a list of (d_min, d) pairs, got {configs!r}") from None
    pairs = []
    for entry in entries:
        try:
            d_min, d = entry
        except (TypeError, ValueError):
            raise ValidationError(f"a (d_min, d) configuration must be a pair, got {entry!r}") from None
        pairs.append((check_integer(d_min, "d_min"), check_integer(d, "d")))
    if not pairs:
        raise ValidationError("at least one (d_min, d) configuration is required")
    neighborhoods, designs = {}, []
    for d_min, d in pairs:
        if d not in neighborhoods:
            neighborhoods[d] = build_knn_neighborhoods(coords, d)
        mapping = ExposureMapping.threshold(d_min)
        designs.append((neighborhoods[d], mapping, exact_profile(neighborhoods[d], mapping, rho)))
    return designs


def _mc_shard_counts(nbhd, mapping, rho, seed, shard, shard_n):
    """Joint exposure counts of at most 2^16 draws, as (n, n) float32 whose
    diagonal and upper triangle hold the counts; the entries below the
    diagonal are unspecified.

    The draws are made in row chunks of about ``_MC_DRAW`` uniforms; the
    chunks continue one Philox stream, so the counts equal those of the whole
    shard at once. Each chunk is evaluated unit by unit and its (n, chunk)
    exposures go into the columns of an (n, batch) float32 buffer of about
    ``_MC_BATCH`` entries. After each chunk, ``b @ b.T`` of the filled
    columns is added to the counts, at one site, when the next chunk (of
    ``min(step, rows left)`` rows) would not fit or the shard is done: one
    block of ``step`` rows at a time, ``b[r0:r1] @ b[r0:].T`` into
    ``counts[r0:r1, r0:]``, so each product is at most ``_MC_DRAW`` floats
    and none is (n, n). Every product and running sum is a count of at most
    2^16 draws, an integer below 2^24, so the float32 sums are exact in any
    order."""
    rng = np.random.Generator(np.random.Philox(key=[seed, shard]))
    n = nbhd.n
    counts = np.zeros((n, n), dtype=np.float32)
    step = max(1, _MC_DRAW // n)
    batch = np.empty((n, min(shard_n, max(step, _MC_BATCH // n))), dtype=np.float32)
    filled = 0
    for lo in range(0, shard_n, step):  # Philox fills rows in stream order
        size = min(step, shard_n - lo)
        xt = np.ascontiguousarray((rng.random((size, n)) < rho).T)
        batch[:, filled:filled + size] = _exposed_by_unit(xt, nbhd, mapping)
        filled += size
        ahead = min(step, shard_n - lo - size)  # the next chunk's size, 0 at the end
        if not ahead or filled + ahead > batch.shape[1]:
            b = batch[:, :filled]
            for r0 in range(0, n, step):  # the upper triangle, a block of rows at a time
                counts[r0 : r0 + step, r0:] += b[r0 : r0 + step] @ b[r0:].T
            filled = 0
    return counts


def monte_carlo_profile(
    nbhd: NeighborhoodSet,
    mapping: ExposureMapping,
    rho: float,
    num_samples: int,
    seed: int = 0,
) -> ExposureProfile:
    """Empirical joint exposure frequencies over independent assignment draws.

    Sampling uses a counter-based generator keyed by (seed, shard index), so
    results are bit-identical for a given seed. Each shard's counts are
    added into the float64 diagonal and pair values, row segment by row
    segment of the upper triangle, without an (n, n) mask or index copy;
    ``_all_pairs`` builds the pattern after the last shard.
    """
    rho = _check_mapping(nbhd, mapping, rho)
    num_samples = check_count(num_samples, "num_samples")
    seed = check_seed(seed, philox=True)
    # The counts of every pair i < j and of the diagonal, added from each
    # shard's float32 (n, n) counts, row by row, into float64; they are
    # integers below 2^53, so their sums are exact.
    n = nbhd.n
    for shard, start in enumerate(range(0, num_samples, _MC_SHARD)):
        counts = _mc_shard_counts(nbhd, mapping, rho, seed, shard, min(_MC_SHARD, num_samples - start))
        if not shard:  # made after the first shard's draws, whose buffers are the larger peak
            diag, values = np.zeros(n), np.zeros(n * (n - 1) // 2)
        diag += np.diagonal(counts)
        end = 0
        for i in range(n - 1):  # row i's pairs (i, j > i), in the order of _all_pairs
            values[end : end + n - 1 - i] += counts[i, i + 1 :]
            end += n - 1 - i
        del counts  # each shard's (n, n) counts go before the next shard is drawn
    rows, cols = _all_pairs(n)
    diag /= num_samples
    values /= num_samples
    return _finalize(
        float(diag.mean()), diag, rows, cols, values, overlap_degree(nbhd), "monte_carlo", num_samples=num_samples
    )


def enumerated_profile(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho: float) -> ExposureProfile:
    """Exact profile by enumerating all 2^n assignments (test oracle, n <= 20)."""
    rho = _check_mapping(nbhd, mapping, rho)
    n = nbhd.n
    if n > 20:
        raise ValidationError(f"full enumeration supports at most 20 units, got {n}")
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
    rows, cols = _all_pairs(n)
    return _finalize(
        float(marginals.mean()), np.diagonal(joint).copy(), rows, cols, joint[rows, cols],
        overlap_degree(nbhd), "enumeration",
    )
