"""Experiment representation: units, neighborhoods, and exposure mappings.

A :class:`Population` holds the observed experiment (coordinates, binary
treatments, nonnegative outcomes). Neighborhoods are index sets, one per
unit, always containing the unit itself and all of one size, so that every
unit has the same probability of effective treatment. An exposure mapping
collapses the treatment pattern on a neighborhood into a binary indicator of
effective treatment.

The :class:`NeighborhoodSet` constructor owns the rules of the index sets:
the sets form a nonempty (n, k) array, each index is an integer and no set
repeats one (both named by the set's row), every index lies in range, and
each unit is in its own set. ``NeighborhoodSet.from_sets`` adds only the
rule that an array cannot break, that all sets have one size.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError, check_instance, check_integer, check_probability, read_array

# Entries of the (rows, candidates, dim) difference block built per k-NN chunk.
_KNN_CHUNK = 1 << 20
# A k-NN leaf bucket holds max(_KNN_LEAF, d) points up to twice that (or all n, when fewer).
_KNN_LEAF = 16


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _coordinates(values) -> np.ndarray:
    """``values`` as an (n, dim) float array; a vector is n points on a line."""
    coords = read_array(values, "coordinates", float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2:
        raise ValidationError("coordinates must form an (n, dim) array")
    return coords


def _check_units(ids: tuple, ok: np.ndarray, message: str, *values) -> None:
    """Raise for the first unit where ``ok`` fails, with ``message`` formatted
    by that unit's entries of ``values`` and its index recorded."""
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise ValidationError(f"unit {ids[i]!r}: " + message.format(*(v[i] for v in values)), unit=i)


@dataclass(frozen=True)
class Population:
    """An ordered collection of units with a common treatment probability.

    ``enrollment``, when present, is a known per-unit upper bound on the
    outcome (e.g. the number of individuals at a site) and enables lower
    bounds on the full-control counterfactual. A rule broken by one unit is
    reported with that unit's index in ``ValidationError.unit``.
    """

    ids: tuple
    coords: np.ndarray        # (n, dim) float
    treatment: np.ndarray     # (n,) int8, values in {0, 1}
    outcome: np.ndarray       # (n,) float, nonnegative
    rho: float                # treatment probability, in (0, 1)
    enrollment: Optional[np.ndarray] = None

    def __post_init__(self):
        coords = _coordinates(self.coords)
        n = coords.shape[0]
        if n < 2:
            raise ValidationError(f"a population needs at least 2 units, got {n}")
        if isinstance(self.ids, (str, bytes)) or not isinstance(self.ids, Iterable):
            raise ValidationError(f"ids must be a non-string sequence, got {type(self.ids).__name__}")
        ids = tuple(self.ids)
        if len(ids) != n:
            raise ValidationError(f"{len(ids)} ids for {n} coordinate rows")
        treatment = read_array(self.treatment, "treatment")
        outcome = read_array(self.outcome, "outcome", float)
        enrollment = None if self.enrollment is None else read_array(self.enrollment, "enrollment", float)
        for name, values in (("treatment", treatment), ("outcome", outcome), ("enrollment", enrollment)):
            if values is not None and values.shape != (n,):
                raise ValidationError(f"{name} must be a length-{n} vector, got shape {values.shape}")
        object.__setattr__(self, "rho", check_probability(self.rho, "treatment probability"))
        _check_units(ids, np.isfinite(coords).all(axis=1), "coordinates must be finite")
        _check_units(ids, (treatment == 0) | (treatment == 1), "treatment must be 0 or 1, got {}", treatment)
        _check_units(
            ids, np.isfinite(outcome) & (outcome >= 0), "outcome must be finite and nonnegative, got {}", outcome
        )
        if enrollment is not None:
            _check_units(ids, np.isfinite(enrollment), "enrollment must be finite, got {}", enrollment)
            _check_units(
                ids,
                outcome <= enrollment,
                "outcome {} exceeds enrollment {} (enrollment is an upper bound on the outcome)",
                outcome,
                enrollment,
            )
            object.__setattr__(self, "enrollment", _frozen_array(enrollment, float))
        seen = set()
        for i, unit_id in enumerate(ids):
            try:
                repeated = unit_id in seen
            except TypeError:
                raise ValidationError(f"unit {i}: ids must be hashable, got {unit_id!r}", unit=i) from None
            if repeated:
                raise ValidationError(f"unit {unit_id!r}: unit ids must be unique", unit=i)
            seen.add(unit_id)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", _frozen_array(coords, float))
        object.__setattr__(self, "treatment", _frozen_array(treatment, np.int8))
        object.__setattr__(self, "outcome", _frozen_array(outcome, float))

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def _sorted_rows(rows, first: int = 0) -> np.ndarray:
    """``rows``, a 2-D array or nested sequence of neighborhood indices, as
    an array with each row sorted, after the two rules of a row, whose
    messages number the rows from ``first``: every index is an integer, and
    no row repeats one.

    Integer indices with no boolean among them (numpy types a boolean among
    integers as an integer) are sorted as one array. Any others are checked
    one by one as given, before a cast could truncate a float or parse a string.
    """
    members = read_array(rows, "neighborhood members")
    if members.ndim != 2:
        raise ValidationError("neighborhood members must form an (n, k) index array")
    if members.dtype.kind not in "iu" or (
        not isinstance(rows, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(rows)))
    ):
        members = np.array(
            [[check_integer(j, f"neighborhood {first + i} index") for j in row] for i, row in enumerate(rows)],
            dtype=object,
        ).reshape(members.shape)
    members = np.sort(members, axis=1)
    repeats = members[:, 1:] == members[:, :-1]
    if repeats.any():
        i, j = np.argwhere(repeats)[0]
        raise ValidationError(f"neighborhood {first + i} repeats index {members[i, j]}")
    return members


@dataclass(frozen=True)
class NeighborhoodSet:
    """One index set per unit; unit i always belongs to its own set.

    All sets have the same size. This is enforced because the inference
    downstream requires every unit to have the same probability of effective
    treatment, which in practice means equally sized neighborhoods.
    """

    members: np.ndarray  # (n, k) int64, each row sorted ascending

    def __post_init__(self):
        members = _sorted_rows(self.members)
        n, k = members.shape
        if k < 1:
            raise ValidationError("neighborhoods must be nonempty")
        if members.min(initial=0) < 0 or members.max(initial=0) >= n:
            raise ValidationError("neighborhood indices out of range")
        members = members.astype(np.int64, copy=False)
        rows = np.arange(n)
        self_in = (members == rows[:, None]).any(axis=1)
        if not self_in.all():
            i = int(np.flatnonzero(~self_in)[0])
            raise ValidationError(f"unit {i} is missing from its own neighborhood")
        object.__setattr__(self, "members", _frozen_array(members, np.int64))

    @property
    def n(self) -> int:
        return self.members.shape[0]

    @property
    def k(self) -> int:
        return self.members.shape[1]

    @classmethod
    def from_sets(cls, sets: Sequence[Iterable[int]]) -> "NeighborhoodSet":
        """The neighborhoods given as one index set per unit, all of one size; the constructor reads the indices.

        Sets of unequal size cannot form the constructor's array, so their
        rule is checked here. When the sizes differ, a set that breaks a
        rule of its own row (a repeated index most often makes a set the odd
        size) is named first.
        """
        try:
            rows = [list(s) for s in sets]
        except TypeError:
            raise ValidationError(f"neighborhood sets must be a sequence of index sets, got {sets!r}") from None
        sizes = sorted({len(row) for row in rows})
        if len(sizes) != 1:
            for i, row in enumerate(rows):
                _sorted_rows([row], first=i)
            raise ValidationError(
                f"all neighborhoods must have the same size so that exposure "
                f"probabilities are uniform; got sizes {sizes}"
            )
        return cls(members=rows)

    def as_sets(self) -> list:
        return [frozenset(int(j) for j in row) for row in self.members]


@dataclass(frozen=True)
class ExposureMapping:
    """Rule turning the treatment pattern on a neighborhood into 0/1.

    ``product``: effectively treated iff every neighborhood member is treated.
    ``threshold``: effectively treated iff the unit itself is treated and at
    least ``d_min`` neighborhood members (the unit included) are treated.
    """

    kind: str
    d_min: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("product", "threshold"):
            raise ValidationError(f"unknown exposure mapping kind {self.kind!r}")
        if self.kind == "threshold":
            if self.d_min is None or check_integer(self.d_min, "d_min") < 1:
                raise ValidationError("threshold mapping needs d_min >= 1")
            object.__setattr__(self, "d_min", int(self.d_min))
        elif self.d_min is not None:
            raise ValidationError("product mapping takes no d_min")

    @classmethod
    def product(cls) -> "ExposureMapping":
        return cls(kind="product")

    @classmethod
    def threshold(cls, d_min: int) -> "ExposureMapping":
        return cls(kind="threshold", d_min=d_min)


@dataclass(frozen=True)
class EffectiveTreatment:
    """Realized effective-treatment indicators and their total count."""

    indicator: np.ndarray  # (n,) int8
    count: int

    def __post_init__(self):
        # checked before the int8 cast, which would truncate or wrap
        indicator = read_array(self.indicator, "indicator")
        if indicator.ndim != 1 or not ((indicator == 0) | (indicator == 1)).all():
            raise ValidationError("indicator must be a vector of 0/1 values")
        count = check_integer(self.count, "count")
        if int(indicator.sum()) != count:
            raise ValidationError("count does not match the indicator sum")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "indicator", _frozen_array(indicator, np.int8))


def _knn_tree(coords: np.ndarray, size: int) -> tuple:
    """A median-split tree: a node holding at least ``2 * size`` points is
    halved at the median of its widest axis, so every leaf holds between
    ``size`` and ``2 * size - 1`` points (all of them when there are fewer
    than ``2 * size``, or no axis to split).

    Returns the leaves' sorted index arrays and, per node in breadth-first
    order (the root first), its bounding box ``low``, ``high`` and its two
    children, ``-1`` for a leaf; the leaves come in the order of their nodes.
    """
    nodes, leaves, low, high, child = [np.arange(coords.shape[0])], [], [], [], []
    for i, idx in enumerate(nodes):
        nodes[i] = None
        pts = coords[idx]
        low.append(pts.min(axis=0))
        high.append(pts.max(axis=0))
        if idx.size < 2 * size or coords.shape[1] == 0:
            leaves.append(np.sort(idx))
            child.append((-1, -1))
            continue
        half = idx.size // 2
        part = np.argpartition(pts[:, int(np.argmax(high[i] - low[i]))], half)
        child.append((len(nodes), len(nodes) + 1))
        nodes += [idx[part[:half]], idx[part[half:]]]
    return leaves, np.array(low), np.array(high), np.array(child, dtype=np.int64)


def _near_leaves(low: np.ndarray, high: np.ndarray, child: np.ndarray, limit: np.ndarray):
    """Yield, for each leaf a in order, the other leaves whose box distance
    to a's box is at most ``limit[a]``. The box distance is the length of
    the per-axis gaps between two boxes.

    The tree is descended from the root for a batch of leaves at once, and
    a node is dropped with everything under it when its box is farther. A
    batch holds as many leaves as keep its (leaf, node) pairs of one level,
    and the leaves it finds, within about ``_KNN_CHUNK`` entries.
    """
    is_leaf = child[:, 0] < 0
    leaf_node = np.flatnonzero(is_leaf)
    leaf_of = np.cumsum(is_leaf) - 1
    count = leaf_node.size
    step = max(1, _KNN_CHUNK // (count * max(low.shape[1], 1)))
    for lo in range(0, count, step):
        a = np.arange(lo, min(lo + step, count))
        b = np.zeros(a.size, dtype=np.int64)
        found_a, found_b = [], []
        while a.size:
            qa = leaf_node[a]
            gap = np.maximum(np.maximum(low[b] - high[qa], low[qa] - high[b]), 0.0)
            near = np.sqrt(np.einsum("ij,ij->i", gap, gap)) <= limit[a]
            a, b = a[near], b[near]
            done = is_leaf[b]
            found_a.append(a[done])
            found_b.append(leaf_of[b[done]])
            a, b = np.repeat(a[~done], 2), child[b[~done]].ravel()
        a, b = np.concatenate(found_a), np.concatenate(found_b)
        a, b = a[a != b], b[a != b]
        order = np.argsort(a, kind="stable")
        yield from np.split(b[order], np.searchsorted(a[order], np.arange(lo + 1, min(lo + step, count))))


def _knn_block(coords: np.ndarray, rows: np.ndarray, cols: np.ndarray, d: int) -> tuple:
    """Each query row's d nearest among the ascending candidate indices
    ``cols`` (which include the rows), and its d-th distance.

    The row itself is placed first; everything strictly below the d-th
    smallest distance is in, and the remaining places go to the lowest
    indices tied at that distance. Rows are scored in chunks whose difference
    block holds about ``_KNN_CHUNK`` entries.
    """
    members = np.empty((rows.size, d), dtype=np.int64)
    radius = np.empty(rows.size)
    own = np.searchsorted(cols, rows)
    row_coords, col_coords = coords[rows], coords[cols]
    step = max(1, _KNN_CHUNK // (cols.size * max(coords.shape[1], 1)))
    for lo in range(0, rows.size, step):
        hi = min(lo + step, rows.size)
        diff = row_coords[lo:hi, None, :] - col_coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dist[np.arange(hi - lo), own[lo:hi]] = -1.0
        kth = np.partition(dist, d - 1, axis=1)[:, d - 1 : d]
        chosen = dist < kth
        short = d - chosen.sum(axis=1, keepdims=True)
        tied = dist == kth
        chosen |= tied & (np.cumsum(tied, axis=1) <= short)
        members[lo:hi] = cols[np.nonzero(chosen)[1].reshape(hi - lo, d)]
        radius[lo:hi] = kth[:, 0]
    return members, radius


def build_knn_neighborhoods(pop_or_coords, d: int) -> NeighborhoodSet:
    """Each unit's set is itself plus its d-1 nearest units (Euclidean).

    Distance ties are broken by ascending unit index, so the result is
    deterministic across platforms. A coordinate may be at most
    ``L = sqrt(float max / (8 dim))`` in absolute value: a difference is then
    at most 2L, a squared distance at most 4 dim L^2, half the float range,
    and no distance overflows.

    The points are split at the median of the widest axis into leaf buckets
    of ``max(_KNN_LEAF, d)`` to twice that many points (Friedman, Bentley &
    Finkel 1977). A leaf's rows are first scored against the leaf itself;
    the largest d-th distance found, ``r``, bounds every row's true d-th
    distance. The rows are then scored against every leaf whose box distance
    (the length of the per-axis gaps between the two bounding boxes) is at
    most ``r`` times ``1 + 8 dim eps``, with the candidates in ascending
    index. Those leaves are found by descending the tree, which drops a node
    and all under it when the node's box is farther. The certificate:
    rounding is monotone, so a gap never exceeds the rounded coordinate
    difference of any two points in the boxes, and the allowance covers a
    different order of summing the squares. Every point left out is
    therefore strictly farther than each row's d-th distance, the d-th
    distance and the points tied at it are all among the candidates, and
    the members equal those of a search over all n points, bit for bit.

    Distances are the same ``sqrt(einsum)`` of coordinate differences as an
    all-pairs search. Each distance block holds about ``_KNN_CHUNK``
    differences (rows are scored in chunks when the candidates are many), so
    working memory stays within a few such blocks: no (n, n) array is built.
    On spread-out points a leaf has O(1) candidate leaves and the cost is
    about n log n; on points that are all (nearly) equal every leaf is a
    candidate of every other, and the cost is the all-pairs O(n^2) in time,
    still not in memory.
    """
    coords = _coordinates(getattr(pop_or_coords, "coords", pop_or_coords))
    if not np.isfinite(coords).all():
        raise ValidationError("coordinates must be finite")
    n, dim = coords.shape
    limit = np.sqrt(np.finfo(float).max / (8 * max(dim, 1)))
    largest = np.abs(coords).max(initial=0.0)
    if largest > limit:
        raise ValidationError(
            f"coordinates of {dim} dimensions must be at most {limit:.6g} in absolute value, got {largest:.6g}"
        )
    d = check_integer(d, "neighborhood size d")
    if not 1 <= d <= n:
        raise ValidationError(f"neighborhood size d must satisfy 1 <= d <= {n}, got {d}")
    leaves, low, high, child = _knn_tree(coords, max(_KNN_LEAF, d))
    members = np.empty((n, d), dtype=np.int64)
    limit = np.empty(len(leaves))
    for a, rows in enumerate(leaves):
        members[rows], radius = _knn_block(coords, rows, rows, d)
        limit[a] = radius.max() * (1.0 + 8.0 * max(dim, 1) * np.finfo(float).eps)
    for rows, near in zip(leaves, _near_leaves(low, high, child, limit)):
        if near.size:
            cols = np.sort(np.concatenate([rows] + [leaves[b] for b in near]))
            members[rows] = _knn_block(coords, rows, cols, d)[0]
    return NeighborhoodSet(members=members)


def _check_mapping(nbhd: NeighborhoodSet, mapping: ExposureMapping, rho=...) -> Optional[float]:
    """The one design check: ``nbhd`` and ``mapping`` are of their types, the
    mapping fits the sets, and ``rho`` (when passed) is a probability, returned as a float."""
    check_instance(nbhd, NeighborhoodSet, "neighborhoods")
    check_instance(mapping, ExposureMapping, "mapping")
    if mapping.kind == "threshold" and mapping.d_min > nbhd.k:
        raise ValidationError(
            f"threshold d_min={mapping.d_min} exceeds the neighborhood size {nbhd.k}"
        )
    return None if rho is ... else check_probability(rho, "treatment probability")


def _exposed_by_unit(xt: np.ndarray, nbhd: NeighborhoodSet, mapping: ExposureMapping) -> np.ndarray:
    """(n, s) int8 exposures of the unchecked (n, s) 0/1 assignments ``xt``,
    unit by unit: a unit's treated count adds the rows of its set's members,
    each a contiguous run of s entries when ``xt`` is C-ordered."""
    xt = xt.astype(np.min_scalar_type(nbhd.k), copy=False)
    treated_in_set = xt[nbhd.members[:, 0]]
    for column in nbhd.members.T[1:]:
        treated_in_set += xt[column]
    if mapping.kind == "product":
        z = treated_in_set == nbhd.k
    else:
        z = (xt == 1) & (treated_in_set >= mapping.d_min)
    return z.view(np.int8)


def evaluate_exposure_many(x, nbhd: NeighborhoodSet, mapping: ExposureMapping) -> np.ndarray:
    """Vectorized exposure evaluation for an (s, n) batch of assignments,
    returned as a C-ordered (s, n) int8 array."""
    _check_mapping(nbhd, mapping)
    x = read_array(x, "assignment batch")
    if x.ndim != 2 or x.shape[1] != nbhd.n:
        raise ValidationError(f"assignment batch must have shape (s, {nbhd.n})")
    if not (((x == 0) | (x == 1)).all()):
        raise ValidationError("treatment assignments must be 0/1")
    return np.ascontiguousarray(_exposed_by_unit(np.ascontiguousarray(x.T), nbhd, mapping).T)


def evaluate_exposure(pop_or_x, nbhd: NeighborhoodSet, mapping: ExposureMapping) -> EffectiveTreatment:
    """Apply the exposure mapping to one realized assignment."""
    x = read_array(getattr(pop_or_x, "treatment", pop_or_x), "treatment assignment")
    if x.ndim != 1:
        raise ValidationError("treatment assignment must be a vector")
    z = evaluate_exposure_many(x[None, :], nbhd, mapping)[0]
    return EffectiveTreatment(indicator=z, count=int(z.sum()))
