"""Experiment representation: units, neighborhoods, and exposure mappings.

A :class:`Population` holds the observed experiment (coordinates, binary
treatments, nonnegative outcomes). Neighborhoods are index sets, one per
unit, always containing the unit itself and all of one size, so that every
unit has the same probability of effective treatment. An exposure mapping
collapses the treatment pattern on a neighborhood into a binary indicator of
effective treatment.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError, check_integer

# Entries of the (rows, n, dim) difference block built per k-NN chunk.
_KNN_CHUNK = 1 << 20


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValidationError("coordinates must form an (n, dim) array")
        n = coords.shape[0]
        if n < 2:
            raise ValidationError(f"a population needs at least 2 units, got {n}")
        ids = tuple(self.ids)
        if len(ids) != n:
            raise ValidationError(f"{len(ids)} ids for {n} coordinate rows")
        treatment = np.asarray(self.treatment)
        outcome = np.asarray(self.outcome, dtype=float)
        enrollment = None if self.enrollment is None else np.asarray(self.enrollment, dtype=float)
        for name, values in (("treatment", treatment), ("outcome", outcome), ("enrollment", enrollment)):
            if values is not None and values.shape != (n,):
                raise ValidationError(f"{name} must be a length-{n} vector, got shape {values.shape}")
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"treatment probability must lie in (0, 1), got {self.rho}")
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
            if unit_id in seen:
                raise ValidationError(f"unit {unit_id!r}: unit ids must be unique", unit=i)
            seen.add(unit_id)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", _frozen_array(coords, float))
        object.__setattr__(self, "treatment", _frozen_array(treatment, np.int8))
        object.__setattr__(self, "outcome", _frozen_array(outcome, float))

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class NeighborhoodSet:
    """One index set per unit; unit i always belongs to its own set.

    All sets have the same size. This is enforced because the inference
    downstream requires every unit to have the same probability of effective
    treatment, which in practice means equally sized neighborhoods.
    """

    members: np.ndarray  # (n, k) int64, each row sorted ascending

    def __post_init__(self):
        members = np.asarray(self.members, dtype=np.int64)
        if members.ndim != 2:
            raise ValidationError("neighborhood members must form an (n, k) index array")
        n, k = members.shape
        if k < 1:
            raise ValidationError("neighborhoods must be nonempty")
        if members.min(initial=0) < 0 or members.max(initial=0) >= n:
            raise ValidationError("neighborhood indices out of range")
        members = np.sort(members, axis=1)
        if (members[:, 1:] == members[:, :-1]).any():
            raise ValidationError("neighborhood sets must not contain repeated indices")
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
        rows = []
        for i, s in enumerate(sets):
            row = sorted(check_integer(j, f"neighborhood {i} index") for j in s)
            for a, b in zip(row, row[1:]):
                if a == b:
                    raise ValidationError(f"neighborhood {i} repeats index {a}")
            rows.append(row)
        sizes = {len(r) for r in rows}
        if len(sizes) != 1:
            raise ValidationError(
                f"all neighborhoods must have the same size so that exposure "
                f"probabilities are uniform; got sizes {sorted(sizes)}"
            )
        try:
            members = np.array(rows, dtype=np.int64)
        except OverflowError:
            raise ValidationError("neighborhood indices out of range") from None
        return cls(members=members)

    def as_sets(self) -> list:
        return [frozenset(int(j) for j in row) for row in self.members]

    def incidence(self) -> np.ndarray:
        """Dense (n, n) 0/1 matrix M with M[i, u] = 1 iff u is in set i."""
        n = self.n
        m = np.zeros((n, n), dtype=float)
        m[np.repeat(np.arange(n), self.k), self.members.ravel()] = 1.0
        return m


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
        indicator = np.asarray(self.indicator, dtype=np.int8)
        if indicator.ndim != 1 or not ((indicator == 0) | (indicator == 1)).all():
            raise ValidationError("indicator must be a vector of 0/1 values")
        if int(indicator.sum()) != self.count:
            raise ValidationError("count does not match the indicator sum")
        object.__setattr__(self, "indicator", _frozen_array(indicator, np.int8))


def build_knn_neighborhoods(pop_or_coords, d: int) -> NeighborhoodSet:
    """Each unit's set is itself plus its d-1 nearest units (Euclidean).

    Distance ties are broken by ascending unit index, so the result is
    deterministic across platforms. Distances are computed in row chunks
    whose difference block holds about ``_KNN_CHUNK`` entries, so no (n, n)
    array is ever built.
    """
    coords = np.asarray(getattr(pop_or_coords, "coords", pop_or_coords), dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2:
        raise ValidationError("coordinates must form an (n, dim) array")
    if not np.isfinite(coords).all():
        raise ValidationError("coordinates must be finite")
    n = coords.shape[0]
    d = check_integer(d, "neighborhood size d")
    if not 1 <= d <= n:
        raise ValidationError(f"neighborhood size d must satisfy 1 <= d <= {n}, got {d}")
    members = np.empty((n, d), dtype=np.int64)
    step = max(1, _KNN_CHUNK // (n * max(coords.shape[1], 1)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dist[np.arange(hi - lo), np.arange(lo, hi)] = -1.0  # the unit itself comes first
        # Everything strictly below the d-th smallest distance is in; the
        # remaining places go to the lowest indices tied at that distance.
        kth = np.partition(dist, d - 1, axis=1)[:, d - 1 : d]
        chosen = dist < kth
        short = d - chosen.sum(axis=1, keepdims=True)
        tied = dist == kth
        chosen |= tied & (np.cumsum(tied, axis=1) <= short)
        members[lo:hi] = np.nonzero(chosen)[1].reshape(hi - lo, d)
    return NeighborhoodSet(members=members)


def _check_mapping(nbhd: NeighborhoodSet, mapping: ExposureMapping) -> None:
    if mapping.kind == "threshold" and mapping.d_min > nbhd.k:
        raise ValidationError(
            f"threshold d_min={mapping.d_min} exceeds the neighborhood size {nbhd.k}"
        )


def evaluate_exposure_many(x, nbhd: NeighborhoodSet, mapping: ExposureMapping) -> np.ndarray:
    """Vectorized exposure evaluation for an (s, n) batch of assignments."""
    _check_mapping(nbhd, mapping)
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != nbhd.n:
        raise ValidationError(f"assignment batch must have shape (s, {nbhd.n})")
    if not (((x == 0) | (x == 1)).all()):
        raise ValidationError("treatment assignments must be 0/1")
    x = x.astype(np.min_scalar_type(nbhd.k), copy=False)
    treated_in_set = x[:, nbhd.members[:, 0]]
    for column in nbhd.members.T[1:]:
        treated_in_set += x[:, column]
    if mapping.kind == "product":
        z = treated_in_set == nbhd.k
    else:
        z = (x == 1) & (treated_in_set >= mapping.d_min)
    return z.astype(np.int8)


def evaluate_exposure(pop_or_x, nbhd: NeighborhoodSet, mapping: ExposureMapping) -> EffectiveTreatment:
    """Apply the exposure mapping to one realized assignment."""
    x = np.asarray(getattr(pop_or_x, "treatment", pop_or_x))
    if x.ndim != 1:
        raise ValidationError("treatment assignment must be a vector")
    z = evaluate_exposure_many(x[None, :], nbhd, mapping)[0]
    return EffectiveTreatment(indicator=z, count=int(z.sum()))
