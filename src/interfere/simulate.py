"""Monte Carlo harness: generative scenarios, coverage, and condition tables.

Four scenarios probe the upper-bound machinery on a synthetic spatial layout:

1. ``no_effect_no_clustering`` -- treatment does nothing (Y = theta); the
   counterfactual counts are drawn without replacement from a synthetic count
   pool (see below).
2. ``no_effect_clustering`` -- treatment does nothing, but counterfactuals are
   bimodal by geography: 3 in the southern half of the map, 15 in the
   northern half (split at the median of the last coordinate).
3. ``exposure_model`` -- outcomes follow a true exposure rule: units that are
   treated and have at least 2 of their 5 nearest neighbors treated keep
   Y = theta; every other unit suffers a positive spillover drawn uniformly
   from (0, spillover_max].
4. ``adversarial`` -- counterfactuals are a permutation of a fixed pool (2
   zeros, 44 tens, 3 twenties at 49 units); treated zero-counterfactual units
   report outcome 10, everyone else reports theta. This cancels observable
   spread exactly where the variance matters.

The original study data behind scenarios 1 and 3 is not distributed, so the
count pool is synthetic: one seeded draw of n values from a negative binomial
with mean ``count_mean`` and dispersion ``count_dispersion`` (variance
mean + mean^2/dispersion), fixed per scenario and permuted across replicates.
Scenario 4 and everything with singleton neighborhoods is pool-exact.

Monotonicity (theta <= Y elementwise) holds by construction in all scenarios.
Replicate r derives its generator from (seed, r), so tables are bit-stable
for a given seed; replicates with no effectively treated unit or a zero
conservative variance are tallied in a degenerate column, never dropped.

Replicates are drawn one at a time from their (seed, r) generators into
(replicates, n) arrays, and the bounds of all of them are computed in one
array pass per design (``monotone._batch_bounds``). A replicate within
rounding distance of a decision boundary (zero variance, the validity
condition, or coverage) is re-decided by the scalar bound
``monotone._bound_from_values``, so the tables are identical to those of the
per-replicate computation.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .design import (
    EffectiveTreatment,
    ExposureMapping,
    NeighborhoodSet,
    Population,
    build_knn_neighborhoods,
    evaluate_exposure_many,
)
from .errors import ValidationError, check_integer, check_seed
from .exposure import exact_profile
from .monotone import _batch_bounds, _bound_from_values, _check_alpha

SCENARIO_KINDS = (
    "no_effect_no_clustering",
    "no_effect_clustering",
    "exposure_model",
    "adversarial",
)

LAYOUT_KINDS = ("uniform_square", "two_cluster", "line")

_ADVERSARIAL_BASE = ((0.0, 2), (10.0, 44), (20.0, 3))  # value, count at n = 49

# Entries of the (replicates, n) arrays drawn per batch: 1 MB each, while the
# benchmark's tables (49 x 1000 and 500 x 200) each take one batch.
_BATCH = 1 << 17


def synthetic_layout(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Deterministic synthetic coordinates standing in for a real unit map."""
    n = check_integer(n, "layout size n")
    if n < 2:
        raise ValidationError(f"a layout needs at least 2 points, got {n}")
    seed = check_seed(seed, "layout seed")
    if kind == "line":
        return np.arange(n, dtype=float)[:, None]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "uniform_square":
        return rng.random((n, 2))
    if kind == "two_cluster":
        south = n // 2
        centers = np.repeat([[0.0, 0.0], [0.0, 10.0]], [south, n - south], axis=0)
        return centers + rng.normal(scale=1.0, size=(n, 2))
    raise ValidationError(f"unknown layout kind {kind!r}; choose from {LAYOUT_KINDS}")


@dataclass(frozen=True)
class Scenario:
    """A generative model for replicated experiments on a fixed layout.

    ``nearest`` holds the layout's 6-NN neighborhoods (each unit and its 5
    nearest) that the ``exposure_model`` outcome rule uses, and
    ``count_pool`` the fixed counts that the ``no_effect_no_clustering`` and
    ``exposure_model`` replicates permute; both are built once.
    """

    kind: str
    layout: np.ndarray
    rho: float = 0.5
    seed: int = 0
    count_mean: float = 10.0
    count_dispersion: float = 3.0
    spillover_max: float = 10.0
    nearest: Optional[NeighborhoodSet] = field(default=None, init=False, repr=False, compare=False)
    count_pool: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}; choose from {SCENARIO_KINDS}")
        layout = np.asarray(self.layout, dtype=float)
        if layout.ndim == 1:
            layout = layout[:, None]
        if layout.ndim != 2 or layout.shape[0] < 2:
            raise ValidationError("layout must be an (n, dim) array with n >= 2")
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"treatment probability must lie in (0, 1), got {self.rho}")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not (self.count_mean > 0 and self.count_dispersion > 0):
            raise ValidationError("count_mean and count_dispersion must be positive")
        layout = layout.copy()
        layout.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        if self.kind == "exposure_model":
            if layout.shape[0] < 6:
                raise ValidationError("the exposure_model scenario needs at least 6 units")
            if not self.spillover_max > 0:
                raise ValidationError("spillover_max must be positive")
            object.__setattr__(self, "nearest", build_knn_neighborhoods(layout, 6))
        if self.kind in ("no_effect_no_clustering", "exposure_model"):
            pool = _count_pool(self)
            pool.setflags(write=False)
            object.__setattr__(self, "count_pool", pool)

    @property
    def n(self) -> int:
        return self.layout.shape[0]


def _pool_rng(scenario: Scenario) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(0,)))


def _replicate_rng(scenario: Scenario, replicate_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(scenario.seed, spawn_key=(1, int(replicate_index)))
    )


def _count_pool(scenario: Scenario) -> np.ndarray:
    """Fixed synthetic count population, one seeded draw per scenario."""
    rng = _pool_rng(scenario)
    k = scenario.count_dispersion
    p = k / (k + scenario.count_mean)
    return rng.negative_binomial(k, p, size=scenario.n).astype(float)


def _adversarial_pool(n: int) -> np.ndarray:
    base_total = sum(c for _, c in _ADVERSARIAL_BASE)
    if n == base_total:
        counts = [c for _, c in _ADVERSARIAL_BASE]
    else:
        counts = [max(1, round(c * n / base_total)) for _, c in _ADVERSARIAL_BASE]
        counts[1] = n - counts[0] - counts[2]
        if counts[1] < 0:
            raise ValidationError(f"adversarial scenario cannot be scaled to n = {n}")
        warnings.warn(
            f"adversarial scenario is defined at 49 units; scaling pool counts "
            f"proportionally to n = {n}",
            UserWarning,
            stacklevel=4,
        )
    return np.repeat([v for v, _ in _ADVERSARIAL_BASE], counts).astype(float)


def _southern_half(layout: np.ndarray) -> np.ndarray:
    latitude = layout[:, -1]
    return latitude <= np.median(latitude)


def _draw(scenario: Scenario, replicates) -> tuple:
    """(treatment, outcome, theta) of the given replicates as (R, n) arrays.

    Replicate r draws from its own generator (seed, r), so a replicate's
    draws do not depend on which others are drawn with it.
    """
    n, kind = scenario.n, scenario.kind
    x = np.empty((len(replicates), n), dtype=np.int8)
    theta = np.empty((len(replicates), n))
    spill = np.empty_like(theta) if kind == "exposure_model" else None
    pool = _adversarial_pool(n) if kind == "adversarial" else scenario.count_pool
    for row, r in enumerate(replicates):
        rng = _replicate_rng(scenario, r)
        x[row] = rng.random(n) < scenario.rho
        if kind != "no_effect_clustering":
            theta[row] = rng.permutation(pool)
        if kind == "exposure_model":
            spill[row] = scenario.spillover_max * (1.0 - rng.random(n))  # uniform on (0, max]
    if kind == "no_effect_clustering":
        theta[:] = np.where(_southern_half(scenario.layout), 3.0, 15.0)
    if kind == "exposure_model":
        # treated, with at least 2 of the 5 nearest treated
        qualified = evaluate_exposure_many(x, scenario.nearest, ExposureMapping.threshold(3)) > 0
        y = np.where(qualified, theta, theta + spill)
    elif kind == "adversarial":
        y = np.where((x > 0) & (theta == 0), 10.0, theta)
    else:
        y = theta.copy()
    return x, y, theta


def generate_scenario(scenario: Scenario, replicate_index: int):
    """Draw one replicate: returns (population, theta).

    ``theta`` is the counterfactual outcome vector under full treatment,
    exposed for coverage accounting; real analyses never see it.
    """
    x, y, theta = _draw(scenario, [replicate_index])
    pop = Population(
        ids=tuple(range(scenario.n)),
        coords=scenario.layout,
        treatment=x[0],
        outcome=y[0],
        rho=scenario.rho,
    )
    return pop, theta[0]


@dataclass(frozen=True)
class CoverageRow:
    """Aggregated results for one (d_min, d) design."""

    d_min: int
    d: int
    replicates: int
    n_valid: int                # replicates with at least one effectively treated unit
    n_skipped: int              # replicates with no effectively treated unit
    n_degenerate: int           # replicates with zero conservative variance
    n_condition_met: int
    condition_met_fraction: float
    coverage_given_condition: Optional[float]
    coverage_ignoring_condition: float
    p: float
    min_joint: float
    overlap_degree: int


@dataclass(frozen=True)
class CoverageTable:
    """Per-design coverage and condition-met summaries for one scenario."""

    scenario: str
    n_units: int
    rho: float
    alpha: float
    replicates: int
    seed: int
    estimand: float             # mean counterfactual under full treatment
    rows: tuple

    _CSV_FIELDS = tuple(f.name for f in fields(CoverageRow))

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self._CSV_FIELDS)
        for row in self.rows:
            record = []
            for field in self._CSV_FIELDS:
                value = getattr(row, field)
                if value is None:
                    record.append("")
                elif isinstance(value, float):
                    record.append(repr(value))
                else:
                    record.append(value)
            writer.writerow(record)
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = [
            f"scenario={self.scenario} n={self.n_units} rho={self.rho} "
            f"alpha={self.alpha} replicates={self.replicates} seed={self.seed} "
            f"estimand={self.estimand:.6g}",
            f"{'d_min':>5} {'d':>3} {'cond_met':>9} {'cov|cond':>9} "
            f"{'cov_all':>8} {'degen':>6} {'skip':>5} {'p':>8} {'overlap':>7}",
        ]
        for row in self.rows:
            cov_cond = "-" if row.coverage_given_condition is None else f"{row.coverage_given_condition:.3f}"
            lines.append(
                f"{row.d_min:>5} {row.d:>3} {row.condition_met_fraction:>9.3f} "
                f"{cov_cond:>9} {row.coverage_ignoring_condition:>8.3f} "
                f"{row.n_degenerate:>6} {row.n_skipped:>5} {row.p:>8.4f} "
                f"{row.overlap_degree:>7}"
            )
        return "\n".join(lines) + "\n"


def _replicate_outcomes(y, z, estimands, profile, alpha) -> tuple:
    """Per replicate of one design: (skipped, degenerate, condition met,
    covered, rescored) boolean arrays.

    Bounds come from one array pass (``_batch_bounds``). A replicate whose
    variance, condition or coverage lies within rounding distance of its
    decision boundary is rescored by the scalar ``_bound_from_values``, so
    every decision equals the per-replicate computation's.
    """
    count, _, _, condition, upper, clear, upper_error = _batch_bounds(y, z, profile, alpha)
    skipped = count == 0
    covered = estimands <= upper
    rescored = ~skipped & ~(clear & (np.abs(estimands - upper) > upper_error))
    degenerate = np.zeros_like(skipped)
    for r in np.flatnonzero(rescored):
        exposure = EffectiveTreatment(indicator=z[r], count=int(count[r]))
        _, variance, condition[r], upper_r = _bound_from_values(y[r], exposure, profile, alpha, strict=False)
        degenerate[r] = variance == 0.0
        covered[r] = estimands[r] <= upper_r
    return skipped, degenerate, condition & ~skipped, covered & ~skipped, rescored


def run_coverage_experiment(
    scenario: Scenario,
    configs: Sequence[tuple],
    alpha: float,
    replicates: int,
) -> CoverageTable:
    """Replicate the scenario and tabulate coverage per (d_min, d) design.

    Coverage is reported both over condition-met replicates (the guarantee's
    domain) and over all valid replicates, since the gap between the two is
    exactly what ignoring the condition costs. Exposure profiles depend only
    on the design, so they are computed once per configuration. Replicates
    are drawn in batches of ``_BATCH`` entries and scored in one array pass
    per design (see ``_replicate_outcomes``).
    """
    replicates = check_integer(replicates, "replicates")
    if replicates < 1:
        raise ValidationError("replicates must be at least 1")
    _check_alpha(alpha)
    configs = [(check_integer(d_min, "d_min"), check_integer(d, "d")) for d_min, d in configs]
    if not configs:
        raise ValidationError("at least one (d_min, d) configuration is required")
    prepared = []
    for d_min, d in configs:
        nbhd = build_knn_neighborhoods(scenario.layout, d)
        mapping = ExposureMapping.threshold(d_min)
        prepared.append((nbhd, mapping, exact_profile(nbhd, mapping, scenario.rho)))
    counters = [dict(skipped=0, degenerate=0, met=0, covered_met=0, covered_all=0) for _ in configs]
    step = max(1, _BATCH // scenario.n)
    for lo in range(0, replicates, step):
        x, y, theta = _draw(scenario, range(lo, min(lo + step, replicates)))
        if not (np.isfinite(y) & (y >= 0)).all():  # treatments are checked by evaluate_exposure_many
            raise ValidationError("simulated outcomes must be finite and nonnegative")
        estimands = theta.mean(axis=1)
        for (nbhd, mapping, profile), tally in zip(prepared, counters):
            z = evaluate_exposure_many(x, nbhd, mapping)
            skipped, degenerate, met, covered, _ = _replicate_outcomes(y, z, estimands, profile, alpha)
            masks = (skipped, degenerate, met, met & covered, covered)
            for key, mask in zip(tally, masks):
                tally[key] += int(np.count_nonzero(mask))
    estimand = float(estimands[-1])

    rows = []
    for (d_min, d), (nbhd, mapping, profile), tally in zip(configs, prepared, counters):
        n_valid = replicates - tally["skipped"]
        met = tally["met"]
        rows.append(
            CoverageRow(
                d_min=d_min,
                d=d,
                replicates=replicates,
                n_valid=n_valid,
                n_skipped=tally["skipped"],
                n_degenerate=tally["degenerate"],
                n_condition_met=met,
                condition_met_fraction=met / n_valid if n_valid else math.nan,
                coverage_given_condition=tally["covered_met"] / met if met else None,
                coverage_ignoring_condition=tally["covered_all"] / n_valid if n_valid else math.nan,
                p=profile.p,
                min_joint=profile.min_joint,
                overlap_degree=profile.overlap_degree,
            )
        )
    return CoverageTable(
        scenario=scenario.kind,
        n_units=scenario.n,
        rho=scenario.rho,
        alpha=alpha,
        replicates=replicates,
        seed=scenario.seed,
        estimand=estimand,
        rows=tuple(rows),
    )
