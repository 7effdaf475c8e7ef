"""The sparse exposure profile against the dense computation it replaced.

The reference functions below are the dense path: joint probabilities filled
pair by pair from Python sets, centering by two projection matmuls, and the
variance pair term on ``np.ix_`` blocks of the dense matrices.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import interfere as itf
from interfere.cli import main
from interfere.exposure import _binom_pmf_table, _binom_sf_table, _mc_shard_counts, _overlapping_pairs, _sf
from interfere.monotone import conservative_variance, variance_estimate

from conftest import random_design


def reference_pairs(nbhd):
    owners = {}
    for i, row in enumerate(nbhd.members):
        for u in row:
            owners.setdefault(int(u), []).append(i)
    pairs = set()
    for group in owners.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                pairs.add((group[a], group[b]))
    return pairs


def reference_threshold_joint(set_i, set_j, i, j, d_min, rho, pmf, sf):
    base_i = 1 + (1 if j in set_i else 0)
    base_j = 1 + (1 if i in set_j else 0)
    pair = {i, j}
    shared = (set_i & set_j) - pair
    only_i = set_i - set_j - pair
    only_j = set_j - set_i - pair
    a, b, c = len(only_i), len(only_j), len(shared)
    total = 0.0
    pmf_c = pmf[c]
    for m in range(c + 1):
        total += pmf_c[m] * _sf(sf, a, d_min - base_i - m) * _sf(sf, b, d_min - base_j - m)
    return rho * rho * total


def reference_joint(nbhd, mapping, rho):
    p = itf.exact_marginal(nbhd, mapping, rho)
    n = nbhd.n
    joint = np.full((n, n), p * p)
    np.fill_diagonal(joint, p)
    sets = nbhd.as_sets()
    pmf = _binom_pmf_table(nbhd.k, rho)
    sf = _binom_sf_table(pmf)
    for i, j in reference_pairs(nbhd):
        if mapping.kind == "product":
            value = rho ** len(sets[i] | sets[j])
        else:
            value = reference_threshold_joint(sets[i], sets[j], i, j, mapping.d_min, rho, pmf, sf)
        joint[i, j] = joint[j, i] = value
    return joint, p


def reference_center(joint, p):
    n = joint.shape[0]
    excess = joint - p * (1.0 - p) * np.eye(n) - p * p * np.ones((n, n))
    proj = np.eye(n) - np.ones((n, n)) / n
    return excess, proj @ excess @ proj


def reference_variance(values, exposure, joint, p, clip):
    n = joint.shape[0]
    idx = np.flatnonzero(exposure.indicator)
    _, centered = reference_center(joint, p)
    block = centered[np.ix_(idx, idx)]
    if clip:
        block = np.maximum(block, 0.0)
    v = np.asarray(values, dtype=float)[idx]
    pair = float(v @ (block / joint[np.ix_(idx, idx)]) @ v)
    lead = n * p * (1.0 - p) * float(((v - v.mean()) ** 2).mean())
    return lead + pair


def reference_rounding(values, exposure, joint, p):
    """Bound on the rounding of ``reference_variance``: 4 n eps times the summed
    magnitude of its terms, the centered entries taken as |P| |excess| |P|.

    A variance that is exactly 0 can come out of the projection products as
    a residue of order eps, so the clipped check cannot be relative alone.
    """
    n = joint.shape[0]
    idx = np.flatnonzero(exposure.indicator)
    excess, _ = reference_center(joint, p)
    proj = np.abs(np.eye(n) - np.ones((n, n)) / n)
    block = (proj @ np.abs(excess) @ proj)[np.ix_(idx, idx)]
    v = np.abs(np.asarray(values, dtype=float)[idx])
    lead = n * p * (1.0 - p) * float(((v + v.mean()) ** 2).mean())
    return 4 * n * np.finfo(float).eps * (lead + float(v @ (block / joint[np.ix_(idx, idx)]) @ v))


def check_against_reference(nbhd, mapping, rho, gen, profile=None, x=None):
    joint, p = reference_joint(nbhd, mapping, rho)
    if profile is None:
        profile = itf.exact_profile(nbhd, mapping, rho)
        assert np.array_equal(profile.joint, joint)
    else:
        joint, p = profile.joint, profile.p
    excess, centered = reference_center(joint, p)
    assert np.abs(itf.center_excess(profile.joint, profile.p)[0] - excess).max() <= 1e-15
    assert np.abs(itf.center_excess(profile.joint, profile.p)[1] - centered).max() <= 1e-15
    if x is None:
        x = (gen.random(nbhd.n) < rho).astype(np.int8)
    exposure = itf.evaluate_exposure(x, nbhd, mapping)
    if exposure.count == 0:
        return profile, exposure, None, None
    values = gen.gamma(2.0, 5.0, size=nbhd.n)
    got = conservative_variance(values, exposure, profile)
    want = reference_variance(values, exposure, joint, p, clip=True)
    assert got >= want * (1 - 1e-12) - reference_rounding(values, exposure, joint, p)
    want = reference_variance(values, exposure, joint, p, clip=False)
    assert variance_estimate(values, exposure, profile) == pytest.approx(want, rel=1e-12, abs=1e-12)
    return profile, exposure, values, got


class TestExactProfileMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=201)  # a variance of exactly 0, which the reference rounds to 1.1e-16
    def test_random_small_designs(self, seed):
        gen = np.random.default_rng(seed)
        nbhd, mapping, rho = random_design(gen, max_units=14)
        check_against_reference(nbhd, mapping, rho, gen)

    @pytest.mark.parametrize("kind", ["product", "threshold"])
    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    def test_knn_designs_on_a_square(self, kind, d):
        gen = np.random.default_rng(d)
        coords = gen.random((150, 2))
        nbhd = itf.build_knn_neighborhoods(coords, d)
        for d_min in range(1, d + 1) if kind == "threshold" else [None]:
            mapping = itf.ExposureMapping.product() if d_min is None else itf.ExposureMapping.threshold(d_min)
            for rho in (0.3, 0.5):
                check_against_reference(nbhd, mapping, rho, gen)

    def test_off_pattern_tail_is_positive_and_kept(self):
        # Threshold d_min=2, d=3: some pairs whose neighborhoods do not meet
        # still have positive centered entries (both units have small excess
        # row sums), so dropping the off-pattern tail would lower the
        # conservative variance. Every unit is treated, so all are exposed.
        gen = np.random.default_rng(0)
        nbhd = itf.build_knn_neighborhoods(gen.random((300, 2)), 3)
        mapping = itf.ExposureMapping.threshold(2)
        x = np.ones(300, dtype=np.int8)
        profile, exposure, values, got = check_against_reference(nbhd, mapping, 0.5, gen, x=x)
        _, centered = reference_center(profile.joint, profile.p)
        off = np.ones((300, 300), dtype=bool)
        off[profile.rows, profile.cols] = off[profile.cols, profile.rows] = False
        np.fill_diagonal(off, False)
        tail = np.where(off, np.maximum(centered, 0.0), 0.0) / profile.p**2
        assert np.count_nonzero(tail) > 0
        assert values @ tail @ values > 1e-9 * got

    def test_pattern_is_the_overlapping_pairs(self, rng):
        for _ in range(10):
            nbhd, mapping, rho = random_design(rng)
            profile = itf.exact_profile(nbhd, mapping, rho)
            assert set(zip(profile.rows.tolist(), profile.cols.tolist())) == reference_pairs(nbhd)
            sets = nbhd.as_sets()
            for i, j, shared in _overlapping_pairs(nbhd).tolist():
                assert shared == len(sets[i] & sets[j])


class TestEstimatedProfilesMatchDense:
    def test_monte_carlo(self, rng):
        nbhd = itf.build_knn_neighborhoods(rng.random((40, 2)), 4)
        mapping = itf.ExposureMapping.threshold(2)
        profile = itf.monte_carlo_profile(nbhd, mapping, 0.5, 3000, seed=11)
        joint = _mc_shard_counts(nbhd, mapping, 0.5, 11, 0, 3000).astype(np.float64) / 3000
        assert np.array_equal(profile.joint, joint)
        assert profile.rows.size == 40 * 39 // 2
        check_against_reference(nbhd, mapping, 0.5, rng, profile=profile)

    def test_enumeration(self, rng):
        nbhd = itf.build_knn_neighborhoods(rng.random((10, 2)), 3)
        for mapping in (itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)):
            profile = itf.enumerated_profile(nbhd, mapping, 0.4)
            check_against_reference(nbhd, mapping, 0.4, rng, profile=profile)


def test_center_excess_matches_projection_matmuls(rng):
    raw = rng.random((30, 30))
    joint = (raw + raw.T) / 2
    excess, centered = itf.center_excess(joint, 0.3)
    ref_excess, ref_centered = reference_center(joint, 0.3)
    assert np.array_equal(excess, ref_excess)
    assert np.abs(centered - ref_centered).max() <= 1e-15


def test_estimate_path_memory_is_linear_in_n():
    # One dense (n, n) float matrix at n = 20 000 would be 3.2 GB.
    n, d = 20_000, 6
    nbhd = itf.NeighborhoodSet(members=(np.arange(n)[:, None] + np.arange(d)) % n)
    mapping = itf.ExposureMapping.threshold(3)
    gen = np.random.default_rng(3)
    x = (gen.random(n) < 0.5).astype(np.int8)
    values = gen.gamma(2.0, 5.0, size=n)
    tracemalloc.start()
    try:
        profile = itf.exact_profile(nbhd, mapping, 0.5)
        exposure = itf.evaluate_exposure(x, nbhd, mapping)
        variance = conservative_variance(values, exposure, profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert variance > 0
    assert profile.rows.size == n * (d - 1)
    assert peak < 64 * 2**20


def test_exposure_split_contrast_memory_is_linear_in_n():
    # The top centered eigenvalue runs on the sparse profile; one dense
    # (n, n) float matrix at n = 20 000 would be 3.2 GB.
    n, d = 20_000, 6
    nbhd = itf.NeighborhoodSet(members=(np.arange(n)[:, None] + np.arange(d)) % n)
    mapping = itf.ExposureMapping.threshold(3)
    gen = np.random.default_rng(4)
    exposure = itf.evaluate_exposure((gen.random(n) < 0.5).astype(np.int8), nbhd, mapping)
    y = (gen.random(n) < 0.3).astype(int)
    profile = itf.exact_profile(nbhd, mapping, 0.5)
    tracemalloc.start()
    try:
        report = itf.exposure_attributable_contrast(y, exposure, profile, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.lambda_1 > 0
    assert peak < 64 * 2**20


def test_matrix_dump_memory_is_linear_in_n(tmp_path, capsys):
    # The dump writes the diagonal and the pattern pairs; one dense (n, n)
    # float matrix at n = 20 000 would be 3.2 GB.
    n, d = 20_000, 6
    gen = np.random.default_rng(5)
    coords = itf.synthetic_layout("uniform_square", n, seed=5)
    rows = [f"u{i},{x!r},{y!r},{t},{o!r}" for i, ((x, y), t, o) in enumerate(
        zip(coords.tolist(), (gen.random(n) < 0.5).astype(int).tolist(), gen.gamma(2.0, 5.0, size=n).tolist())
    )]
    data = tmp_path / "units.csv"
    data.write_text("id,x,y,treatment,outcome\n" + "\n".join(rows) + "\n")
    config = tmp_path / "config.json"
    design = {"rho": 0.5, "mapping": {"kind": "threshold", "d_min": 3}, "neighborhood": {"d": d}}
    config.write_text(json.dumps(design))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["estimate", "--config", str(config), "--data", str(data), "--out", str(out), "--dump-matrices"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code in (0, 4) and capsys.readouterr().out == ""
    profile = itf.exact_profile(itf.build_knn_neighborhoods(coords, d), itf.ExposureMapping.threshold(3), 0.5)
    with open(out / "pairs.csv") as handle:
        header, *rows = handle.read().splitlines()
    assert header == "i,j,joint,excess"
    assert len(rows) == profile.rows.size > 1 << 16  # more than one chunk of rows
    i, j, joint, _ = zip(*(row.split(",") for row in rows))
    assert np.array_equal(np.array(i, dtype=int), profile.rows) and np.array_equal(np.array(j, dtype=int), profile.cols)
    assert np.array_equal(np.array([float(v) for v in joint]), profile.values)
    assert peak < 64 * 2**20
