"""The leaf-bucket k-NN against the all-pairs search it replaced.

``all_pairs_knn`` is the previous implementation, copied: every row is scored
against all n points in row chunks, with the same distances, partition and
tie rule. The leaf buckets only choose which columns a row is scored
against, so the members must be identical, ties and duplicates included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import interfere as itf
from interfere import design

CHUNK = 1 << 20


def all_pairs_knn(coords, d):
    """The all-pairs k-NN (previous implementation, without its checks)."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    n = coords.shape[0]
    members = np.empty((n, d), dtype=np.int64)
    step = max(1, CHUNK // (n * max(coords.shape[1], 1)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dist[np.arange(hi - lo), np.arange(lo, hi)] = -1.0
        kth = np.partition(dist, d - 1, axis=1)[:, d - 1 : d]
        chosen = dist < kth
        short = d - chosen.sum(axis=1, keepdims=True)
        tied = dist == kth
        chosen |= tied & (np.cumsum(tied, axis=1) <= short)
        members[lo:hi] = np.nonzero(chosen)[1].reshape(hi - lo, d)
    return members


def layout(kind, n, seed):
    gen = np.random.default_rng(seed)
    if kind in ("line", "uniform_square", "two_cluster"):
        return itf.synthetic_layout(kind, n, seed=seed)
    if kind == "lattice":  # distinct points of a 50 x 50 grid: exact distance ties
        cells = gen.choice(2500, size=min(n, 2500), replace=False)
        return np.column_stack([cells // 50, cells % 50]).astype(float)
    if kind == "duplicates":  # a few repeated spots, and points rounded onto them
        return np.round(gen.random((n, 2)) * 3.0) / 3.0
    if kind == "lattice3":  # 3-D integer points: duplicates and ties
        return gen.integers(0, 4, size=(n, 3)).astype(float)
    if kind == "cube":
        return gen.random((n, 3))
    if kind == "equal":
        return np.full((n, 2), -0.5)
    raise ValueError(kind)


KINDS = ("line", "uniform_square", "two_cluster", "lattice", "duplicates", "lattice3", "cube", "equal")
SIZES = {
    "one": lambda n: 1,
    "two": lambda n: min(n, 2),
    "six": lambda n: min(n, 6),
    "half": lambda n: max(1, n // 2),
    "all": lambda n: n,
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.sampled_from(sorted(SIZES)),
    leaf=st.sampled_from([1, 3, design._KNN_LEAF]),
    chunk=st.sampled_from([1, 97, CHUNK]),
)
@example(kind="line", n=2, seed=0, size="one", leaf=design._KNN_LEAF, chunk=CHUNK)
@example(kind="two_cluster", n=2, seed=0, size="all", leaf=1, chunk=1)
@example(kind="lattice", n=400, seed=3, size="six", leaf=design._KNN_LEAF, chunk=CHUNK)
@example(kind="duplicates", n=400, seed=4, size="six", leaf=1, chunk=97)
@example(kind="lattice3", n=300, seed=5, size="all", leaf=design._KNN_LEAF, chunk=CHUNK)
@example(kind="equal", n=333, seed=0, size="two", leaf=3, chunk=97)
def test_members_match_the_all_pairs_search(kind, n, seed, size, leaf, chunk):
    # Small leaves force many buckets and candidate leaves at small n; a small
    # chunk forces the rows of one leaf to be scored in several blocks.
    coords = layout(kind, n, seed)
    d = SIZES[size](len(coords))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(design, "_KNN_LEAF", leaf)
        patch.setattr(design, "_KNN_CHUNK", chunk)
        got = itf.build_knn_neighborhoods(coords, d).members
    assert np.array_equal(got, all_pairs_knn(coords, d))


@pytest.mark.parametrize("kind", KINDS)
def test_scaling_by_a_power_of_two_keeps_the_members(kind):
    # Scaling by 2**400 is exact, and the largest coordinates stay within the
    # bound below which no squared distance overflows.
    coords = layout(kind, 300, 1)
    for d in (1, 6):
        assert np.array_equal(
            itf.build_knn_neighborhoods(coords * 2.0**400, d).members, itf.build_knn_neighborhoods(coords, d).members
        )


@pytest.mark.parametrize("n, d", [(2, 2), (40, 3)])
def test_points_without_coordinates_are_all_equal(n, d):
    coords = np.zeros((n, 0))
    assert np.array_equal(itf.build_knn_neighborhoods(coords, d).members, all_pairs_knn(coords, d))


@pytest.mark.parametrize(
    "coords",
    [
        itf.synthetic_layout("uniform_square", 3000, seed=11),
        itf.synthetic_layout("two_cluster", 3000, seed=12),
        np.random.default_rng(13).random((2000, 3)),
        np.random.default_rng(14).random(1500) * 1e6,
    ],
    ids=["uniform_square", "two_cluster", "cube", "line_1d"],
)
@pytest.mark.parametrize("d", [1, 6, 10])
def test_members_match_a_kd_tree_without_ties(coords, d):
    spatial = pytest.importorskip("scipy.spatial")
    points = coords.reshape(len(coords), -1)
    _, nearest = spatial.cKDTree(points).query(points, k=list(range(1, d + 1)))
    assert np.array_equal(itf.build_knn_neighborhoods(coords, d).members, np.sort(nearest, axis=1))


def test_all_equal_points_take_the_lowest_indices_within_the_memory_budget():
    # Every leaf is a candidate of every other, so each leaf's rows are scored
    # against all n points: the cost is the all-pairs one in time, but the
    # working memory stays within two (rows, candidates, dim) difference blocks
    # of _KNN_CHUNK float64 entries, far below the 128 MB of one (n, n) matrix.
    n, d = 4000, 6
    coords = np.full((n, 2), 7.25)
    tracemalloc.start()
    try:
        members = itf.build_knn_neighborhoods(coords, d).members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.tile(np.arange(d), (n, 1))
    expected[d:, -1] = np.arange(d, n)  # unit i >= d: itself and units 0 .. d-2
    assert np.array_equal(members, expected)
    assert peak <= 2 * 8 * design._KNN_CHUNK
