import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interfere as itf
from interfere import design
from interfere.design import evaluate_exposure_many
from interfere.errors import ValidationError

from conftest import incidence


def brute_force_knn(coords, d):
    """Independent nearest-neighbor search over all pairs (test oracle)."""
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    out = []
    for i in range(n):
        dist = [(np.linalg.norm(coords[i] - coords[j]), j) for j in range(n) if j != i]
        dist.sort()
        out.append(frozenset([i] + [j for _, j in dist[: d - 1]]))
    return out


def lexsort_knn(coords, d):
    """The all-pairs k-NN: one (n, n, dim) distance tensor and a lexsort per row."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    members = np.empty((n, d), dtype=np.int64)
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist[i]))
        members[i, 0] = i
        members[i, 1:] = order[order != i][: d - 1]
    return np.sort(members, axis=1)


class TestKnnNeighborhoods:
    def test_d1_is_self_only(self, rng):
        coords = rng.random((7, 2))
        nbhd = itf.build_knn_neighborhoods(coords, 1)
        assert nbhd.as_sets() == [frozenset([i]) for i in range(7)]

    def test_three_collinear_points(self):
        coords = np.array([[0.0], [1.0], [10.0]])
        nbhd = itf.build_knn_neighborhoods(coords, 2)
        assert nbhd.as_sets() == [frozenset({0, 1}), frozenset({0, 1}), frozenset({1, 2})]

    def test_five_point_line_center_unit(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 3)
        assert nbhd.as_sets()[2] == frozenset({1, 2, 3})

    def test_tie_break_prefers_lower_index(self):
        # unit 1 is equidistant from 0 and 2
        nbhd = itf.build_knn_neighborhoods(np.array([[0.0], [1.0], [2.0]]), 2)
        assert nbhd.as_sets()[1] == frozenset({0, 1})

    def test_matches_brute_force_on_random_layouts(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 15))
            coords = rng.random((n, int(rng.integers(1, 4))))
            d = int(rng.integers(1, n + 1))
            assert itf.build_knn_neighborhoods(coords, d).as_sets() == brute_force_knn(coords, d)

    def test_accepts_population(self, rng):
        coords = rng.random((5, 2))
        pop = itf.Population(
            ids=tuple(range(5)),
            coords=coords,
            treatment=np.zeros(5, dtype=int),
            outcome=np.ones(5),
            rho=0.5,
        )
        direct = itf.build_knn_neighborhoods(coords, 3)
        assert itf.build_knn_neighborhoods(pop, 3).as_sets() == direct.as_sets()

    def test_rejects_bad_sizes(self, rng):
        coords = rng.random((4, 2))
        with pytest.raises(ValidationError):
            itf.build_knn_neighborhoods(coords, 5)
        with pytest.raises(ValidationError):
            itf.build_knn_neighborhoods(coords, 0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_lexsort_reference(self, data):
        # Integer coordinates on a small grid force duplicate points and
        # exact distance ties; a tiny chunk size forces many row chunks.
        n = data.draw(st.integers(min_value=1, max_value=30))
        dim = data.draw(st.integers(min_value=1, max_value=3))
        span = data.draw(st.sampled_from([1, 2, 3, 1000]))
        point = st.lists(st.integers(0, span), min_size=dim, max_size=dim)
        coords = np.array(data.draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        if dim == 1 and data.draw(st.booleans()):
            coords = coords[:, 0]
        d = data.draw(st.sampled_from(sorted({1, n, max(1, n // 2), min(n, 3)})))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(design, "_KNN_CHUNK", data.draw(st.sampled_from([1, 17, 1 << 20])))
            got = itf.build_knn_neighborhoods(coords, d).members
        assert np.array_equal(got, lexsort_knn(coords, d))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_permutation_equivariance(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        gen = np.random.default_rng(seed)
        coords = gen.random((n, 2))
        dists = sorted(
            np.linalg.norm(coords[i] - coords[j]) for i in range(n) for j in range(i + 1, n)
        )
        # Equivariance only makes sense without distance ties (ties break by index).
        if any(b - a < 1e-9 for a, b in zip(dists, dists[1:])):
            return
        d = data.draw(st.integers(min_value=1, max_value=n))
        perm = gen.permutation(n)
        base = itf.build_knn_neighborhoods(coords, d).as_sets()
        permuted = itf.build_knn_neighborhoods(coords[perm], d).as_sets()
        inverse = np.argsort(perm)
        relabeled = [frozenset(int(inverse[j]) for j in base[perm[i]]) for i in range(n)]
        assert permuted == relabeled


class TestNeighborhoodSet:
    def test_uniform_size_enforced(self):
        with pytest.raises(ValidationError, match="same size"):
            itf.NeighborhoodSet.from_sets([{0, 1}, {1}, {2, 1}])

    def test_repeated_indices_rejected(self):
        with pytest.raises(ValidationError, match="^neighborhood 1 repeats index 1$"):
            itf.NeighborhoodSet(members=np.array([[0, 1], [1, 1], [2, 0]]))

    def test_self_membership_enforced(self):
        with pytest.raises(ValidationError, match="own neighborhood"):
            itf.NeighborhoodSet.from_sets([{1}, {1}])

    def test_asymmetric_sets_allowed(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 2}, {2, 0}])
        assert nbhd.k == 2

    def test_incidence_matches_sets(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 2}, {2, 1}])
        m = incidence(nbhd)
        for i, members in enumerate(nbhd.as_sets()):
            assert set(np.flatnonzero(m[i])) == set(members)


class TestExposureEvaluation:
    def test_product_all_treated(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 2}, {2, 0}])
        expo = itf.evaluate_exposure(np.ones(3, dtype=int), nbhd, itf.ExposureMapping.product())
        assert expo.count == 3
        assert expo.indicator.tolist() == [1, 1, 1]

    def test_product_hand_example(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 0}, {2, 1}])
        expo = itf.evaluate_exposure(np.array([1, 1, 0]), nbhd, itf.ExposureMapping.product())
        assert expo.indicator.tolist() == [1, 1, 0]
        assert expo.count == 2

    def test_threshold_1_1_equals_direct_treatment(self, rng):
        nbhd = itf.build_knn_neighborhoods(rng.random((9, 2)), 1)
        mapping = itf.ExposureMapping.threshold(1)
        for _ in range(10):
            x = (rng.random(9) < 0.5).astype(int)
            expo = itf.evaluate_exposure(x, nbhd, mapping)
            assert expo.indicator.tolist() == x.tolist()

    def test_threshold_counts_include_self(self):
        # unit 0 treated with one treated neighbor meets d_min=2
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1, 2}, {0, 1, 2}, {0, 1, 2}])
        expo = itf.evaluate_exposure(np.array([1, 1, 0]), nbhd, itf.ExposureMapping.threshold(2))
        assert expo.indicator.tolist() == [1, 1, 0]

    def test_threshold_at_full_size_equals_product_exhaustively(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(6.0)[:, None], 3)
        product = itf.ExposureMapping.product()
        threshold = itf.ExposureMapping.threshold(3)
        for bits in itertools.product((0, 1), repeat=6):
            x = np.array(bits)
            z_prod = itf.evaluate_exposure(x, nbhd, product).indicator
            z_thr = itf.evaluate_exposure(x, nbhd, threshold).indicator
            assert z_prod.tolist() == z_thr.tolist()

    def test_monotone_in_treatments_exhaustively(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 2)
        for mapping in (itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)):
            for bits in itertools.product((0, 1), repeat=5):
                x = np.array(bits)
                z = itf.evaluate_exposure(x, nbhd, mapping).indicator
                for j in np.flatnonzero(x == 0):
                    bumped = x.copy()
                    bumped[j] = 1
                    z_up = itf.evaluate_exposure(bumped, nbhd, mapping).indicator
                    assert np.all(z_up >= z)

    def test_d_min_exceeding_size_rejected(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 0}])
        with pytest.raises(ValidationError, match="exceeds"):
            itf.evaluate_exposure(np.array([1, 1]), nbhd, itf.ExposureMapping.threshold(3))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
    @pytest.mark.parametrize("mapping", [itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)],
                             ids=["product", "threshold"])
    def test_many_matches_a_per_unit_loop(self, rng, mapping, dtype, order):
        nbhd = itf.build_knn_neighborhoods(rng.random((30, 2)), 3)
        x = np.asarray(rng.random((17, 30)) < 0.7, dtype=dtype, order=order)
        z = evaluate_exposure_many(x, nbhd, mapping)
        assert z.dtype == np.int8 and z.shape == (17, 30) and z.flags.c_contiguous
        for s in range(17):
            for i, members in enumerate(nbhd.as_sets()):
                treated = sum(int(x[s, j]) for j in members)
                exposed = treated == nbhd.k if mapping.kind == "product" else x[s, i] and treated >= mapping.d_min
                assert z[s, i] == exposed

    def test_many_matches_single(self, rng):
        nbhd = itf.build_knn_neighborhoods(rng.random((8, 2)), 3)
        mapping = itf.ExposureMapping.threshold(2)
        x = (rng.random((20, 8)) < 0.4).astype(np.int8)
        batch = evaluate_exposure_many(x, nbhd, mapping)
        for row, z_row in zip(x, batch):
            assert itf.evaluate_exposure(row, nbhd, mapping).indicator.tolist() == z_row.tolist()


class TestDomainTypes:
    def test_population_validation(self, rng):
        coords = rng.random((4, 2))
        good = dict(
            ids=tuple(range(4)),
            coords=coords,
            treatment=np.array([0, 1, 0, 1]),
            outcome=np.ones(4),
            rho=0.5,
        )
        itf.Population(**good)
        with pytest.raises(ValidationError):
            itf.Population(**{**good, "rho": 1.0})
        with pytest.raises(ValidationError):
            itf.Population(**{**good, "treatment": np.array([0, 1, 2, 1])})
        with pytest.raises(ValidationError):
            itf.Population(**{**good, "outcome": np.array([1.0, -2.0, 0.0, 1.0])})
        with pytest.raises(ValidationError):
            itf.Population(**{**good, "ids": (0, 0, 1, 2)})
        with pytest.raises(ValidationError):
            itf.Population(**{**good, "enrollment": np.array([1.0, 0.5, 1.0, 1.0])})

    @pytest.mark.parametrize("field", ["coords", "outcome", "enrollment"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_population_rejects_non_finite(self, rng, field, bad):
        fields = dict(
            ids=tuple(range(4)),
            coords=rng.random((4, 2)),
            treatment=np.array([0, 1, 0, 1]),
            outcome=np.ones(4),
            rho=0.5,
            enrollment=np.full(4, 2.0),
        )
        fields[field] = np.array(fields[field], dtype=float)
        fields[field].flat[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            itf.Population(**fields)

    def test_effective_treatment_count_consistency(self):
        with pytest.raises(ValidationError):
            itf.EffectiveTreatment(indicator=np.array([1, 0, 1], dtype=np.int8), count=1)

    def test_population_arrays_are_read_only(self, rng):
        pop = itf.Population(
            ids=(0, 1),
            coords=rng.random((2, 1)),
            treatment=np.array([0, 1]),
            outcome=np.array([1.0, 2.0]),
            rho=0.3,
        )
        with pytest.raises(ValueError):
            pop.outcome[0] = 5.0
