
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interfere as itf
from interfere import exposure
from interfere.errors import ValidationError
from interfere.exposure import _MC_SHARD, _mc_shard_counts

from conftest import random_design

MAPPINGS = (itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2))


class TestExactMarginal:
    def test_product_is_rho_to_k(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 3)
        assert itf.exact_marginal(nbhd, itf.ExposureMapping.product(), 0.5) == pytest.approx(0.125)

    def test_threshold_enumeration_case(self):
        # k=3, d_min=2, rho=0.5: enumerate the 8 patterns of one neighborhood.
        # Unit treated (prob 1/2) and at least one of the two others treated
        # (prob 3/4): p = 0.375.
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 3)
        p = itf.exact_marginal(nbhd, itf.ExposureMapping.threshold(2), 0.5)
        assert p == pytest.approx(0.375, abs=1e-15)

    def test_threshold_1_1_is_rho(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(4.0)[:, None], 1)
        assert itf.exact_marginal(nbhd, itf.ExposureMapping.threshold(1), 0.5) == pytest.approx(0.5)

    def test_sets_above_1029_units_are_an_error(self):
        # math.comb(1030, 515) exceeds the float range; the threshold tables
        # reject such sets before any pair is listed.
        nbhd = itf.build_knn_neighborhoods(np.arange(1031.0)[:, None], 1030)
        mapping = itf.ExposureMapping.threshold(2)
        message = "exact threshold probabilities need sets of at most 1029 units, got 1030"
        for call in (itf.exact_marginal, itf.exact_profile):
            with pytest.raises(ValidationError) as caught:
                call(nbhd, mapping, 0.5)
            assert str(caught.value) == message

    def test_size_limit_is_where_the_coefficients_overflow(self):
        # The central coefficient is the largest of its row, and the rows grow with n.
        assert exposure._MAX_EXACT_SIZE == 1029
        assert math.isfinite(float(math.comb(1029, 514)))
        with pytest.raises(OverflowError):
            float(math.comb(1030, 515))

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 1 / 3])
    def test_tables_equal_the_math_comb_terms(self, rho):
        # Pascal's rule gives the same integers as math.comb, so every term
        # and every tail sum is the same float.
        pmf, sf = exposure._binom_tables(200, rho)
        assert len(pmf) == len(sf) == 201
        for n in range(201):
            row = np.array([math.comb(n, m) * rho**m * (1.0 - rho) ** (n - m) for m in range(n + 1)])
            tail = np.zeros(n + 2)
            tail[:-1] = row[::-1].cumsum()[::-1]
            assert pmf[n].tobytes() == row.tobytes()
            assert sf[n].tobytes() == tail.tobytes()

    def test_threshold_profile_builds_the_tables_once(self, monkeypatch):
        calls = []
        build = exposure._binom_tables

        def counted(k, rho):
            calls.append(k)
            return build(k, rho)

        monkeypatch.setattr(exposure, "_binom_tables", counted)
        nbhd = itf.build_knn_neighborhoods(np.arange(20.0)[:, None], 5)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(3), 0.5)
        assert calls == [5]
        itf.exact_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        assert calls == [5]  # a product mapping needs no table
        assert profile.p == itf.exact_marginal(nbhd, itf.ExposureMapping.threshold(3), 0.5)


class TestEnumeratedOracle:
    def test_single_unit_1_1(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0}])
        profile = itf.enumerated_profile(nbhd, itf.ExposureMapping.threshold(1), 0.3)
        assert profile.p == pytest.approx(0.3, abs=1e-15)
        assert profile.min_joint == pytest.approx(0.3)

    def test_shared_neighborhood_product(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1, 2}] * 3)
        profile = itf.enumerated_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        assert np.allclose(profile.joint, 0.125)

    def test_rejects_large_populations(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(21.0)[:, None], 1)
        with pytest.raises(ValidationError, match="at most 20"):
            itf.enumerated_profile(nbhd, itf.ExposureMapping.product(), 0.5)


class TestExactProfile:
    def test_matches_oracle_on_random_designs(self, rng):
        for _ in range(20):
            nbhd, mapping, rho = random_design(rng)
            exact = itf.exact_profile(nbhd, mapping, rho)
            oracle = itf.enumerated_profile(nbhd, mapping, rho)
            assert np.abs(exact.joint - oracle.joint).max() <= 1e-12
            assert abs(exact.p - oracle.p) <= 1e-12

    def test_product_pair_hand_example(self):
        # sets {0,1} and {1,2} at rho=0.5: union of size 3 gives joint 1/8,
        # and excess = 1/8 - p^2 = 0.0625 (brute force over the 8 patterns).
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1}, {1, 2}, {2, 0}])
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        assert profile.joint[0, 1] == pytest.approx(0.125, abs=1e-15)
        assert itf.center_excess(profile.joint, profile.p)[0][0, 1] == pytest.approx(0.0625, abs=1e-15)

    def test_disjoint_pairs_factorize(self):
        coords = np.array([[0.0], [1.0], [100.0], [101.0]])
        for mapping in (itf.ExposureMapping.product(), itf.ExposureMapping.threshold(2)):
            profile = itf.exact_profile(itf.build_knn_neighborhoods(coords, 2), mapping, 0.4)
            assert profile.joint[0, 2] == pytest.approx(profile.p**2, abs=1e-15)
            assert itf.center_excess(profile.joint, profile.p)[0][0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_singleton_neighborhoods_have_zero_excess(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(6.0)[:, None], 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(1), 0.5)
        assert np.abs(itf.center_excess(profile.joint, profile.p)[0]).max() == pytest.approx(0.0, abs=1e-15)
        assert np.abs(itf.center_excess(profile.joint, profile.p)[1]).max() == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_joint_matrix_invariants(self, seed):
        gen = np.random.default_rng(seed)
        nbhd, mapping, rho = random_design(gen, max_units=9)
        profile = itf.exact_profile(nbhd, mapping, rho)
        joint = profile.joint
        assert np.array_equal(joint, joint.T)
        assert np.allclose(np.diagonal(joint), profile.p, atol=1e-15)
        upper = np.minimum.outer(np.diagonal(joint), np.diagonal(joint))
        assert np.all(joint <= upper + 1e-12)
        assert np.all(joint >= -1e-15)
        # centered matrix has zero row, column, and overall sums
        assert np.abs(itf.center_excess(profile.joint, profile.p)[1].sum(axis=0)).max() < 1e-10
        assert np.abs(itf.center_excess(profile.joint, profile.p)[1].sum(axis=1)).max() < 1e-10
        assert abs(itf.center_excess(profile.joint, profile.p)[1].sum()) < 1e-10


class TestCenterExcess:
    def test_zero_excess_maps_to_zero(self):
        n = 4
        p = 0.3
        joint = p * (1 - p) * np.eye(n) + p * p * np.ones((n, n))
        excess, centered = itf.center_excess(joint, p)
        assert np.abs(excess).max() == pytest.approx(0.0, abs=1e-15)
        assert np.abs(centered).max() == pytest.approx(0.0, abs=1e-15)

    def test_random_symmetric_centering(self, rng):
        raw = rng.random((5, 5))
        joint = (raw + raw.T) / 2
        _, centered = itf.center_excess(joint, 0.4)
        assert np.abs(centered.sum(axis=0)).max() < 1e-10
        assert np.abs(centered.sum(axis=1)).max() < 1e-10

    def test_rejects_asymmetric_input(self, rng):
        joint = rng.random((4, 4))
        joint[0, 1] = joint[1, 0] + 1.0
        with pytest.raises(ValidationError, match="symmetric"):
            itf.center_excess(joint, 0.5)


class TestOverlapDegree:
    def test_singletons(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 1)
        assert itf.overlap_degree(nbhd) == 0

    def test_everyone_overlaps(self):
        nbhd = itf.NeighborhoodSet.from_sets([{0, 1, 2, 3}] * 4)
        assert itf.overlap_degree(nbhd) == 3

    def test_line_layout_d2(self):
        # Sets are {0,1},{0,1},{1,2},{2,3},{3,4}; unit 2's set meets sets
        # 0, 1, and 3, so the maximum is 3 (independent set-intersection count
        # below confirms it).
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 2)
        sets = nbhd.as_sets()
        expected = max(
            sum(1 for j in range(5) if j != i and sets[i] & sets[j]) for i in range(5)
        )
        assert expected == 3
        assert itf.overlap_degree(nbhd) == 3


class TestMonteCarloProfile:
    def test_fixed_seed_is_bit_identical(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(6.0)[:, None], 2)
        mapping = itf.ExposureMapping.threshold(2)
        a = itf.monte_carlo_profile(nbhd, mapping, 0.5, 5000, seed=42)
        b = itf.monte_carlo_profile(nbhd, mapping, 0.5, 5000, seed=42)
        assert np.array_equal(a.joint, b.joint)
        assert a.p == b.p

    def test_single_sample_entries_are_binary(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(5.0)[:, None], 2)
        profile = itf.monte_carlo_profile(nbhd, itf.ExposureMapping.product(), 0.5, 1, seed=1)
        assert np.isin(profile.joint, (0.0, 1.0)).all()

    def test_converges_to_exact_within_3_standard_errors(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(4.0)[:, None], 2)
        mapping = itf.ExposureMapping.threshold(2)
        exact = itf.exact_profile(nbhd, mapping, 0.5)
        samples = 1_000_000
        mc = itf.monte_carlo_profile(nbhd, mapping, 0.5, samples, seed=7)
        se = np.sqrt(exact.joint * (1 - exact.joint) / samples)
        gap = np.abs(mc.joint - exact.joint)
        assert np.all(gap <= 3.0 * np.maximum(se, 1e-12))

    def test_full_shard_counts_are_exact(self):
        # A full shard of 2^16 draws at rho near 1: the diagonal counts come
        # close to 2^16, and the float32 product must still equal the integer one.
        nbhd = itf.build_knn_neighborhoods(np.arange(12.0)[:, None], 3)
        mapping = itf.ExposureMapping.threshold(2)
        counts = _mc_shard_counts(nbhd, mapping, 0.999, 5, 0, _MC_SHARD)
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        x = (rng.random((_MC_SHARD, 12)) < 0.999).astype(np.int8)
        z = itf.evaluate_exposure_many(x, nbhd, mapping).astype(np.int64)
        assert _MC_SHARD == 2**16
        assert counts.dtype == np.float32
        assert np.diagonal(counts).min() > 0.99 * _MC_SHARD
        assert np.array_equal(counts, z.T @ z)

    def test_chunked_draws_equal_one_draw(self, monkeypatch):
        # 1000 draws of 777 units, drawn and counted in chunks of 300 rows
        # (300, 300, 300, 100), give the counts of the whole shard at once.
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 777, seed=3), 4)
        mapping = itf.ExposureMapping.threshold(2)
        rng = np.random.Generator(np.random.Philox(key=[9, 2]))
        x = (rng.random((1000, 777)) < 0.4).astype(np.int8)
        z = itf.evaluate_exposure_many(x, nbhd, mapping).astype(np.float32)
        monkeypatch.setattr(exposure, "_MC_DRAW", 300 * 777 + 5)
        counts = _mc_shard_counts(nbhd, mapping, 0.4, 9, 2, 1000)
        assert np.array_equal(np.triu(counts), np.triu((z.T @ z).astype(np.float64)))

    @pytest.mark.parametrize("mapping", MAPPINGS, ids=["product", "threshold"])
    def test_batched_counts_equal_one_product(self, monkeypatch, mapping):
        # 250 draws of 53 units in chunks of 40 rows; a batch holds three
        # chunks (130 columns), so the counts flush after draws 120 and, with
        # the ragged last chunk of 10 beside the next 120, after draw 250.
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 53, seed=4), 3)
        rng = np.random.Generator(np.random.Philox(key=[6, 3]))
        z = itf.evaluate_exposure_many(rng.random((250, 53)) < 0.7, nbhd, mapping).astype(np.int64)
        monkeypatch.setattr(exposure, "_MC_DRAW", 40 * 53)
        monkeypatch.setattr(exposure, "_MC_BATCH", 130 * 53)
        counts = _mc_shard_counts(nbhd, mapping, 0.7, 6, 3, 250)
        assert counts.dtype == np.float32
        assert np.array_equal(np.triu(counts), np.triu(z.T @ z))

    @pytest.mark.parametrize("shard_n", [121, 125, 130, 131, 170])
    def test_ragged_last_chunk_beside_a_nearly_full_batch(self, monkeypatch, shard_n):
        # Chunks of 40 rows into a batch of 130 columns: after three chunks
        # (120 columns) a full chunk would not fit, but a last chunk of at
        # most 10 rows does (121, 125, 130); one of 11 does not (131), and at
        # 170 the last 10 rows follow a flushed batch.
        mapping = itf.ExposureMapping.threshold(2)
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 53, seed=4), 3)
        rng = np.random.Generator(np.random.Philox(key=[6, 3]))
        z = itf.evaluate_exposure_many(rng.random((shard_n, 53)) < 0.7, nbhd, mapping).astype(np.int64)
        monkeypatch.setattr(exposure, "_MC_DRAW", 40 * 53)
        monkeypatch.setattr(exposure, "_MC_BATCH", 130 * 53)
        assert np.array_equal(np.triu(_mc_shard_counts(nbhd, mapping, 0.7, 6, 3, shard_n)), np.triu(z.T @ z))

    @pytest.mark.parametrize("step", [1, 10, 100], ids=["one_row", "ragged_last", "wider_than_n"])
    def test_row_blocks_give_the_upper_triangle_of_one_product(self, monkeypatch, step):
        # Each batch's product goes into the counts in blocks of ``step``
        # rows of 53 units: blocks of one row, five of 10 and a last of 3,
        # or one block of 100 rows, more than n. The draws come in chunks
        # of ``step`` rows too, and a batch of max(70, step) columns flushes
        # several times over 250 draws.
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 53, seed=4), 3)
        mapping = itf.ExposureMapping.threshold(2)
        rng = np.random.Generator(np.random.Philox(key=[6, 3]))
        z = itf.evaluate_exposure_many(rng.random((250, 53)) < 0.7, nbhd, mapping).astype(np.int64)
        monkeypatch.setattr(exposure, "_MC_DRAW", step * 53)
        monkeypatch.setattr(exposure, "_MC_BATCH", 70 * 53)
        counts = _mc_shard_counts(nbhd, mapping, 0.7, 6, 3, 250)
        assert counts.dtype == np.float32
        assert np.array_equal(np.triu(counts), np.triu(z.T @ z))

    def test_shard_forms_no_second_square_beside_its_counts(self, monkeypatch):
        # 1 000 draws of 1 000 units in chunks of 50 rows: the counts and the
        # (n, 1000) batch are 3.8 MiB each, and a batch's product, added a
        # block of 50 rows at a time, must not add anything near another
        # (n, n) float32 array.
        n = 1000
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", n, seed=3), 4)
        monkeypatch.setattr(exposure, "_MC_DRAW", 50 * n)
        tracemalloc.start()
        try:
            counts = _mc_shard_counts(nbhd, itf.ExposureMapping.threshold(2), 0.5, 1, 0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = counts.nbytes
        assert square == 4 * n * n
        assert peak < square + 4 * n * 1000 + square // 2

    @pytest.mark.parametrize("mapping", MAPPINGS, ids=["product", "threshold"])
    def test_two_shard_profile_equals_the_sum_of_shard_products(self, monkeypatch, mapping):
        # 170 draws in shards of 100 and 70, each drawn in chunks of 30 rows
        # and counted in batches of two chunks.
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 41, seed=5), 3)
        counts = np.zeros((41, 41), dtype=np.int64)
        for shard, size in enumerate((100, 70)):
            rng = np.random.Generator(np.random.Philox(key=[8, shard]))
            z = itf.evaluate_exposure_many(rng.random((size, 41)) < 0.7, nbhd, mapping).astype(np.int64)
            counts += z.T @ z
        monkeypatch.setattr(exposure, "_MC_SHARD", 100)
        monkeypatch.setattr(exposure, "_MC_DRAW", 30 * 41)
        monkeypatch.setattr(exposure, "_MC_BATCH", 65 * 41)
        profile = itf.monte_carlo_profile(nbhd, mapping, 0.7, 170, seed=8)
        joint = counts / 170
        rows, cols = np.triu_indices(41, 1)
        assert np.array_equal(profile.diag, np.diagonal(joint))
        assert np.array_equal(profile.values, joint[rows, cols])
        assert profile.p == float(np.diagonal(joint).mean())

    @pytest.mark.parametrize("mapping", MAPPINGS, ids=["product", "threshold"])
    def test_gathered_profile_equals_the_dense_sum_of_shard_counts(self, monkeypatch, mapping):
        # 230 draws in shards of 64 (three full shards and one of 38): the
        # profile adds each shard's pairs, row segment by row segment, and
        # its diagonal, and equals the sum of the shard counts' upper
        # triangles, divided and gathered once by np.triu_indices, bit for
        # bit; the pattern's indices are those of np.triu_indices, as int32.
        nbhd = itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", 37, seed=6), 4)
        starts = range(0, 230, 64)
        counts = np.zeros((37, 37))
        for shard, start in enumerate(starts):
            counts += _mc_shard_counts(nbhd, mapping, 0.6, 4, shard, min(64, 230 - start))
        joint = counts / 230
        monkeypatch.setattr(exposure, "_MC_SHARD", 64)
        profile = itf.monte_carlo_profile(nbhd, mapping, 0.6, 230, seed=4)
        rows, cols = np.triu_indices(37, 1)
        assert len(starts) == 4
        assert profile.rows.tobytes() == rows.astype(np.int32).tobytes()
        assert profile.cols.tobytes() == cols.astype(np.int32).tobytes()
        assert profile.diag.tobytes() == np.diagonal(joint).tobytes()
        assert profile.values.tobytes() == joint[rows, cols].tobytes()
        assert profile.p == float(np.diagonal(joint).mean())

    def test_records_method_and_samples(self):
        nbhd = itf.build_knn_neighborhoods(np.arange(4.0)[:, None], 1)
        profile = itf.monte_carlo_profile(nbhd, itf.ExposureMapping.product(), 0.5, 10, seed=0)
        assert profile.method == "monte_carlo"
        assert profile.num_samples == 10


class TestPatternIndices:
    """Every profile stores its pattern as int32 unit indices: 16 bytes per
    pair with the float64 value, and fewer than 2^31 units."""

    @staticmethod
    def check_pattern(profile, rows, cols):
        assert profile.rows.dtype == profile.cols.dtype == np.int32
        assert np.array_equal(profile.rows, rows) and np.array_equal(profile.cols, cols)
        pattern = profile.rows.nbytes + profile.cols.nbytes + profile.values.nbytes
        assert pattern == 16 * profile.rows.size

    def test_every_builder_stores_int32_indices(self):
        coords = itf.synthetic_layout("uniform_square", 18, seed=2)
        nbhd = itf.build_knn_neighborhoods(coords, 3)
        mapping = itf.ExposureMapping.threshold(2)
        pairs = exposure._overlapping_pairs(nbhd)
        assert pairs.size > 0
        self.check_pattern(itf.exact_profile(nbhd, mapping, 0.5), pairs[:, 0], pairs[:, 1])
        everyone = np.triu_indices(18, 1)
        self.check_pattern(itf.monte_carlo_profile(nbhd, mapping, 0.5, 100, seed=1), *everyone)
        self.check_pattern(itf.enumerated_profile(nbhd, mapping, 0.5), *everyone)
        for nbhd, _, profile in exposure._threshold_designs(coords, [(2, 3), (1, 4)], 0.5):
            pairs = exposure._overlapping_pairs(nbhd)
            self.check_pattern(profile, pairs[:, 0], pairs[:, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 300])
    def test_all_pairs_are_the_upper_triangle(self, n):
        rows, cols = exposure._all_pairs(n)
        assert rows.dtype == cols.dtype == np.int32
        expected = np.triu_indices(n, 1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])

    def test_too_many_units_raise_before_any_allocation(self):
        empty = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="2\\^31"):
                exposure._finalize(0.5, np.broadcast_to(0.5, (2**31,)), empty, empty, np.empty(0), 0, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestVarianceIdentity:
    def test_disjoint_design_variance_is_leading_term(self, rng):
        # Pairwise-disjoint neighborhoods force singletons (every set contains
        # its own unit); there the centered excess vanishes, so the quadratic
        # form in the joint matrix must equal the leading term alone.
        coords = np.array([[0.0], [1.0], [50.0], [51.0], [100.0], [101.0]])
        nbhd = itf.build_knn_neighborhoods(coords, 1)
        profile = itf.exact_profile(nbhd, itf.ExposureMapping.product(), 0.5)
        assert np.abs(itf.center_excess(profile.joint, profile.p)[1]).max() < 1e-14
        for _ in range(10):
            theta = rng.gamma(2.0, 5.0, size=6)
            centered_theta = theta - theta.mean()
            quad = centered_theta @ profile.joint @ centered_theta
            lead = 6 * profile.p * (1 - profile.p) * (centered_theta**2).mean()
            assert quad == pytest.approx(lead, rel=1e-10, abs=1e-12)

