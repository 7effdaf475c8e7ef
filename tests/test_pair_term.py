"""The closed-form pair term of the variance against the row-block sum it
replaced, and the handling of zero joint probabilities.

``block_pair_term`` is the previous implementation: it sums the rank-one
part of the centered entries over all of A x A in row blocks, and the
diagonal and pattern entries then swap their rank-one weight for their own.
The closed form may differ from it by the rounding of a reassociated sum,
taken as 16 eps times the sum of the magnitudes of the terms (the largest
difference seen over 3000 random cases was 2.3 eps times it), plus an
absolute floor for the residue of equal exposed values, whose terms are all
0 (``residue_floor``). Clipped, it may also exceed it by twice its stated
allowance for cancellation; unclipped, it may differ by the rounding of
t S^2 - 2 S (v.u). Nothing more.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import interfere as itf
from interfere import monotone
from interfere.errors import ZeroJointProbabilityError
from interfere.exposure import _PAIR_BLOCK, ExposureProfile, _finalize
from interfere.monotone import _score, _variances

EPS = np.finfo(float).eps
BLOCK = 1 << 18
BLOCK_ROWS = monotone._BLOCK


def _entry_weights(t, u_i, u_j, h, excess=None, joint=None):
    g = (t - u_i) - u_j
    if excess is None:
        return h(g)
    return h(g), h(g + excess) / joint


def block_pair_term(values, exposure, profile, clip):
    """The pair term as the row-block sum computed it (without its checks)."""
    mask = exposure.indicator > 0
    idx = np.flatnonzero(mask)
    on = mask[profile.rows] & mask[profile.cols]
    rows, cols, joint = profile.rows[on], profile.cols[on], profile.values[on]
    diag = profile.diag[idx]
    n, p = profile.n, profile.p
    pp = p * p
    off_pattern = idx.size * (idx.size - 1) // 2 > rows.size
    h = (lambda c: np.maximum(c, 0.0)) if clip else (lambda c: c)
    u = profile.row_excess / n
    t = profile.excess_total / (n * n)
    v_all = np.asarray(values, dtype=float)
    v, vi, vj, ua = v_all[idx], v_all[rows], v_all[cols], u[idx]
    rank_diag, w_diag = _entry_weights(t, ua, ua, h, (diag - p * (1.0 - p)) - pp, diag)
    rank_pair, w_pair = _entry_weights(t, u[rows], u[cols], h, joint - pp, joint)
    total = 0.0
    if off_pattern:
        w_diag -= rank_diag / pp
        w_pair -= rank_pair / pp
        step = max(1, BLOCK // idx.size)
        for lo in range(0, idx.size, step):
            block = _entry_weights(t, ua[lo : lo + step, None], ua, h)
            total += float(v[lo : lo + step] @ block @ v) / pp
    return total + float(v @ (v * w_diag)) + 2.0 * float(vi @ (vj * w_pair))


def leading_term(values, exposure, profile):
    active = np.asarray(values, dtype=float)[exposure.indicator > 0]
    return profile.n * profile.p * (1.0 - profile.p) * float(((active - active.mean()) ** 2).mean())


def magnitude(values, exposure, profile, clip):
    """Sum of the magnitudes of the terms the block sum adds."""
    h = (lambda c: np.maximum(c, 0.0)) if clip else (lambda c: c)
    n, p = profile.n, profile.p
    idx = np.flatnonzero(exposure.indicator)
    v = np.asarray(values, dtype=float)[idx]
    u = profile.row_excess[idx] / n
    g = (profile.excess_total / (n * n) - u[:, None]) - u[None, :]
    joint = profile.joint[np.ix_(idx, idx)]
    own = np.abs(h(g + itf.center_excess(profile.joint, profile.p)[0][np.ix_(idx, idx)]) / joint)
    rank = np.abs(h(g)) / (p * p)
    outer = np.abs(v[:, None] * v[None, :])
    return leading_term(values, exposure, profile) + float((outer * (own + 2.0 * rank)).sum())


def allowance(values, exposure, profile):
    """The stated upward allowance of the clipped closed form: for each
    exposed i with positive rank-one entries, the first k_i units in u
    order, v_i (k_i + 2) eps (|t - u_i| + max |u_j|) sum_j v_j / p^2."""
    n, p = profile.n, profile.p
    if profile.rows.size == n * (n - 1) // 2:
        return 0.0
    u = profile.row_excess / n
    head = profile.excess_total / (n * n) - u
    v = np.asarray(values, dtype=float) * exposure.indicator
    total = 0.0
    for i in np.flatnonzero(v):
        below = u < head[i]
        if below.any():
            total += v[i] * (below.sum() + 2) * EPS * (abs(head[i]) + np.abs(u[below]).max()) * v[below].sum()
    return total / (p * p)


def unclipped_cancellation(values, exposure, profile):
    """Rounding of the unclipped closed form t S^2 - 2 S (v.u), which has
    no allowance: 4 (n + 4) eps (|t| S^2 + 2 S sum_j v_j |u_j|) / p^2."""
    n, p = profile.n, profile.p
    if profile.rows.size == n * (n - 1) // 2:
        return 0.0
    v = np.asarray(values, dtype=float) * exposure.indicator
    total, t = v.sum(), profile.excess_total / (n * n)
    spread = abs(t) * total**2 + 2.0 * total * (np.abs(v) * np.abs(profile.row_excess / n)).sum()
    return 4 * (n + 4) * EPS * spread / (p * p)


def residue_floor(values, exposure, profile):
    """Absolute rounding of the leading term when the exposed values are
    equal: the mean of k values c is off from c by at most (k + 2) eps/2 |c|,
    so n p (1-p) times the mean squared deviation from it is at most a
    quarter of (k + 2)^2 eps^2 max|y|^2 n p (1-p). It does not grow with the
    spread of the values."""
    k = exposure.count
    top = float(np.abs(np.asarray(values, dtype=float)[exposure.indicator > 0]).max())
    return (k + 2) ** 2 * EPS**2 * top**2 * profile.n * profile.p * (1.0 - profile.p)


def check_against_block_sum(values, exposure, profile):
    for clip in (True, False):
        got = (itf.conservative_variance if clip else itf.variance_estimate)(values, exposure, profile)
        want = leading_term(values, exposure, profile) + block_pair_term(values, exposure, profile, clip)
        rounding = 16 * EPS * magnitude(values, exposure, profile, clip) + residue_floor(values, exposure, profile)
        if clip:
            # The closed form rounds by at most its allowance, and adds it.
            below, above = 0.0, 2.0 * allowance(values, exposure, profile) * (1.0 + 1e-9)
        else:
            below = above = unclipped_cancellation(values, exposure, profile)
        assert want - below - rounding <= got <= want + above + rounding, (clip, got, want, rounding, above)


def _design_profile(kind, gen, n):
    coords = gen.random((n, 2))
    rho = float(gen.choice((0.5, 0.7) if kind.startswith("monte carlo") else (0.3, 0.5, 0.7)))
    d, mapping = {
        "threshold (2, 3)": (3, itf.ExposureMapping.threshold(2)),
        "threshold (3, 6)": (6, itf.ExposureMapping.threshold(3)),
        "product": (3, itf.ExposureMapping.product()),
    }[kind.removeprefix("monte carlo ")]
    nbhd = itf.build_knn_neighborhoods(coords, min(d, n))
    if kind.startswith("monte carlo"):
        return itf.monte_carlo_profile(nbhd, mapping, rho, 4096, seed=int(gen.integers(1000)))
    return itf.exact_profile(nbhd, mapping, rho)


def synthetic_profile(gen, n, u, t):
    """A profile with u = r/n, t = s/n^2 and a random pattern. Its weights
    need not come from a design for the two sums to agree."""
    rows, cols = np.triu_indices(n, 1)
    keep = gen.random(rows.size) < 0.3
    rows, cols = rows[keep], cols[keep]
    p = 0.25
    values = gen.integers(1, 9, size=rows.size) / 64.0
    diag = np.full(n, p)
    for arr in (diag, rows, cols, values):
        arr.setflags(write=False)
    return ExposureProfile(
        p=p, diag=diag, rows=rows, cols=cols, values=values, row_excess=u * n,
        excess_total=t * n * n, overlap_degree=0, method="exact",
    )


def tied_profile(gen, n):
    """u and t are multiples of 1/64, with t the sum of two entries of u:
    those entries' rank-one value is exactly 0."""
    m = gen.integers(-6, 7, size=n)
    i, j = gen.choice(n, size=2, replace=False)
    return synthetic_profile(gen, n, m / 64.0, float(m[i] + m[j]) / 64.0)


def cancelling_profile(gen, n):
    """u close to 0.3 and t close to 0.6, so each rank-one value is a small
    difference of large numbers and the prefix sums of the closed form
    cancel: only its allowance keeps it from falling below the block sum."""
    return synthetic_profile(gen, n, 0.3 + gen.normal(scale=1e-6, size=n), 0.6 + gen.normal(scale=1e-6))


KINDS = (
    "threshold (2, 3)", "threshold (3, 6)", "product",
    "monte carlo threshold (2, 3)", "monte carlo product", "ties", "cancellation",
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1))
@example(kind="threshold (2, 3)", n=21, seed=1391049)  # equal exposed values: a 6e-29 residue where the sum is 0
def test_closed_form_matches_the_block_sum(kind, n, seed):
    gen = np.random.default_rng(seed)
    if kind in ("ties", "cancellation"):
        profile = (tied_profile if kind == "ties" else cancelling_profile)(gen, n)
    else:
        profile = _design_profile(kind, gen, n)
    if kind == "ties":
        u, t = profile.row_excess / n, profile.excess_total / (n * n)
        assert ((t - u)[:, None] == u[None, :]).any()
    z = (gen.random(n) < gen.choice((0.2, 0.5, 0.9))).astype(np.int8)
    z[gen.integers(n)] = 1
    values = gen.gamma(2.0, 5.0, size=n) * (gen.random(n) < 0.8)
    if gen.random() < 0.3:
        values[:] = values.max()  # equal exposed outcomes: no leading term
    exposure = itf.EffectiveTreatment(indicator=z, count=int(z.sum()))
    try:
        check_against_block_sum(values, exposure, profile)
    except ZeroJointProbabilityError:
        assert kind.startswith("monte carlo")


def test_the_common_designs_have_no_positive_rank_one_entry():
    # Threshold (3, 6) on a uniform square: 2 min(u) >= t, so the clipped
    # closed form adds nothing, and the result agrees with the block sum.
    coords = itf.synthetic_layout("uniform_square", 300, seed=2)
    profile = itf.exact_profile(itf.build_knn_neighborhoods(coords, 6), itf.ExposureMapping.threshold(3), 0.5)
    u, t = profile.row_excess / profile.n, profile.excess_total / profile.n**2
    assert (t - u.min()) - u.min() <= 0.0
    gen = np.random.default_rng(3)
    for _ in range(5):
        z = (gen.random(300) < 0.5).astype(np.int8)
        exposure = itf.EffectiveTreatment(z, int(z.sum()))
        check_against_block_sum(gen.gamma(2.0, 5.0, size=300), exposure, profile)


def ring_profile():
    """A Monte Carlo profile of 7 samples on a ring of 8 units, with some
    pairs never exposed together: joint probability 0."""
    nbhd = itf.NeighborhoodSet(members=(np.arange(8)[:, None] + np.arange(3)) % 8)
    profile = itf.monte_carlo_profile(nbhd, itf.ExposureMapping.threshold(3), 0.5, 7, seed=1)
    assert profile.diag.min() > 0.0
    never = profile.values == 0
    zero = {(int(i), int(j)) for i, j in zip(profile.rows[never], profile.cols[never])}
    assert (0, 5) in zero and not zero & {(i, j) for i in range(5) for j in range(i + 1, 5)}
    return profile


def test_zero_joint_pair_not_exposed_together_keeps_the_variance():
    profile = ring_profile()
    values = np.array([3.0, 0.0, 7.0, 2.0, 5.0, 4.0, 1.0, 6.0])
    exposure = itf.EffectiveTreatment(np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=np.int8), 5)
    for clip in (True, False):
        got = (itf.conservative_variance if clip else itf.variance_estimate)(values, exposure, profile)
        want = leading_term(values, exposure, profile) + block_pair_term(values, exposure, profile, clip)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-13)


def test_zero_joint_pair_exposed_together_raises_even_with_a_zero_outcome():
    profile = ring_profile()
    values = np.array([0.0, 3.0, 7.0, 2.0, 5.0, 4.0, 1.0, 6.0])  # unit 0's outcome is 0
    bad = np.array([1, 0, 0, 0, 0, 1, 0, 0], dtype=np.int8)
    with pytest.raises(ZeroJointProbabilityError):
        itf.conservative_variance(values, itf.EffectiveTreatment(bad, 2), profile)
    with pytest.raises(ZeroJointProbabilityError):
        itf.variance_estimate(values, itf.EffectiveTreatment(bad, 2), profile)
    fine = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=np.int8)
    batch = np.stack([fine, bad, fine])
    with pytest.raises(ZeroJointProbabilityError):
        _score(np.tile(values, (3, 1)), batch, profile, 0.05)
    with pytest.raises(ZeroJointProbabilityError):
        _variances(np.tile(values, (3, 1)), batch, profile, clip=False)
    assert np.isfinite(_score(np.tile(values, (2, 1)), batch[[0, 2]], profile, 0.05)[2]).all()


def test_zero_joint_pair_exposed_together_raises_before_an_overflow():
    # Outcomes of 1e200 overflow the leading term's squares before the pair
    # blocks of a one-row call are built; the zero joint probability is
    # still the error reported, in one row or in several.
    profile = ring_profile()
    bad = np.array([[1, 0, 0, 0, 0, 1, 0, 0]], dtype=np.int8)
    for rows in (1, 3):
        for clip in (True, False):
            with pytest.raises(ZeroJointProbabilityError):
                _variances(np.full((rows, 8), 1e200), np.repeat(bad, rows, axis=0), profile, clip)


def _ring_exact_profile():
    """Every pair of a ring of 7 units with sets of 4 overlaps: no pair lies off the pattern."""
    nbhd = itf.NeighborhoodSet(members=(np.arange(7)[:, None] + np.arange(4)) % 7)
    profile = itf.exact_profile(nbhd, itf.ExposureMapping.threshold(2), 0.5)
    assert not profile.off_pattern
    return profile


def _knn_design(n, d, seed):
    return itf.build_knn_neighborhoods(itf.synthetic_layout("uniform_square", n, seed=seed), d)


BLOCK_PROFILES = {
    "exact, pairs off the pattern": lambda: itf.exact_profile(_knn_design(40, 6, 1), itf.ExposureMapping.threshold(3), 0.5),
    "exact, positive rank-one entries": lambda: cancelling_profile(np.random.default_rng(2), 30),
    "exact, every pair on the pattern": _ring_exact_profile,
    "monte carlo": lambda: itf.monte_carlo_profile(_knn_design(30, 3, 3), itf.ExposureMapping.threshold(2), 0.5, 4096, 4),
    "enumeration": lambda: itf.enumerated_profile(_knn_design(10, 3, 5), itf.ExposureMapping.product(), 0.7),
}


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("kind", sorted(BLOCK_PROFILES))
def test_pair_blocks_give_bit_identical_variances(monkeypatch, kind, block):
    # The weights built in blocks of 1, 7 and the default number of pairs,
    # summed in row chunks of the default size and of one row each, give
    # every output of a four-row call bit for bit as one block of all pairs
    # in one chunk of all rows does, clipped and unclipped; and each row as a
    # call of its own. Profiles with pairs off the pattern also fill the
    # buffer of the rank-one correction block by block.
    profile = BLOCK_PROFILES[kind]()
    block = block or monotone._PAIR_BLOCK
    gen = np.random.default_rng(6)
    values = gen.gamma(2.0, 5.0, size=(4, profile.n))
    indicator = (gen.random((4, profile.n)) < 0.6).astype(np.int8)
    for clip in (True, False):
        monkeypatch.setattr(monotone, "_PAIR_BLOCK", profile.rows.size + 1)
        monkeypatch.setattr(monotone, "_BLOCK", 4 * (2 * profile.n + profile.rows.size))
        want = _variances(values, indicator, profile, clip)
        monkeypatch.setattr(monotone, "_PAIR_BLOCK", block)
        for rows in (1, BLOCK_ROWS):
            monkeypatch.setattr(monotone, "_BLOCK", rows)
            got = _variances(values, indicator, profile, clip)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        for row in range(4):
            alone = _variances(values[row : row + 1], indicator[row : row + 1], profile, clip)
            assert all(np.array_equal(a[row : row + 1], b) for a, b in zip(got, alone))


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
@pytest.mark.parametrize("kind", sorted(BLOCK_PROFILES))
def test_row_sums_in_pair_blocks_equal_the_bincount_sums(monkeypatch, kind, block):
    # The excess row sums added block by block with np.add.at equal, bit
    # for bit, the two weighted bincounts of the whole pattern.
    profile = BLOCK_PROFILES[kind]()
    p, pp = profile.p, profile.p * profile.p
    pair_excess = profile.values - pp
    want = (
        (profile.diag - p * (1.0 - p)) - pp
        + np.bincount(profile.rows, weights=pair_excess, minlength=profile.n)
        + np.bincount(profile.cols, weights=pair_excess, minlength=profile.n)
    )
    monkeypatch.setattr("interfere.exposure._PAIR_BLOCK", block or _PAIR_BLOCK)
    got = _finalize(p, profile.diag, profile.rows, profile.cols, profile.values, 0, profile.method)
    assert got.row_excess.tobytes() == want.tobytes()
    assert got.excess_total == float(want.sum())


@pytest.mark.parametrize("rows", [1, 4])
def test_weights_are_built_once_per_call(monkeypatch, rows):
    # Four rows in chunks of one row each read every block four times, and
    # one row reads them once; either way each block is built once.
    profile = BLOCK_PROFILES["exact, pairs off the pattern"]()
    monkeypatch.setattr(monotone, "_PAIR_BLOCK", 7)
    monkeypatch.setattr(monotone, "_BLOCK", 1)
    built, weights = [], monotone._weights

    def counted(*args):
        built.append(0)
        for block in weights(*args):
            built[-1] += 1
            yield block

    monkeypatch.setattr(monotone, "_weights", counted)
    gen = np.random.default_rng(10)
    values = gen.gamma(2.0, 5.0, size=(rows, profile.n))
    indicator = (gen.random((rows, profile.n)) < 0.6).astype(np.int8)
    _variances(values, indicator, profile)
    assert built == [-(-profile.n // 7) - (-profile.rows.size // 7)]


def test_zero_joint_pair_in_the_last_block_raises(monkeypatch):
    # Pair (5, 7), the 27th of 28, has joint probability 0; in blocks of 7
    # pairs it sits in the last block, and only it is exposed together.
    profile = ring_profile()
    at = int(np.flatnonzero((profile.rows == 5) & (profile.cols == 7))[0])
    assert profile.values[at] == 0.0
    monkeypatch.setattr(monotone, "_PAIR_BLOCK", 7)
    assert at // 7 == (profile.rows.size - 1) // 7 == 3
    indicator = np.zeros((1, 8), dtype=np.int8)
    indicator[0, [5, 7]] = 1
    for clip in (True, False):
        with pytest.raises(ZeroJointProbabilityError):
            _variances(np.ones((1, 8)), indicator, profile, clip)
    indicator[0, 7] = 0
    assert np.isfinite(_variances(np.ones((1, 8)), indicator, profile)[2]).all()


def test_bound_memory_above_the_profile_is_below_the_profile_size():
    # An n = 1 000 Monte Carlo profile holds all 499 500 pairs (12 MB), and
    # the bound keeps the K entries with nonzero weight. Beyond the profile,
    # a one-row variance holds one buffer row of n + pairs floats and one
    # block of pairs: while a block is built or read, at most five of its
    # 8-byte arrays (the excess, the kept positions, the kept weights, their
    # two indices, the second factor of the products) are alive.
    nbhd = _knn_design(1000, 6, 7)
    mapping = itf.ExposureMapping.threshold(3)
    profile = itf.monte_carlo_profile(nbhd, mapping, 0.5, 2048, seed=8)
    assert not profile.off_pattern  # no buffer for the rank-one correction
    size = sum(a.nbytes for a in (profile.diag, profile.rows, profile.cols, profile.values, profile.row_excess))
    gen = np.random.default_rng(9)
    exposure = itf.evaluate_exposure((gen.random(1000) < 0.5).astype(np.int8), nbhd, mapping)
    values = gen.gamma(2.0, 5.0, size=1000)
    tracemalloc.start()
    try:
        variance = itf.conservative_variance(values, exposure, profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert variance > 0
    assert peak < size
    assert peak < 8 * (1000 + profile.rows.size) + 40 * monotone._PAIR_BLOCK
