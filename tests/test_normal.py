import math

import numpy as np
import pytest
from scipy import special, stats

from interfere.errors import ValidationError
from interfere.normal import norm_cdf, norm_ppf


def test_matches_reference_quantiles_to_1e9():
    grid = np.concatenate(
        [
            np.array([1e-12, 1e-9, 1e-6, 1e-4]),
            np.linspace(0.001, 0.999, 499),
            1.0 - np.array([1e-12, 1e-9, 1e-6, 1e-4]),
        ]
    )
    ours = np.array([norm_ppf(q) for q in grid])
    reference = stats.norm.ppf(grid)
    assert np.max(np.abs(ours - reference)) < 1e-9


def test_known_values():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    # Bonferroni level for three configurations at overall 0.05
    assert norm_ppf(1 - 0.05 / 3) == pytest.approx(2.128045234696861, abs=1e-9)


def test_symmetry_and_monotonicity():
    qs = np.linspace(0.01, 0.99, 97)
    values = [norm_ppf(q) for q in qs]
    assert all(a < b for a, b in zip(values, values[1:]))
    for q in (0.01, 0.2, 0.37):
        assert norm_ppf(q) == pytest.approx(-norm_ppf(1 - q), abs=1e-12)


def test_cdf_roundtrip():
    for q in (0.001, 0.025, 0.5, 0.83, 0.999):
        assert norm_cdf(norm_ppf(q)) == pytest.approx(q, abs=1e-12)


def test_rejects_degenerate_levels():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            norm_ppf(bad)


# The hand-written AS 241 that norm_ppf used before it called the standard
# library, kept as the reference of the levels the package forms. It left out
# the leading far-tail coefficient f7 = 2.04426310338993978564e-15 of the
# denominator below, which only matters for levels under e^-25.
_OLD_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
          1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
          3.3430575583588128105e4, 2.5090809287301226727e3)
_OLD_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
          2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
          5.2264952788528545610e3)
_OLD_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
          3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
          2.27238449892691845833e-2, 7.74545014278341407640e-4)
_OLD_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
          1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
          1.05075007164441684324e-9)


def _old_poly(coefs, x):
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * x + c
    return acc


def _old_norm_ppf(q):
    """The former norm_ppf on [e^-25, 1 - e^-25], where it never reached the
    far-tail branch."""
    r = q - 0.5
    if abs(r) <= 0.425:
        s = 0.180625 - r * r
        return r * _old_poly(_OLD_A, s) / _old_poly(_OLD_B, s)
    s = math.sqrt(-math.log(q if r < 0 else 1.0 - q))
    assert s <= 5.0
    value = _old_poly(_OLD_C, s - 1.6) / _old_poly(_OLD_D, s - 1.6)
    return -value if r < 0 else value


def test_bit_identical_to_former_formula_above_e_minus_25():
    rng = np.random.default_rng(20261018)
    tail = np.exp(-rng.uniform(0.0, 25.0, 20_000))
    named = [0.95, 0.975, 1 - 0.05 / 3, 1 - 0.025 / 3, 1 - 0.05 / 5, 0.5, math.exp(-25.0)]
    levels = np.concatenate([tail, 1.0 - tail, rng.random(20_000), named])
    levels = levels[(levels >= math.exp(-25.0)) & (levels <= 1.0 - math.exp(-25.0))]
    mismatches = [q for q in map(float, levels) if norm_ppf(q) != _old_norm_ppf(q)]
    assert mismatches == []


@pytest.mark.parametrize("q", [1e-20, 1e-50, 1e-300, 5e-324])
def test_far_tail_matches_ndtri(q):
    reference = float(special.ndtri(q))
    assert abs(norm_ppf(q) - reference) <= 1e-14 * abs(reference)
