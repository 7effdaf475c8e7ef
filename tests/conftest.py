import numpy as np
import pytest

import interfere as itf


def random_design(rng, max_units=12, rhos=(0.2, 0.5, 0.8)):
    """One random small design: (neighborhoods, mapping, rho)."""
    n = int(rng.integers(2, max_units + 1))
    dim = int(rng.integers(1, 3))
    coords = rng.random((n, dim))
    d = int(rng.integers(1, n + 1))
    nbhd = itf.build_knn_neighborhoods(coords, d)
    if rng.random() < 0.5:
        mapping = itf.ExposureMapping.product()
    else:
        mapping = itf.ExposureMapping.threshold(int(rng.integers(1, d + 1)))
    rho = float(rng.choice(rhos))
    return nbhd, mapping, rho


def incidence(nbhd):
    """Dense (n, n) 0/1 matrix M with M[i, u] = 1 iff u is in set i."""
    m = np.zeros((nbhd.n, nbhd.n), dtype=float)
    m[np.repeat(np.arange(nbhd.n), nbhd.k), nbhd.members.ravel()] = 1.0
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def line6_design():
    """Six units on a line, threshold mapping (d_min=2, d=3), rho=0.5."""
    coords = np.arange(6.0)[:, None]
    nbhd = itf.build_knn_neighborhoods(coords, 3)
    mapping = itf.ExposureMapping.threshold(2)
    profile = itf.exact_profile(nbhd, mapping, 0.5)
    return coords, nbhd, mapping, profile
