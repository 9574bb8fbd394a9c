"""The float elimination kernel produces a reduced row echelon form."""

import numpy as np

from amenalyzer.linalg import rref_float


def _random_system(seed, shape=(30, 18)):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[:, 5] = 1.5 * a[:, 2] - 0.25 * a[:, 0]  # plant a dependency
    return a.astype(np.complex128)


def test_inplace_kernel_produces_rref():
    a = _random_system(3)
    reduced, pivots = rref_float(a)
    for r, p in enumerate(pivots):
        col = reduced[:, p]
        assert abs(col[r] - 1.0) < 1e-12
        assert np.abs(np.delete(col, r)).max() < 1e-9
