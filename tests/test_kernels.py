"""The float elimination kernel produces a reduced row echelon form, the
same one as the whole-row reference kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import _kernels
from amenalyzer.algebra import matrix_algebra, truncated_polynomial, upper_triangular
from amenalyzer.corpus import corpus
from amenalyzer.derivations import _derivation_rows
from amenalyzer.linalg import DEFAULT_TOL, FLOAT, matrix_scale, rref_float

from oracles import reference_rref_inplace


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


def _assert_kernel_matches_reference(arr):
    tol_abs = DEFAULT_TOL * matrix_scale(arr)
    got, want = arr.copy(), arr.copy()
    rank, pivots = _kernels.rref_inplace(got, tol_abs)
    assert (rank, pivots) == reference_rref_inplace(want, tol_abs)
    assert np.array_equal(got, want)
    out, out_pivots = rref_float(arr, DEFAULT_TOL)
    assert out_pivots == pivots
    got[np.abs(got) <= tol_abs] = 0.0
    assert np.array_equal(out, got[:rank])
    for part in (out.real, out.imag):
        assert not np.signbit(part[part == 0]).any()


# small Gaussian integers cancel exactly, so many factors become exactly zero
_PALETTE = np.array([1, -1, 2, 0.5, 1j, -1j, 1 + 1j, 3 - 2j], dtype=np.complex128)


@st.composite
def sparse_complex_matrix(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    a = np.where(rng.random((nrows, ncols)) < density, rng.choice(_PALETTE, (nrows, ncols)), 0)
    if draw(st.booleans()):
        a = a * rng.standard_normal((nrows, ncols))
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        a[:, c] = 0.0
    for _ in range(draw(st.integers(0, 4))):
        a[rng.integers(nrows)] = a[rng.integers(nrows)]
    # plant moduli just under and just over the pivot threshold in zero
    # entries; they are far below the row norms, so the threshold stays put
    tol_abs = DEFAULT_TOL * matrix_scale(a)
    zeros = np.argwhere(a == 0)
    for _ in range(draw(st.integers(0, 4)) if len(zeros) else 0):
        side = draw(st.sampled_from([1 - 1e-6, 1 + 1e-6]))
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        a[tuple(zeros[rng.integers(len(zeros))])] = side * tol_abs * unit
    assert DEFAULT_TOL * matrix_scale(a) == tol_abs
    return a.astype(np.complex128)


@given(a=sparse_complex_matrix())
@settings(max_examples=300, deadline=None)
def test_kernel_equals_whole_row_reference(a):
    _assert_kernel_matches_reference(a)


def _algebras():
    yield from corpus().values()
    yield upper_triangular(5)
    yield matrix_algebra(4)
    yield truncated_polynomial(12)
    yield truncated_polynomial(16)


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_kernel_equals_whole_row_reference_on_derivation_systems(a):
    _assert_kernel_matches_reference(_derivation_rows(a, FLOAT))
