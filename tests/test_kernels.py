"""The float elimination kernel produces a reduced row echelon form, the
same one as the whole-row reference kernel."""

import mmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import _kernels, linalg
from amenalyzer.algebra import matrix_algebra, truncated_polynomial, upper_triangular
from amenalyzer.corpus import corpus
from amenalyzer.derivations import _broadcast_derivation_rows
from amenalyzer.linalg import DEFAULT_TOL, matrix_scale, rref_float, system_zeros

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
    out, out_pivots = rref_float(arr)
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


@given(a=sparse_complex_matrix())
@settings(max_examples=200, deadline=None)
def test_rref_float_copies_a_read_only_array_and_reduces_a_writeable_one_in_place(a):
    frozen = a.copy()
    frozen.setflags(write=False)
    out, pivots = rref_float(frozen)
    assert np.array_equal(frozen, a)
    writeable = a.copy()
    in_place, in_place_pivots = rref_float(writeable)
    assert in_place_pivots == pivots
    assert in_place.tobytes() == out.tobytes()  # bit for bit, signs of zeros too
    assert in_place.base is writeable


def _algebras():
    yield from corpus().values()
    yield upper_triangular(5)
    yield matrix_algebra(4)
    yield truncated_polynomial(12)
    yield truncated_polynomial(16)


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_kernel_equals_whole_row_reference_on_derivation_systems(a):
    _assert_kernel_matches_reference(_broadcast_derivation_rows(a.complex_sc))


def _whole_array_scale(a):
    return max(1.0, float(np.sqrt((np.abs(a) ** 2).sum(axis=1)).max()))


@given(a=sparse_complex_matrix(), block=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_matrix_scale_by_row_blocks_equals_the_whole_array_formula(a, block):
    with mock.patch.object(linalg, "_SCALE_BLOCK", block):
        assert matrix_scale(a) == _whole_array_scale(a)


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_matrix_scale_of_derivation_systems_equals_the_whole_array_formula(a):
    arr = _broadcast_derivation_rows(a.complex_sc)
    assert matrix_scale(arr) == _whole_array_scale(arr)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 5), (4096, 256), (8, 8, 8, 8, 8)])
def test_system_zeros_are_writable_contiguous_complex_zeros(shape):
    a = system_zeros(shape)
    assert a.shape == shape and a.dtype == np.complex128
    assert a.flags.writeable and a.flags.c_contiguous
    assert not a.any()
    a[...] = 1 - 2j
    assert (a == 1 - 2j).all()


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="large systems are mapped on Linux only")
def test_large_system_zeros_are_mapped_on_pages_of_their_own():
    def owner(a):
        while isinstance(a, np.ndarray):
            a = a.base
        return a.obj if isinstance(a, memoryview) else a

    assert isinstance(owner(system_zeros((4096, 256))), mmap.mmap)
    assert isinstance(owner(system_zeros((16, 16, 16, 16, 16))), mmap.mmap)
    assert owner(system_zeros((64, 64))) is None  # 64 KiB, from numpy's allocator
