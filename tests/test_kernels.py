"""The float elimination kernel produces a reduced row echelon form, the
same one as the whole-row reference kernel."""

import mmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import _kernels, linalg
from amenalyzer.algebra import matrix_algebra, tensor_product, truncated_polynomial, upper_triangular
from amenalyzer.corpus import corpus
from amenalyzer.linalg import DEFAULT_TOL, matrix_scale, rref_float, system_zeros

from oracles import derivation_constraint_matrix, reference_rref_inplace


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
    # the normalized rows are cleared at DEFAULT_TOL, whatever the input's scale
    got[np.abs(got) <= DEFAULT_TOL] = 0.0
    assert np.array_equal(out, got[:rank])
    for part in (out.real, out.imag):
        assert not np.signbit(part[part == 0]).any()


# small Gaussian integers cancel exactly, so many factors become exactly zero
_PALETTE = np.array([1, -1, 2, 0.5, 1j, -1j, 1 + 1j, 3 - 2j], dtype=np.complex128)
# +-1 entries tie in modulus, so argmax must break ties alike in both dtypes
_REAL_PALETTE = np.array([1, -1, 1, -1, 2, -3, 0.5, 1 / 3])


@st.composite
def sparse_matrix(draw, palette):
    """A matrix of the palette's dtype, with zero rows and columns, repeated
    rows and planted moduli at and around the pivot threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nrows, ncols = draw(st.integers(1, 24)), draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    a = np.where(rng.random((nrows, ncols)) < density, rng.choice(palette, (nrows, ncols)), 0)
    if draw(st.booleans()):
        a = a * rng.standard_normal((nrows, ncols))
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        a[:, c] = 0.0
    for r in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
        a[r] = 0.0
    for _ in range(draw(st.integers(0, 4))):
        a[rng.integers(nrows)] = a[rng.integers(nrows)]
    # plant moduli at, just under and just over the pivot threshold in zero
    # entries of rows whose sum of squares is at most half the largest; no
    # rounding of those sums reaches the largest, so the threshold stays put
    tol_abs = DEFAULT_TOL * matrix_scale(a)
    squares = (np.abs(a) ** 2).sum(axis=1)
    zeros = np.argwhere((a == 0) & (squares <= squares.max() / 2)[:, None])
    units = [1, -1, 1j, -1j] if a.dtype == np.complex128 else [1, -1]
    for _ in range(draw(st.integers(0, 4)) if len(zeros) else 0):
        side = draw(st.sampled_from([1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6]))
        unit = draw(st.sampled_from(units))
        a[tuple(zeros[rng.integers(len(zeros))])] = side * tol_abs * unit
    assert DEFAULT_TOL * matrix_scale(a) == tol_abs
    return a.astype(palette.dtype)


@given(a=sparse_matrix(_PALETTE))
@settings(max_examples=300, deadline=None)
def test_kernel_equals_whole_row_reference(a):
    _assert_kernel_matches_reference(a)


@given(a=st.one_of(sparse_matrix(_PALETTE), sparse_matrix(_REAL_PALETTE)))
@settings(max_examples=200, deadline=None)
def test_rref_float_leaves_read_only_and_writeable_arrays_unchanged(a):
    frozen = a.copy()
    frozen.setflags(write=False)
    out, pivots = rref_float(frozen)
    assert frozen.tobytes() == a.tobytes()
    writeable = a.copy()
    again, again_pivots = rref_float(writeable)
    assert writeable.dtype == a.dtype and writeable.tobytes() == a.tobytes()
    assert again_pivots == pivots
    assert again.tobytes() == out.tobytes()  # bit for bit, signs of zeros too
    assert not np.shares_memory(again, writeable)


def _algebras():
    yield from corpus().values()
    yield upper_triangular(5)
    yield matrix_algebra(4)
    yield truncated_polynomial(12)
    yield truncated_polynomial(16)
    yield tensor_product(corpus()["S3"], truncated_polynomial(2), name="S3xTruncPoly2")


_SYSTEMS = {}


def _derivation_system(a):
    """The whole n^3-by-n^2 derivation system of the oracle, built once per
    algebra and handed out as a copy."""
    if a.name not in _SYSTEMS:
        _SYSTEMS[a.name] = derivation_constraint_matrix(a)
    return _SYSTEMS[a.name].copy()


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_kernel_equals_whole_row_reference_on_derivation_systems(a):
    # the reference divides by the pivot, so it is compared in complex128; the
    # float64 system is tied to this one bit for bit by the tests below
    _assert_kernel_matches_reference(_derivation_system(a))


def _assert_float64_reduces_to_complex128_bits(a):
    want, want_pivots = rref_float(a.astype(np.complex128))
    dtypes = []
    eliminate = linalg._rref_at

    def spy(arr, tol_abs):
        dtypes.append(arr.dtype)
        return eliminate(arr, tol_abs)

    with mock.patch.object(linalg, "_rref_at", spy):
        got, got_pivots = rref_float(a)
    assert dtypes == [np.float64]  # eliminated in its own dtype
    assert got.dtype == want.dtype == np.complex128
    assert got_pivots == want_pivots
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros too


@given(a=sparse_matrix(_REAL_PALETTE))
@settings(max_examples=300, deadline=None)
def test_rref_float_of_a_float64_matrix_has_the_bits_of_its_complex128_elimination(a):
    _assert_float64_reduces_to_complex128_bits(a)


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_float64_derivation_systems_reduce_to_the_bits_of_their_complex128_elimination(a):
    system = _derivation_system(a)
    assert not system.imag.any()  # every corpus and ladder algebra is real
    _assert_float64_reduces_to_complex128_bits(np.ascontiguousarray(system.real))


def _whole_array_scale(a):
    return max(1.0, float(np.sqrt((np.abs(a) ** 2).sum(axis=1)).max()))


@given(a=sparse_matrix(_PALETTE), block=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_matrix_scale_by_row_blocks_equals_the_whole_array_formula(a, block):
    with mock.patch.object(linalg, "_SCALE_BLOCK", block):
        assert matrix_scale(a) == _whole_array_scale(a)


@pytest.mark.parametrize("a", list(_algebras()), ids=lambda a: a.name)
def test_matrix_scale_of_derivation_systems_equals_the_whole_array_formula(a):
    arr = np.ascontiguousarray(_derivation_system(a).real)  # float64, as a real system's blocks are
    assert matrix_scale(arr) == _whole_array_scale(arr)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 5), (4096, 256), (8, 8, 8, 8, 8)])
def test_system_zeros_are_writable_contiguous_complex_zeros(shape):
    for dtype, value in ((np.complex128, 1 - 2j), (np.float64, -1.5)):
        a = system_zeros(shape, dtype)
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.writeable and a.flags.c_contiguous
        assert not a.any()
        a[...] = value
        assert (a == value).all()


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="large systems are mapped on Linux only")
def test_large_system_zeros_are_mapped_on_pages_of_their_own():
    def owner(a):
        while isinstance(a, np.ndarray):
            a = a.base
        return a.obj if isinstance(a, memoryview) else a

    assert isinstance(owner(system_zeros((4096, 256), np.complex128)), mmap.mmap)
    assert isinstance(owner(system_zeros((16, 16, 16, 16, 16), np.complex128)), mmap.mmap)
    assert owner(system_zeros((64, 64), np.complex128)) is None  # 64 KiB, from numpy's allocator
    assert isinstance(owner(system_zeros((128, 1024), np.float64)), mmap.mmap)  # 1 MiB
    assert owner(system_zeros((128, 1023), np.float64)) is None
