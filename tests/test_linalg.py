"""Kernel, RREF, and subspace-lattice behaviour on both backends."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer.linalg import (
    AmbientMismatch,
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    annihilator,
    full_space,
    matvec_exact,
    nullspace,
    rowspace,
    rref_exact,
    rref_float,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    trivial_space,
)
from amenalyzer.scalars import ONE, ZERO, QQi, qq

from oracles import reference_rref_exact


def exact_rows(int_rows):
    return [[qq(x) for x in row] for row in int_rows]


def test_rref_identity_is_fixed():
    rows, pivots = rref_exact(exact_rows([[1, 0], [0, 1]]))
    assert rows == ((ONE, ZERO), (ZERO, ONE))
    assert pivots == (0, 1)


def test_rref_zero_matrix_rank_zero():
    rows, pivots = rref_exact(exact_rows([[0, 0, 0]] * 3))
    assert rows == ()
    assert pivots == ()


def test_rref_dependent_rows():
    rows, pivots = rref_exact(exact_rows([[1, 2], [2, 4]]))
    assert rows == ((qq(1), qq(2)),)
    assert pivots == (0,)


def test_nullspace_zero_map_is_full():
    s = nullspace(exact_rows([[0, 0], [0, 0]]), 2)
    assert s.dim == 2


def test_nullspace_injective_map_is_trivial():
    s = nullspace(exact_rows([[1, 0], [0, 1]]), 2)
    assert s.dim == 0


def test_nullspace_single_equation():
    s = nullspace(exact_rows([[1, 1]]), 2)
    assert s.dim == 1
    assert s.rows == ((qq(1), qq(-1)),)


def test_sum_of_axes_is_plane():
    x = rowspace(exact_rows([[1, 0]]), 2)
    y = rowspace(exact_rows([[0, 1]]), 2)
    assert subspace_sum(x, y) == full_space(2)


def test_intersect_idempotent():
    v = rowspace(exact_rows([[1, 2, 0], [0, 0, 1]]), 3)
    assert subspace_intersect(v, v) == v


def test_intersect_transverse_lines_is_zero():
    x = rowspace(exact_rows([[1, 0]]), 2)
    y = rowspace(exact_rows([[0, 1]]), 2)
    assert subspace_intersect(x, y).dim == 0


def test_ambient_mismatch_raises():
    x = rowspace(exact_rows([[1, 0]]), 2)
    y = rowspace(exact_rows([[1, 0, 0]]), 3)
    with pytest.raises(AmbientMismatch):
        subspace_sum(x, y)


def test_contains_rejects_wrong_length():
    x = rowspace(exact_rows([[1, 0]]), 2)
    with pytest.raises(AmbientMismatch):
        x.contains([qq(1)])


small_int = st.integers(min_value=-4, max_value=4)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(m=st.integers(2, 5).flatmap(lambda c: int_matrix(4, c)))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_both_backends(m):
    cols = len(m[0])
    ex_rows, ex_piv = rref_exact(exact_rows(m))
    kernel = nullspace(exact_rows(m), cols)
    assert len(ex_piv) + kernel.dim == cols
    fl = np.array(m, dtype=np.complex128)
    _, fl_piv = rref_float(fl.copy())
    fkernel = nullspace(fl, cols, FLOAT)
    # pivot columns are intrinsic to the row space, so the backends agree
    assert fl_piv == ex_piv
    assert fkernel.dim == kernel.dim


@given(m=int_matrix(4, 4))
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(m):
    rows1, piv1 = rref_exact(exact_rows(m))
    rows2, piv2 = rref_exact(list(rows1))
    assert rows1 == rows2 and piv1 == piv2


@given(m=int_matrix(3, 5))
@settings(max_examples=40, deadline=None)
def test_exact_kernel_vectors_annihilate(m):
    kernel = nullspace(exact_rows(m), 5)
    for v in kernel.basis_vectors():
        image = matvec_exact(exact_rows(m), list(v))
        assert all(x.is_zero() for x in image)


@given(a=int_matrix(2, 4), b=int_matrix(2, 4))
@settings(max_examples=40, deadline=None)
def test_lattice_laws(a, b):
    sa = rowspace(exact_rows(a), 4)
    sb = rowspace(exact_rows(b), 4)
    assert subspace_sum(sa, sb) == subspace_sum(sb, sa)
    assert subspace_intersect(sa, sb) == subspace_intersect(sb, sa)
    assert subspace_leq(subspace_intersect(sa, sb), sa)
    assert subspace_leq(sa, subspace_sum(sa, sb))


@given(a=int_matrix(2, 4), b=int_matrix(2, 4))
@settings(max_examples=40, deadline=None)
def test_dimension_formula(a, b):
    sa = rowspace(exact_rows(a), 4)
    sb = rowspace(exact_rows(b), 4)
    total = subspace_sum(sa, sb).dim + subspace_intersect(sa, sb).dim
    assert total == sa.dim + sb.dim


def test_annihilator_dimension():
    s = rowspace(exact_rows([[1, 2, 3], [0, 1, 1]]), 3)
    ann = annihilator(s)
    assert ann.dim == 1
    for f in ann.basis_vectors():
        for v in s.basis_vectors():
            acc = ZERO
            for x, y in zip(f, v):
                acc = acc + x * y
            assert acc.is_zero()


def test_float_annihilator_and_intersect_leave_their_operands_rows_unchanged():
    rng = np.random.default_rng(5)
    a = rowspace(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)), 6, FLOAT)
    b = rowspace(rng.standard_normal((4, 6)), 6, FLOAT)
    before = (a.rows.copy(), b.rows.copy())
    assert annihilator(a).dim == 3
    assert subspace_intersect(a, b).dim == 1
    assert np.array_equal(a.rows, before[0]) and np.array_equal(b.rows, before[1])


def test_float_nullspace_reduces_a_writeable_complex128_caller_array_in_place():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    rows, pivots = rref_float(m.copy())
    real = m.real.copy()
    kernel = nullspace(m, 7, FLOAT)
    assert kernel.dim == 7 - len(pivots)
    assert np.array_equal(m[: len(pivots)], rows)  # m now holds its RREF
    real_rows, real_pivots = rref_float(real.copy())
    assert nullspace(real, 7, FLOAT).dim == 7 - len(real_pivots)
    assert real.dtype == np.float64  # still float64, and now holding its RREF
    assert np.array_equal(real[: len(real_pivots)], real_rows)
    frozen = m.real.copy()
    frozen.setflags(write=False)
    for other in (m.real.astype(np.float32), np.arange(-14, 14).reshape(4, 7), frozen):
        before = other.copy()
        nullspace(other, 7, FLOAT)
        assert other.dtype == before.dtype and np.array_equal(other, before)  # copied, not reduced


def test_float_nullspace_residual_bound():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    kernel = nullspace(m.copy(), 9, FLOAT)  # m itself would be reduced in place
    norm = max(np.linalg.norm(row) for row in m)
    for v in kernel.basis_vectors():
        assert np.abs(m @ v).max() <= DEFAULT_TOL * norm * 10


def test_trivial_and_full_space_extremes():
    for backend in (EXACT, FLOAT):
        assert trivial_space(3, backend).dim == 0
        assert full_space(3, backend).dim == 3
        assert subspace_leq(trivial_space(3, backend), full_space(3, backend))


# numerators up to 1e9 over denominators up to 1e6
big_fraction = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))

# Entries mix zeros, integers, fractions and non-real values, so the sparse
# path meets fill-in, cancellation and complex pivots; pure-imaginary and
# negative ones lead rows too, and large ones spread the common denominators.
qqi_entry = st.one_of(
    st.just(ZERO),
    st.builds(qq, st.integers(-3, 3)),
    st.builds(
        QQi,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
    st.builds(QQi, st.just(0), st.integers(-3, 3)),
    st.builds(qq, st.integers(-3, -1)),
    st.builds(QQi, big_fraction, big_fraction),
)


@st.composite
def qqi_matrix_with_plants(draw):
    cols = draw(st.integers(1, 6))
    row = st.lists(qqi_entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=0, max_size=6))
    # plant zero rows, exact duplicates and a sum of two rows
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [ZERO] * cols)
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.sampled_from(rows))
            rows.insert(draw(st.integers(0, len(rows))), list(src))
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if draw(st.booleans()):
            rows.append([x + y for x, y in zip(a, b)])
    return rows


@st.composite
def dense_complex_matrix(draw):
    """Up to 8 x 10 entries, each with a nonzero imaginary part."""
    cols = draw(st.integers(1, 10))
    part = st.one_of(st.integers(-3, 3).map(Fraction), big_fraction)
    entry = st.builds(QQi, part, part.filter(bool))
    row = st.lists(entry, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=8))


@given(m=st.one_of(qqi_matrix_with_plants(), dense_complex_matrix()), as_generator=st.booleans())
@settings(max_examples=150, deadline=None)
def test_rref_exact_equals_dense_reference(m, as_generator):
    expected = reference_rref_exact(m)
    rows = (tuple(r) for r in m) if as_generator else m
    assert rref_exact(rows) == expected


@given(m=qqi_matrix_with_plants())
@settings(max_examples=100, deadline=None)
def test_float_lane_converts_qqi_rows_at_the_door(m):
    cols = len(m[0]) if m else 3
    pre = np.array([[complex(x) for x in r] for r in m], dtype=np.complex128).reshape(-1, cols)
    for solve in (nullspace, rowspace):
        got = solve(m, cols, FLOAT)
        want = solve(pre.copy(), cols, FLOAT)  # a writeable array is reduced in place
        assert np.array_equal(got.rows, want.rows)
        assert got.pivots == want.pivots


@given(m=qqi_matrix_with_plants(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_dict_rows_equal_the_same_rows_given_dense(m, data):
    cols = len(m[0]) if m else 3
    mixed = []
    for row in m:
        if data.draw(st.booleans()):
            # the nonzeros in any column order, and explicit zeros such as c - c;
            # a zero row becomes an empty dict or a dict of zeros
            sparse = {}
            for c in data.draw(st.permutations(range(cols))):
                if row[c]:
                    sparse[c] = row[c]
                elif data.draw(st.booleans()):
                    x = data.draw(qqi_entry)
                    sparse[c] = x - x
            row = sparse
        mixed.append(row)
    for backend in (EXACT, FLOAT):
        for solve in (nullspace, rowspace):
            got = solve(mixed, cols, backend)
            want = solve(m, cols, backend)
            assert got.pivots == want.pivots
            if backend == EXACT:
                assert got.rows == want.rows
            else:
                assert np.array_equal(got.rows, want.rows)


@given(m=qqi_matrix_with_plants(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_exact_membership_equals_rank_test(m, data):
    cols = len(m[0]) if m else 3
    s = rowspace(m, cols)
    # a combination of the spanning rows (always inside), plus maybe a random row
    v = [ZERO] * cols
    for row in m:
        c = data.draw(qqi_entry)
        v = [x + c * y for x, y in zip(v, row)]
    if data.draw(st.booleans()):
        v = [x + y for x, y in zip(v, data.draw(st.lists(qqi_entry, min_size=cols, max_size=cols)))]
    inside = rowspace(list(s.rows) + [v], cols).dim == s.dim
    assert s.contains(v) == inside
