"""Kernel, RREF, and subspace-lattice behaviour on both backends."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import _kernels, linalg
from amenalyzer.linalg import (
    AmbientMismatch,
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    annihilator,
    nullspace,
    rowspace,
    rref_exact,
    rref_float,
    subspace_equal,
    subspace_intersect,
    subspace_leq,
)
from amenalyzer.scalars import ONE, ZERO, QQi, qq

from oracles import matvec_exact, reference_reduce, reference_reduce_float, reference_rref_exact


def exact_rows(int_rows):
    return [[qq(x) for x in row] for row in int_rows]


def span_of_both(a, b):
    """The sum of two subspaces: the row space of their stacked bases."""
    return rowspace(list(a.rows) + list(b.rows), a.ambient, a.backend)


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
    assert subspace_equal(span_of_both(x, y), nullspace([], 2))


def test_intersect_idempotent():
    v = rowspace(exact_rows([[1, 2, 0], [0, 0, 1]]), 3)
    assert subspace_equal(subspace_intersect(v, v), v)


def test_intersect_transverse_lines_is_zero():
    x = rowspace(exact_rows([[1, 0]]), 2)
    y = rowspace(exact_rows([[0, 1]]), 2)
    assert subspace_intersect(x, y).dim == 0


def test_ambient_mismatch_raises():
    x = rowspace(exact_rows([[1, 0]]), 2)
    y = rowspace(exact_rows([[1, 0, 0]]), 3)
    with pytest.raises(AmbientMismatch):
        subspace_intersect(x, y)


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
    assert subspace_equal(span_of_both(sa, sb), span_of_both(sb, sa))
    assert subspace_equal(subspace_intersect(sa, sb), subspace_intersect(sb, sa))
    assert subspace_leq(subspace_intersect(sa, sb), sa)
    assert subspace_leq(sa, span_of_both(sa, sb))


@given(a=int_matrix(2, 4), b=int_matrix(2, 4))
@settings(max_examples=40, deadline=None)
def test_dimension_formula(a, b):
    sa = rowspace(exact_rows(a), 4)
    sb = rowspace(exact_rows(b), 4)
    total = span_of_both(sa, sb).dim + subspace_intersect(sa, sb).dim
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


def test_float_nullspace_and_rowspace_leave_every_caller_array_unchanged():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    frozen = m.real.copy()
    frozen.setflags(write=False)
    arrays = (m, m.real.copy(), m.real.astype(np.float32), np.arange(-14, 14).reshape(4, 7), frozen)
    for arr in arrays:
        before = arr.copy()
        rank = len(rref_float(before)[1])
        assert nullspace(arr, 7, FLOAT).dim == 7 - rank
        assert arr.dtype == before.dtype and arr.tobytes() == before.tobytes()
        assert rowspace(arr, 7, FLOAT).dim == rank
        assert arr.dtype == before.dtype and arr.tobytes() == before.tobytes()


def test_float_nullspace_residual_bound():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    kernel = nullspace(m.copy(), 9, FLOAT)
    norm = max(np.linalg.norm(row) for row in m)
    for v in kernel.basis_vectors():
        assert np.abs(m @ v).max() <= DEFAULT_TOL * norm * 10


def test_float_pivots_stay_one_when_the_threshold_reaches_one():
    # a row norm of 1e9 puts the threshold at 1.0, the modulus of a pivot
    big = QQi(0, 10**9)
    for rows in ([{0: big}], [{0: ZERO, 1: big}], [[ZERO, big]]):
        s = rowspace(rows, 2, FLOAT)
        want = np.zeros((1, 2))
        want[0, s.pivots[0]] = 1.0
        assert np.array_equal(s.rows, want)
        assert nullspace(rows, 2, FLOAT).dim == 1
    rows, pivots = rref_float(np.array([[1e9j, 0.0]]))
    assert pivots == (0,) and np.array_equal(rows, [[1.0, 0.0]])


def test_float_rref_keeps_small_ratios_of_a_large_row():
    # a row norm of 1e6 puts the pivot threshold at 1e-3; the normalized row is (1, 1e-4)
    m = np.array([[1e6, 100.0]])
    for rows in ([{0: qq(10**6), 1: qq(100)}], [[qq(10**6), qq(100)]], m):
        s = rowspace(rows, 2, FLOAT)
        assert s.pivots == (0,) and abs(s.rows[0, 1] - 1e-4) <= 1e-16
        kernel = nullspace(rows, 2, FLOAT)
        assert kernel.pivots == (0,)
        (v,) = kernel.rows
        assert np.abs(m @ v).max() <= DEFAULT_TOL * 1e6 * np.linalg.norm(v)


def test_kernel_of_a_system_with_no_nonzero_row_is_the_identity_without_elimination():
    ncols = 900
    calls = []

    def spy(name, routine):
        def counted(*args):
            calls.append(name)
            return routine(*args)

        return counted

    identity = tuple(tuple(ONE if c == r else ZERO for c in range(ncols)) for r in range(ncols))
    # the exact core turns a one-entry row into a unit pivot as it is, and
    # converts every other row to Gaussian integers before eliminating it
    with (
        mock.patch.object(linalg, "gaussian_integers", spy("gaussian_integers", linalg.gaussian_integers)),
        mock.patch.object(_kernels, "rref_inplace", spy("rref_inplace", _kernels.rref_inplace)),
    ):
        for rows in ([], [{}] * 3, [[ZERO] * ncols] * 2):
            exact, fl = nullspace(rows, ncols, EXACT), nullspace(rows, ncols, FLOAT)
            assert exact.pivots == fl.pivots == tuple(range(ncols))
            assert exact.rows == identity
            assert np.array_equal(fl.rows, np.eye(ncols))
        assert calls == []
        # the spies see the elimination of a row with two nonzeros
        for backend in (EXACT, FLOAT):
            rowspace([{0: ONE, 1: ONE}], ncols, backend)
    assert calls == ["gaussian_integers", "rref_inplace"]


def test_trivial_and_full_space_extremes():
    for backend in (EXACT, FLOAT):
        trivial = rowspace([], 3, backend)
        full = nullspace([], 3, backend)
        assert trivial.dim == 0
        assert full.dim == 3
        assert subspace_leq(trivial, full)


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
        want = solve(pre.copy(), cols, FLOAT)
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


@st.composite
def dict_row_system(draw):
    """(rows, ncols): a sparse system of {column: QQi} dict rows.

    Each column belongs to one of up to four blocks or to none, so some
    columns are touched by no row, and a draw of one block gives the
    one-block case.  Each row lies on the columns of one block; empty rows,
    explicit zeros, repeats of a row and equal copies of one are planted.
    """
    ncols = draw(st.integers(1, 14))
    nblocks = draw(st.integers(1, 4))
    label = draw(st.lists(st.integers(0, nblocks), min_size=ncols, max_size=ncols))
    blocks = [[c for c in range(ncols) if label[c] == b] for b in range(nblocks)]
    blocks = [cols for cols in blocks if cols]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if not blocks or draw(st.integers(0, 7)) == 0:
            rows.append({})
            continue
        cols = draw(st.sampled_from(blocks))
        picked = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=4, unique=True))
        rows.append({c: draw(qqi_entry) for c in picked})
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        src = draw(st.sampled_from(rows))
        # the same dict again, or an equal one with its entries in another order
        row = src if draw(st.booleans()) else dict(reversed(list(src.items())))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols


def _densified(rows, ncols):
    dense = []
    for row in rows:
        d = [ZERO] * ncols
        for c, x in row.items():
            d[c] = x
        dense.append(d)
    return dense


def _kernel_rows(red, pivots, ncols, zero, one):
    """The kernel basis of an RREF, one dense row per free column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


@given(system=dict_row_system())
@settings(max_examples=200, deadline=None)
def test_exact_blocks_give_the_rref_of_the_whole_system(system):
    rows, ncols = system
    dense = _densified(rows, ncols)
    want = reference_rref_exact(dense)
    want_kernel = reference_rref_exact(_kernel_rows(*want, ncols, ZERO, ONE))
    # the same system as dict rows, as dense rows and as a 2-d array
    for form in (rows, dense, np.array(dense, dtype=object).reshape(-1, ncols)):
        got = rowspace(form, ncols, EXACT)
        assert (got.rows, got.pivots) == want
        kernel = nullspace(form, ncols, EXACT)
        assert (kernel.rows, kernel.pivots) == want_kernel


@given(system=dict_row_system())
@settings(max_examples=200, deadline=None)
def test_float_blocks_match_the_rref_of_the_whole_system(system):
    rows, ncols = system
    dense = _densified(rows, ncols)
    whole = np.array([[complex(x) for x in row] for row in dense], dtype=np.complex128).reshape(-1, ncols)
    want_rows, want_pivots = rref_float(whole)
    basis = np.array(_kernel_rows(want_rows, want_pivots, ncols, 0j, 1 + 0j), dtype=np.complex128)
    kernel_rows, kernel_pivots = rref_float(basis.reshape(-1, ncols))
    # the same system as dict rows, as dense rows and as a 2-d array
    for form in (rows, dense, whole):
        got = rowspace(form, ncols, FLOAT)
        assert got.pivots == want_pivots
        bound = DEFAULT_TOL * max(1.0, float(np.abs(want_rows).max(initial=0.0)))
        assert got.rows.shape == want_rows.shape
        assert np.abs(got.rows - want_rows).max(initial=0.0) <= bound
        kernel = nullspace(form, ncols, FLOAT)
        assert kernel.pivots == kernel_pivots
        assert np.abs(kernel.rows - kernel_rows).max(initial=0.0) <= DEFAULT_TOL * max(
            1.0, float(np.abs(kernel_rows).max(initial=0.0))
        )


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


@given(system=dict_row_system(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_sparse_reduce_equals_the_dense_reference(system, data):
    rows, ncols = system
    s = rowspace(rows, ncols)
    # a combination of the basis rows, plus maybe an arbitrary vector
    v = [ZERO] * ncols
    for row in s.rows:
        c = data.draw(qqi_entry)
        v = [x + c * y for x, y in zip(v, row)]
    if data.draw(st.booleans()):
        v = [x + y for x, y in zip(v, data.draw(st.lists(qqi_entry, min_size=ncols, max_size=ncols)))]
    want_coeffs, want_rest = reference_reduce(s, v)
    as_dict = {c: x for c, x in enumerate(v) if not x.is_zero()}
    for vec in (v, tuple(v), as_dict):
        coeffs, rest = s.reduce(vec)
        assert coeffs == want_coeffs
        assert rest == want_rest
        assert s.contains(vec) == all(x.is_zero() for x in want_rest)
    assert all(type(row) is dict and next(iter(row)) == p for row, p in zip(s.basis, s.pivots))
    assert s.rows == tuple(tuple(row.get(c, ZERO) for c in range(ncols)) for row in s.basis)


@given(system=dict_row_system(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_float_sparse_reduce_equals_the_dense_reference(system, data):
    rows, ncols = system
    s = rowspace(rows, ncols, FLOAT)
    # a combination of the basis rows, plus maybe an arbitrary vector
    v = np.zeros(ncols, dtype=np.complex128)
    for row in s.rows:
        v = v + complex(data.draw(qqi_entry)) * row
    if data.draw(st.booleans()):
        v = v + np.array([complex(x) for x in data.draw(st.lists(qqi_entry, min_size=ncols, max_size=ncols))])
    want_coeffs, want_rest = reference_reduce_float(s, v)
    bound = DEFAULT_TOL * max(1.0, float(np.abs(v).max(initial=0.0)))
    as_dict = {c: complex(x) for c, x in enumerate(v) if x}
    for vec in (v.tolist(), v, as_dict):
        coeffs, rest = s.reduce(vec)
        assert len(coeffs) == len(want_coeffs)
        assert np.abs(np.array(coeffs, dtype=np.complex128) - want_coeffs).max(initial=0.0) <= bound
        assert rest.dtype == np.complex128 and rest.shape == (ncols,)
        assert np.abs(rest - want_rest).max(initial=0.0) <= bound
        assert s.contains(vec) == bool((np.abs(want_rest) <= bound).all())
    # one storage form on both lanes: pivot-first dicts of the lane's scalars, densified by rows
    for sub, scalar, one in ((s, complex, 1 + 0j), (rowspace(rows, ncols, EXACT), QQi, ONE)):
        assert type(sub.basis) is tuple
        for row, p in zip(sub.basis, sub.pivots):
            assert type(row) is dict and list(row) == sorted(row) and next(iter(row)) == p
            assert row[p] == one and all(type(x) is scalar and x for x in row.values())
    assert not s.rows.flags.writeable
    dense = np.zeros((s.dim, ncols), dtype=np.complex128)
    for r, row in enumerate(s.basis):
        for c, x in row.items():
            dense[r, c] = x
    assert s.rows.dtype == np.complex128 and s.rows.tobytes() == dense.tobytes()


# ---------------------------------------------------------------------------
# wide tall exact blocks: rows chosen mod p, the rest checked exactly


def _random_qqi(rng):
    return QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _combination(coeffs, rows):
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


@st.composite
def wide_tall_block(draw):
    """(rows, width): more rows than columns on one block at least
    ``_SELECT_WIDTH`` wide, spanned by ``rank`` base rows; ``rank`` equal to
    the width is the full-rank case.  The rows are the base rows, random
    Gaussian-rational combinations of them, repeats and scaled copies, in a
    random order."""
    width = draw(st.integers(linalg._SELECT_WIDTH, linalg._SELECT_WIDTH + 4))
    rank = draw(st.sampled_from([1, 2, width // 2, width - 1, width]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # the first base row is nonzero everywhere, so the rows form one block
    base = [[x if x else ONE for x in (_random_qqi(rng) for _ in range(width))]]
    base += [[_random_qqi(rng) for _ in range(width)] for _ in range(rank - 1)]
    rows = base + [
        _combination([_random_qqi(rng) for _ in base], base) for _ in range(width + 1 - rank + draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 4))):
        src = rng.choice(rows)
        scale = _random_qqi(rng) or ONE
        rows.append(list(src) if rng.random() < 0.5 else [scale * x for x in src])
    rng.shuffle(rows)
    return rows, width


def _spy_core():
    """A spy on the fraction-free core: the number of rows of each call."""
    sizes = []
    core = linalg._fraction_free_rref

    def counted(vecs):
        sizes.append(len(vecs))
        return core(vecs)

    return sizes, counted


@given(block=wide_tall_block())
@settings(max_examples=30, deadline=None)
def test_a_wide_tall_block_gives_the_rref_of_all_its_rows(block):
    rows, width = block
    sizes, counted = _spy_core()
    with mock.patch.object(linalg, "_fraction_free_rref", counted):
        basis, pivots = linalg._rref_exact_blocks(rows, width)
    # the exact check accepts the rows chosen mod p, with no fallback: for
    # random rows the rank mod a prime near 2^31 drops with odds of order 1/p
    assert len(sizes) == 1
    assert (linalg._ExactLane.dense(basis, width), pivots) == reference_rref_exact(rows)


def test_a_chosen_set_missing_a_needed_row_is_refused_and_all_rows_are_eliminated():
    rng = random.Random(7)
    width = linalg._SELECT_WIDTH
    base = [[_random_qqi(rng) or ONE for _ in range(width)] for _ in range(10)]
    rows = base + [_combination([_random_qqi(rng) for _ in base], base) for _ in range(width)]
    select = linalg._independent_mod_p
    sizes, counted = _spy_core()
    with mock.patch.object(linalg, "_independent_mod_p", lambda vecs, cols: select(vecs, cols)[:-1]), \
         mock.patch.object(linalg, "_fraction_free_rref", counted):
        basis, pivots = linalg._rref_exact_blocks(rows, width)
    # the 9 rows left are refused by the exact check, and the core runs on all 26
    assert sizes == [9, len(rows)]
    assert len(pivots) == 10
    assert (linalg._ExactLane.dense(basis, width), pivots) == reference_rref_exact(rows)


@pytest.mark.parametrize("twin", ["minor p", "i as its image"])
def test_an_unlucky_prime_still_gives_the_exact_rref(twin):
    """Two rows that are equal mod p but independent over Q(i): the rank
    mod p is one below the rank, and the check sends the block to the core
    on all rows."""
    width = linalg._SELECT_WIDTH

    def row(entries):
        out = [ZERO] * width
        for c, x in entries.items():
            out[c] = x
        return out

    if twin == "minor p":
        # the minor [[1, 1], [1, 1 + p]] of the first two columns is p
        first, second = row({0: ONE, 1: ONE}), row({0: ONE, 1: qq(1 + linalg._P)})
    else:
        # i and its image mod p: the minor [[1, i], [1, s]] is s - i
        first, second = row({0: ONE, 1: QQi(0, 1)}), row({0: ONE, 1: qq(linalg._I_MOD_P)})
    chain = [row({k: ONE, k + 1: qq(k + 2)}) for k in range(1, width - 1)]
    rows = [first, second, *chain, [x + y for x, y in zip(first, chain[1])]]
    sizes, counted = _spy_core()
    with mock.patch.object(linalg, "_fraction_free_rref", counted):
        basis, pivots = linalg._rref_exact_blocks(rows, width)
    assert sizes == [width - 1, len(rows)]
    assert pivots == tuple(range(width))
    assert (linalg._ExactLane.dense(basis, width), pivots) == reference_rref_exact(rows)
