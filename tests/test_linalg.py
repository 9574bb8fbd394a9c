"""Kernel, RREF, and subspace-lattice behaviour on both backends."""

import copy
import math
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
    Subspace,
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
    for v in kernel.rows:
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
    for f in ann.rows:
        for v in s.rows:
            acc = ZERO
            for x, y in zip(f, v):
                acc = acc + x * y
            assert acc.is_zero()


def test_float_annihilator_and_intersect_leave_their_operands_rows_unchanged():
    rng = np.random.default_rng(5)
    a = rowspace(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)), 6, FLOAT)
    b = rowspace(rng.standard_normal((4, 6)), 6, FLOAT)
    before = (copy.deepcopy(a.basis), copy.deepcopy(b.basis))
    assert annihilator(a).dim == 3
    assert subspace_intersect(a, b).dim == 1
    assert (a.basis, b.basis) == before


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
    for v in kernel.rows:
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
        assert s.pivots == (0,) and abs(s.rows[0][1] - 1e-4) <= 1e-16
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
        got_rows = np.array(got.rows, dtype=np.complex128).reshape(-1, ncols)
        assert got_rows.shape == want_rows.shape
        assert np.abs(got_rows - want_rows).max(initial=0.0) <= bound
        kernel = nullspace(form, ncols, FLOAT)
        assert kernel.pivots == kernel_pivots
        got_kernel = np.array(kernel.rows, dtype=np.complex128).reshape(-1, ncols)
        assert np.abs(got_kernel - kernel_rows).max(initial=0.0) <= DEFAULT_TOL * max(
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
        v = v + complex(data.draw(qqi_entry)) * np.array(row)
    if data.draw(st.booleans()):
        v = v + np.array([complex(x) for x in data.draw(st.lists(qqi_entry, min_size=ncols, max_size=ncols))])
    want_coeffs, want_rest = reference_reduce_float(s, v)
    bound = DEFAULT_TOL * max(1.0, float(np.abs(v).max(initial=0.0)))
    as_dict = {c: complex(x) for c, x in enumerate(v) if x}
    for vec in (v.tolist(), v, as_dict):
        coeffs, rest = s.reduce(vec)
        assert len(coeffs) == len(want_coeffs)
        assert np.abs(np.array(coeffs, dtype=np.complex128) - want_coeffs).max(initial=0.0) <= bound
        assert type(rest) is list and len(rest) == ncols and all(type(x) is complex for x in rest)
        assert np.abs(np.array(rest) - want_rest).max(initial=0.0) <= bound
        assert s.contains(vec) == bool((np.abs(want_rest) <= bound).all())
    # one storage form on both lanes: pivot-first dicts of the lane's scalars, densified by rows
    for sub, scalar, one in ((s, complex, 1 + 0j), (rowspace(rows, ncols, EXACT), QQi, ONE)):
        assert type(sub.basis) is tuple
        for row, p in zip(sub.basis, sub.pivots):
            assert type(row) is dict and list(row) == sorted(row) and next(iter(row)) == p
            assert row[p] == one and all(type(x) is scalar and x for x in row.values())
    dense = np.zeros((s.dim, ncols), dtype=np.complex128)
    for r, row in enumerate(s.basis):
        for c, x in row.items():
            dense[r, c] = x
    assert type(s.rows) is tuple and all(type(row) is tuple for row in s.rows)
    assert all(type(x) is complex for row in s.rows for x in row)
    assert np.array(s.rows, dtype=np.complex128).reshape(-1, ncols).tobytes() == dense.tobytes()


# ---------------------------------------------------------------------------
# modular RREF of exact blocks, proved exactly


def _combination(coeffs, rows):
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def _gaussian(rng, bits):
    return QQi(rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits))


def _cleared(row):
    """The row times the lcm of its denominators: Gaussian integers."""
    scale = qq(math.lcm(*(x.re.denominator * x.im.denominator for x in row)))
    return [x * scale for x in row]


@st.composite
def wide_block(draw):
    """(rows, width): one dense block of more rows than columns, 16 to 20
    columns wide, whose RREF has ``rank`` rows; ``rank`` equal to the width
    is the full-rank case.  The RREF rows have random pivots and entries
    whose parts have 40-bit numerators over one 40-bit denominator a row,
    so they are read back from three primes, not two.  Each row given is a
    combination of them with Gaussian-integer coefficients of up to 150
    bits, cleared of denominators, so its parts reach about 2^200.  Repeats
    and scaled copies are planted, in a random order."""
    width = draw(st.integers(16, 20))
    rank = draw(st.sampled_from([1, 2, width // 2, width - 1, width]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # the first pivot is column 0, so every row given is nonzero in every column
    pivots = {0, *rng.sample(range(1, width), rank - 1)}
    base = []
    for p in sorted(pivots):
        den = qq(rng.randint(2**39, 2**40))
        row = [ZERO] * width
        row[p] = ONE
        for c in range(p + 1, width):
            if c not in pivots:
                row[c] = _gaussian(rng, 40) / den
        base.append(row)
    rows = [_cleared(_combination([_gaussian(rng, 150) for _ in base], base)) for _ in range(width + 2)]
    for _ in range(draw(st.integers(0, 4))):
        src = rng.choice(rows)
        scale = _gaussian(rng, 8) if rng.random() < 0.5 else ONE
        rows.append([scale * x for x in src])
    rng.shuffle(rows)
    return rows, width


def _spy(name):
    """(calls, patch): a patch of the ``linalg`` function ``name`` that
    records the (arguments, result) of each call in ``calls``."""
    calls = []
    real = getattr(linalg, name)

    def spied(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    return calls, mock.patch.object(linalg, name, spied)


def _eliminated(rows, width):
    """(dense RREF rows, pivots, modular calls, core calls) of one block."""
    modular, spy_modular = _spy("_modular_rref")
    core, spy_core = _spy("_fraction_free_rref")
    with spy_modular, spy_core:
        basis, pivots = linalg._rref_exact_blocks(rows, width)
    return Subspace(width, basis, pivots, EXACT).rows, pivots, modular, [len(args[0]) for args, _ in core]


@given(block=wide_block())
@settings(max_examples=30, deadline=None)
def test_a_modular_block_gives_the_rref_of_all_its_rows(block):
    rows, width = block
    reads, spy_reads = _spy("_reconstructed")
    with spy_reads:
        dense, pivots, modular, core = _eliminated(rows, width)
    assert (dense, pivots) == reference_rref_exact(rows)
    # the candidate is proved, with no fallback: for random rows the rank mod
    # a prime near 2^31 drops with odds of order 1/p
    assert len(modular) == 1 and core == []
    if any(x.re.denominator > 1 or x.im.denominator > 1 for row in dense for x in row):
        # the accepted candidate was read back mod the product of three primes
        assert reads[-1][0][1] == math.prod(p for p, _ in linalg._PRIMES[:3])


def _one_prime_block():
    """16 columns, rank 8: the RREF rows are e_k + (1 + p) e_(8+k) + e_15
    with p the first prime, given as 24 Gaussian-integer combinations."""
    rng = random.Random(3)
    p = linalg._PRIMES[0][0]
    base = []
    for k in range(8):
        row = [ZERO] * 16
        row[k], row[8 + k], row[15] = ONE, qq(1 + p), ONE
        base.append(row)
    return [_combination([_gaussian(rng, 6) for _ in base], base) for _ in range(24)]


def test_a_candidate_read_back_from_too_few_primes_fails_the_exact_check():
    rows = _one_prime_block()
    checks, spy_checks = _spy("_all_in_span")
    with mock.patch.object(linalg, "_PRIMES", linalg._PRIMES[:1]), spy_checks:
        dense, pivots, modular, core = _eliminated(rows, 16)
    # mod p alone, 1 + p reads back as 1: the candidate is in RREF shape, but
    # the exact check refuses it, no prime is left, and the core takes all rows
    assert [ok for _, ok in checks] == [False]
    assert len(modular) == 1 and core == [len(rows)]
    assert (dense, pivots) == reference_rref_exact(rows)
    # with every prime the same block is proved from two of them
    dense, pivots, modular, core = _eliminated(rows, 16)
    assert core == [] and (dense, pivots) == reference_rref_exact(rows)


def _repivoted(pivot_rows):
    """The same rows with each pivot moved to its last tail column: the row
    over that entry, a nonzero left of its new pivot."""
    out = {}
    for p, (n, tail) in pivot_rows.items():
        q = max(tail)
        a, b = tail[q]
        # (n e_p + tail) / (a + b i) = (n e_p + tail)(a - b i) / (a^2 + b^2)
        row = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in tail.items() if c != q}
        row[p] = (n * a, -n * b)
        out[q] = (a * a + b * b, row)
    return out


def test_a_candidate_with_an_entry_left_of_its_pivot_is_refused():
    # the span of (1, 1): its RREF has pivot 0; the row with pivot 1 and an
    # entry left of it spans the same line, and the span check reads it so
    assert linalg._all_in_span([{0: (1, 0), 1: (1, 0)}], {1: (1, {0: (1, 0)})})
    assert not linalg._in_rref_shape({1: (1, {0: (1, 0)})})
    assert linalg._in_rref_shape({0: (1, {1: (1, 0)})})
    # a tail entry at another pivot, a zero tail entry, a denominator below 1
    assert not linalg._in_rref_shape({0: (1, {1: (1, 0)}), 1: (1, {})})
    assert not linalg._in_rref_shape({0: (1, {1: (0, 0)})})
    assert not linalg._in_rref_shape({0: (0, {1: (1, 0)})})
    # a rank-one block whose every candidate is moved to its last pivot:
    # each spans the block's line and is refused, and the core takes all rows
    rng = random.Random(5)
    line = [_gaussian(rng, 20) or ONE for _ in range(16)]
    rows = [[QQi(k, 1 - k) * x for x in line] for k in range(2, 22)]
    real = linalg._reconstructed

    def repivoted(*args):
        candidate = real(*args)
        return candidate and _repivoted(candidate)

    with mock.patch.object(linalg, "_reconstructed", repivoted):
        dense, pivots, modular, core = _eliminated(rows, 16)
    assert len(modular) == 1 and core == [len(rows)]
    assert (dense, pivots) == reference_rref_exact(rows)
    vecs = [dict(_gaussian_pairs(row)) for row in rows]
    candidate = _repivoted(linalg._modular_rref(vecs))
    assert linalg._all_in_span(vecs, candidate) and not linalg._in_rref_shape(candidate)


def test_a_block_that_is_zero_under_the_first_map_goes_to_the_core():
    # every row a multiple of s - i, whose image under i -> s is 0: the rank
    # mod the first prime is 0, no candidate spans the block, and the core
    # takes all rows
    s = linalg._PRIMES[0][1]
    rng = random.Random(17)
    base = [[_gaussian(rng, 20) or ONE for _ in range(16)] for _ in range(6)]
    rows = [[QQi(s, -1) * x for x in _combination([_gaussian(rng, 8) for _ in base], base)] for _ in range(20)]
    dense, pivots, modular, core = _eliminated(rows, 16)
    assert len(modular) == 1 and core == [len(rows)]
    assert len(pivots) == 6 and (dense, pivots) == reference_rref_exact(rows)
    sub = rowspace(rows, 16)
    assert (sub.rows, sub.pivots) == reference_rref_exact(rows)


def _gaussian_pairs(row):
    """The {column: (re, im)} Gaussian integers of a dense row of them."""
    return {c: (int(x.re), int(x.im)) for c, x in enumerate(row) if x}


def test_a_chosen_set_missing_a_needed_row_is_refused_and_all_rows_are_eliminated():
    rng = random.Random(7)
    base = [[_gaussian(rng, 3) or ONE for _ in range(16)] for _ in range(10)]
    rows = base + [_combination([_gaussian(rng, 3) for _ in base], base) for _ in range(16)]
    real = linalg._rref_mod
    calls = []

    def dropping(a, p):
        # the first call, the choice of rows, loses its last chosen row
        chosen, pivots, red = real(a, p)
        calls.append(len(chosen))
        return (chosen[:-1], pivots[:-1], red[:-1]) if len(calls) == 1 else (chosen, pivots, red)

    with mock.patch.object(linalg, "_rref_mod", dropping):
        dense, pivots, modular, core = _eliminated(rows, 16)
    # the 9 rows left and the residues read from them are refused by the
    # exact check, and the core runs on all 26 rows
    assert calls[0] == 10 and len(modular) == 1 and core == [len(rows)]
    assert len(pivots) == 10
    assert (dense, pivots) == reference_rref_exact(rows)


@pytest.mark.parametrize("twin", ["minor p", "i as its image"])
def test_an_unlucky_prime_still_gives_the_exact_rref(twin):
    """Two rows that are equal mod p but independent over Q(i): the rank
    mod p is one below the rank, the chosen rows miss one, the check
    refuses the candidate of every prime, and the block goes to the core
    on all rows."""
    width = 16
    p, s = linalg._PRIMES[0]

    def row(entries):
        out = [ZERO] * width
        for c, x in entries.items():
            out[c] = x
        return out

    if twin == "minor p":
        # the minor [[1, 1], [1, 1 + p]] of the first two columns is p
        first, second = row({0: ONE, 1: ONE}), row({0: ONE, 1: qq(1 + p)})
    else:
        # i and its image mod p: the minor [[1, i], [1, s]] is s - i
        first, second = row({0: ONE, 1: QQi(0, 1)}), row({0: ONE, 1: qq(s)})
    chain = [row({k: ONE, k + 1: qq(k + 2)}) for k in range(1, width - 1)]
    # dense combinations of the others, in their span mod p too, so the
    # block holds enough nonzeros to go modular
    rng = random.Random(11)
    fill = [_combination([qq(rng.randint(1, 9)) for _ in range(width - 1)], [first, *chain]) for _ in range(16)]
    rows = [first, second, *chain, *fill]
    dense, pivots, modular, core = _eliminated(rows, width)
    assert len(modular) == 1 and core == [len(rows)]
    assert pivots == tuple(range(width))
    assert (dense, pivots) == reference_rref_exact(rows)


def test_a_later_unlucky_prime_is_dropped_and_the_others_prove_the_block():
    """A rank-15 block whose chosen rows lose rank modulo the second prime
    only: that prime's images are dropped, and the RREF is read back from
    the others, with no fallback."""
    width = 16
    p1 = linalg._PRIMES[1][0]

    def row(entries):
        out = [ZERO] * width
        for c, x in entries.items():
            out[c] = x
        return out

    first, second = row({0: ONE, 1: ONE, 15: ONE}), row({0: ONE, 1: qq(1 + p1), 15: ONE})
    chain = [row({k: ONE, k + 1: qq(k + 2), 15: ONE}) for k in range(1, width - 2)]
    rng = random.Random(13)
    base = [first, second, *chain]
    rows = base + [_combination([qq(rng.randint(1, 9)) for _ in base], base) for _ in range(16)]
    reads, spy_reads = _spy("_reconstructed")
    with spy_reads:
        dense, pivots, modular, core = _eliminated(rows, width)
    assert len(modular) == 1 and core == []
    assert len(pivots) == 15 and (dense, pivots) == reference_rref_exact(rows)
    assert all(args[1] % p1 for args, _ in reads)


def test_the_packed_span_check_sees_a_carry_between_columns():
    # the span of (1, 1, 1); the row (1, 1 + 2^k, 0) is outside it, but its
    # packed columns equal the span's when a digit is k bits wide
    candidate = {0: (1, {1: (1, 0), 2: (1, 0)})}
    assert linalg._all_in_span([{0: (1, 0), 1: (1, 0), 2: (1, 0)}], candidate)
    for k in range(1, 400):
        assert not linalg._all_in_span([{0: (1, 0), 1: (1 + 2**k, 0)}], candidate)


def test_the_primes_are_one_mod_four_below_two_to_the_31_with_a_root_of_minus_one():
    for p, s in linalg._PRIMES:
        assert p % 4 == 1 and p < 2**31 and s * s % p == p - 1
        assert all(p % q for q in range(3, math.isqrt(p) + 1, 2))
    assert len({p for p, _ in linalg._PRIMES}) == len(linalg._PRIMES)


@st.composite
def span_case(draw):
    """(rows, pivot rows): a random candidate in RREF shape, {pivot: (N,
    tail)} with parts up to 2^100, and Gaussian-integer rows: combinations
    of it, some with one part moved by a small or a large amount."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = draw(st.integers(2, 12))
    pivots = sorted(rng.sample(range(width), draw(st.integers(1, width))))
    candidate = {}
    for p in pivots:
        n = rng.randint(1, 2**rng.choice([1, 30, 100]))
        tail = {}
        for c in range(p + 1, width):
            if c not in pivots and rng.random() < 0.8:
                tail[c] = (rng.randint(-(2**100), 2**100), rng.randint(-(2**100), 2**100)) if rng.random() < 0.5 else (1, 0)
        candidate[p] = (n, tail)
    lcm = math.lcm(*(n for n, _ in candidate.values()))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {p: (rng.randint(-9, 9), rng.randint(-9, 9)) for p in pivots}
        row = {}
        for p, (a, b) in coeffs.items():
            n, tail = candidate[p]
            m = lcm // n
            # lcm * coeff * (e_p + tail / n)
            for c, (x, y) in [(p, (n, 0)), *tail.items()]:
                u, v = row.get(c, (0, 0))
                row[c] = (u + m * (a * x - b * y), v + m * (a * y + b * x))
        if draw(st.booleans()):
            c = rng.randrange(width)
            u, v = row.get(c, (0, 0))
            row[c] = (u + rng.choice([1, -1, 2**64, 2**200]), v)
        rows.append({c: x for c, x in row.items() if x != (0, 0)})
    return [row for row in rows if row], candidate


@given(case=span_case())
@settings(max_examples=200, deadline=None)
def test_the_packed_span_check_equals_the_entrywise_one(case):
    rows, candidate = case

    def in_span(row):
        # row - sum of row[p] * (e_p + tail_p / N_p), entry by entry, in QQi
        rest = {c: QQi(*x) for c, x in row.items()}
        for p, (n, tail) in candidate.items():
            f = rest.get(p, ZERO)
            for c, (a, b) in [(p, (n, 0)), *tail.items()]:
                rest[c] = rest.get(c, ZERO) - f * QQi(Fraction(a, n), Fraction(b, n))
        return all(x.is_zero() for x in rest.values())

    assert linalg._all_in_span(rows, candidate) == all(map(in_span, rows))
