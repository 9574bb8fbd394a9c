"""Derivation spaces against the brute-force oracle, plus frozen dimensions."""

from itertools import repeat
from unittest import mock

import numpy as np
import pytest

from amenalyzer import linalg
from amenalyzer.algebra import (
    FiniteAlgebra,
    is_unital,
    matrix_algebra,
    truncated_polynomial,
    unitize,
    upper_triangular,
    zero_algebra,
)
from amenalyzer.classify import Analysis, build_report
from amenalyzer.corpus import corpus
from amenalyzer.crosscheck import _rows_match
from amenalyzer.derivations import (
    _assemble_derivation_rows,
    antisymmetric_space,
    cyclic_subspace,
    derivation_space,
    inner_space,
    is_cyclic,
    pairing_with_unit_vanishes,
    rank_one_dual_map,
    t_operator_rank,
    vanishes_on_diameter,
    flatten_map,
    unflatten_map,
)
from amenalyzer.linalg import DEFAULT_TOL, EXACT, FLOAT, LANES, nullspace, subspace_intersect, subspace_leq
from amenalyzer.scalars import ONE, ZERO, QQi, qq

from oracles import (
    change_basis,
    derivation_constraint_matrix,
    oracle_cyclic_dim,
    oracle_derivation_dim,
    oracle_inner_dim,
    qqi_derivation_rows,
)

# dimensions computed by the SVD-rank oracle in oracles.py and frozen here
FROZEN_DIMS = {
    # name: (Z, Inn, Zc)
    "C1": (0, 0, 0),
    "Czero1": (1, 0, 0),
    "Czero1Sharp": (1, 0, 0),
    "Czero2": (4, 0, 1),
    "Czero2Sharp": (3, 0, 1),
    "EF": (1, 0, 0),
    "EFSharp": (1, 0, 0),
    "M2": (3, 3, 3),
    "Pointwise2": (0, 0, 0),
    "Pointwise3": (0, 0, 0),
    "Pointwise4": (0, 0, 0),
    "S3": (3, 3, 3),
    "TensorTP2TP2": (4, 0, 1),
    "TruncPoly2": (1, 0, 0),
    "TruncPoly3": (2, 0, 0),
    "TruncPoly4": (3, 0, 0),
    "UpperTri2": (1, 1, 1),
    "Z2": (0, 0, 0),
    "Z2w": (0, 0, 0),
    "Z3": (0, 0, 0),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIMS), ids=str)
def test_frozen_dims_match_engine_and_oracle(name):
    a = corpus()[name]
    want = FROZEN_DIMS[name]
    d = Analysis(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == want
    assert (
        oracle_derivation_dim(a),
        oracle_inner_dim(a),
        oracle_cyclic_dim(a),
    ) == want


def test_scalars_have_no_derivations():
    # the unit forces D(1) = 2 D(1), so D vanishes
    assert derivation_space(truncated_polynomial(1)).dim == 0


def test_zero_algebra_everything_is_a_derivation():
    assert derivation_space(zero_algebra(1)).dim == 1


def test_matrix_algebra_dims_by_oracle():
    a = matrix_algebra(2)
    assert derivation_space(a).dim == oracle_derivation_dim(a) == 3
    assert inner_space(a).dim == oracle_inner_dim(a) == 3


def test_commutative_inner_space_trivial():
    for k in (2, 3, 4):
        assert inner_space(truncated_polynomial(k)).dim == 0


def test_upper_triangular_inner_dim_matches_commutator_span():
    # the three commutators of the basis span a single line, so the map
    # F -> ad_F has one-dimensional image
    a = upper_triangular(2)
    assert inner_space(a).dim == oracle_inner_dim(a) == 1


def test_cyclic_subspace_zero_algebra():
    a = zero_algebra(1)
    z = derivation_space(a)
    assert z.dim == 1
    assert cyclic_subspace(a, z).dim == 0


def test_inner_contained_in_cyclic_everywhere():
    for name, a in sorted(corpus().items()):
        d = Analysis(a)
        assert subspace_leq(d.inner, d.zc), name
        assert subspace_leq(d.zc, d.z), name


def test_matrix_algebra_cyclic_equals_z():
    a = matrix_algebra(2)
    d = Analysis(a)
    assert d.zc.dim == d.z.dim == 3


def test_t_operator_rank_values():
    z1 = Analysis(zero_algebra(1))
    assert z1.t_rank == 1
    m2 = Analysis(matrix_algebra(2))
    assert m2.t_rank == 0
    tp2 = Analysis(truncated_polynomial(2))
    assert tp2.t_rank == oracle_derivation_dim(truncated_polynomial(2)) - oracle_cyclic_dim(
        truncated_polynomial(2)
    ) == 1


def test_t_operator_rank_guards_containment():
    a = zero_algebra(2)
    z = derivation_space(a)
    bogus = antisymmetric_space(3)  # wrong ambient on purpose
    with pytest.raises(Exception):
        t_operator_rank(bogus, z)


def test_vanishes_on_diameter_basic():
    anti = ((ZERO, qq(2)), (qq(-2), ZERO))
    assert vanishes_on_diameter(anti)
    ident = ((ONE, ZERO), (ZERO, ONE))
    assert not vanishes_on_diameter(ident)


def test_cyclic_basis_vanishes_on_diameter():
    for name in ("M2", "S3", "Czero2"):
        a = corpus()[name]
        d = Analysis(a)
        n = a.dim
        for flat in d.zc.rows:
            mat = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
            assert vanishes_on_diameter(mat), name


def test_pairing_with_unit():
    c1 = truncated_polynomial(1)
    assert pairing_with_unit_vanishes(c1, ((ZERO,),))
    assert not pairing_with_unit_vanishes(c1, ((ONE,),))
    with pytest.raises(ValueError):
        pairing_with_unit_vanishes(zero_algebra(2), ((ZERO, ZERO), (ZERO, ZERO)))


def test_cyclic_derivations_of_unital_algebras_kill_unit():
    for name in ("M2", "UpperTri2", "S3"):
        a = corpus()[name]
        d = Analysis(a)
        n = a.dim
        for flat in d.zc.rows:
            mat = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
            assert pairing_with_unit_vanishes(a, mat), name


def test_rank_one_dual_map_outer_product():
    z = [ZERO, ZERO]
    assert rank_one_dual_map(z, [ONE, ONE]) == ((ZERO, ZERO), (ZERO, ZERO))
    m = rank_one_dual_map([ONE, ZERO], [ZERO, ONE])
    assert m == ((ZERO, ONE), (ZERO, ZERO))
    with pytest.raises(ValueError):
        rank_one_dual_map([ONE], [ONE, ZERO])


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_rank_one_dual_map_equals_every_product(backend):
    # zero factors are skipped; every entry still equals F1(a) * F2(b)
    lane = LANES[backend]
    values = [ZERO, ONE, qq(-3, 2), QQi(0, qq(1, 7).re), ZERO]
    for k in range(len(values)):
        f1, f2 = values[k:] + values[:k], values[::-1]
        m = rank_one_dual_map(f1, f2, backend)
        want = [[lane.coerce(x) * lane.coerce(y) for y in f2] for x in f1]
        assert all(m[a][b] == want[a][b] for a in range(5) for b in range(5))


def test_rank_one_annihilating_functional_is_derivation():
    # EF: F kills the product span (= span e), F(f) = 1
    ef = corpus()["EF"]
    f = [ZERO, ONE]
    dmap = rank_one_dual_map(f, f)
    assert derivation_space(ef).contains(flatten_map(dmap, ef.dim))
    assert not is_cyclic(dmap)


def test_unit_pairing_fails_for_rank_one_with_unit_value():
    a = truncated_polynomial(2)
    f = [ONE, ZERO]  # F(1) = 1
    dmap = rank_one_dual_map(f, f)
    assert not pairing_with_unit_vanishes(a, dmap)


def test_membership_predicates():
    a = matrix_algebra(2)
    n = a.dim
    d = Analysis(a)
    zero_map = tuple(tuple(ZERO for _ in range(n)) for _ in range(n))
    assert d.z.contains(flatten_map(zero_map, n))
    assert d.inner.contains(flatten_map(zero_map, n))
    assert is_cyclic(zero_map)
    # ad_F for a specific functional is an inner (hence cyclic) derivation
    f = [qq(1), qq(2), qq(-1), qq(3)]
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = acc + (a.sc[i][j][k] - a.sc[j][i][k]) * f[k]
            m[i][j] = acc
    m = tuple(tuple(r) for r in m)
    assert d.z.contains(flatten_map(m, n))
    assert d.inner.contains(flatten_map(m, n))
    assert is_cyclic(m)


def test_classify_flags():
    z1 = Analysis(zero_algebra(1))
    assert (z1.weakly_amenable, z1.cyclically_amenable, z1.cyclically_weakly_amenable) == (
        False,
        True,
        False,
    )
    m2 = Analysis(matrix_algebra(2))
    assert (m2.weakly_amenable, m2.cyclically_amenable, m2.cyclically_weakly_amenable) == (
        True,
        True,
        True,
    )
    tp2 = Analysis(truncated_polynomial(2))
    assert (tp2.weakly_amenable, tp2.cyclically_amenable, tp2.cyclically_weakly_amenable) == (
        False,
        True,
        False,
    )


def test_witnesses_are_deterministic_and_outside_smaller_space():
    a = truncated_polynomial(2)
    d1 = Analysis(a)
    d2 = Analysis(a)
    assert d1.witnesses.keys() == d2.witnesses.keys()
    w = d1.witnesses["weakly_amenable"]
    assert w == d2.witnesses["weakly_amenable"]
    assert d1.z.contains(flatten_map(w, a.dim))
    assert not d1.inner.contains(flatten_map(w, a.dim))


def test_float_backend_agrees_on_dims():
    for name in ("M2", "TruncPoly3", "S3", "Czero2"):
        a = corpus()[name]
        de = Analysis(a, EXACT)
        df = Analysis(a, FLOAT)
        assert (de.z.dim, de.inner.dim, de.zc.dim) == (df.z.dim, df.inner.dim, df.zc.dim), name


@pytest.mark.parametrize("name", sorted(FROZEN_DIMS), ids=str)
def test_assembled_derivation_rows_equal_oracle_matrix(name):
    # the dict rows, as the float lane reads them, against the oracle's
    # a - b - c per entry, rows and columns in the same order; + 0.0 clears
    # the sign of the oracle's zeros, as rref_float clears it in every output
    a = corpus()[name]
    n = a.dim
    d, rows = _assemble_derivation_rows(a)
    dense = np.zeros((n**3, n * n), dtype=np.complex128)
    for r, row in enumerate(LANES[FLOAT].pair_system(rows, repeat(d))):
        for c, x in row.items():
            dense[r, c] = x
    assert dense.tobytes() == (derivation_constraint_matrix(a) + 0.0).tobytes()


def _block_dtypes(a):
    """The dtypes of the block arrays the float lane eliminates for a's
    derivation system."""
    dtypes = []
    eliminate = linalg._rref_at

    def spy(arr, tol_abs):
        dtypes.append(arr.dtype)
        return eliminate(arr, tol_abs)

    with mock.patch.object(linalg, "_rref_at", spy):
        derivation_space(a, FLOAT)
    return dtypes


def test_float_derivation_system_is_float64_exactly_for_a_real_tensor():
    real = upper_triangular(2)
    i = QQi(0, 1)
    rotated = change_basis(real, [[ONE, i, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
    assert rotated.complex_sc.imag.any()
    real_blocks, rotated_blocks = _block_dtypes(real), _block_dtypes(rotated)
    assert real_blocks and set(real_blocks) == {np.dtype(np.float64)}
    assert rotated_blocks and set(rotated_blocks) == {np.dtype(np.complex128)}
    assert derivation_space(rotated, FLOAT).dim == derivation_space(rotated, EXACT).dim == derivation_space(real, FLOAT).dim


ZC_ALGEBRAS = dict(corpus(), UpperTri4=upper_triangular(4), Zero8Sharp=unitize(zero_algebra(8)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("name", sorted(ZC_ALGEBRAS), ids=str)
def test_cyclic_subspace_equals_annihilator_intersection(name, backend):
    a = ZC_ALGEBRAS[name]
    z = derivation_space(a, backend)
    zc = cyclic_subspace(a, z)
    ref = subspace_intersect(z, antisymmetric_space(a.dim, backend))
    if backend == EXACT:
        assert zc.rows == ref.rows
        assert zc.pivots == ref.pivots
    else:
        assert _rows_match(zc, ref)


LANE_ALGEBRAS = dict(corpus(), UpperTri4=upper_triangular(4))


def test_predicates_give_the_same_verdict_on_both_lanes():
    # each predicate is written once; an exact matrix and its complex
    # form must take the same verdict through the exact and float lanes
    verdicts = set()
    for name, a in sorted(LANE_ALGEBRAS.items()):
        unital, _ = is_unital(a)
        for v in derivation_space(a).rows:
            m = unflatten_map(v, a.dim)
            mf = tuple(tuple(map(complex, row)) for row in m)
            cyc = is_cyclic(m)
            assert is_cyclic(mf) == cyc, name
            assert vanishes_on_diameter(mf) == vanishes_on_diameter(m), name
            if unital:
                pu = pairing_with_unit_vanishes(a, m)
                assert pairing_with_unit_vanishes(a, mf) == pu, name
            verdicts.add(cyc)
    assert verdicts == {True, False}


def _dense(v, scalar):
    """Whether v is a list or tuple of scalars of exactly the type ``scalar``."""
    return type(v) in (list, tuple) and all(type(x) is scalar for x in v)


def test_vectors_and_dual_maps_are_sequences_of_the_lanes_scalars():
    # one dense form on both lanes: QQi exact, Python complex float, never
    # a numpy array or numpy scalar
    a = corpus()["TruncPoly3"]
    n = a.dim
    for backend, scalar in ((EXACT, QQi), (FLOAT, complex)):
        z = derivation_space(a, backend)
        assert z.dim > 0 and type(z.rows) is tuple
        assert all(_dense(row, scalar) for row in z.rows)
        _, rest = z.reduce([qq(k + 1) for k in range(n * n)])
        assert _dense(rest, scalar) and len(rest) == n * n
        m = unflatten_map(z.rows[0], n)
        assert type(m) is tuple and len(m) == n and all(_dense(row, scalar) for row in m)
        flat = flatten_map(m, n)
        assert _dense(flat, scalar) and list(flat) == list(z.rows[0])
        one = rank_one_dual_map([qq(1), ZERO, qq(2)], [ZERO, qq(3), qq(0, 1)], backend)
        assert type(one) is tuple and len(one) == n and all(_dense(row, scalar) for row in one)


def test_float_witnesses_match_the_exact_ones():
    # the goldens pin the exact witnesses only; a float witness is the same
    # RREF basis row of the same space, so it has the same flags and its
    # entries lie within the float tolerance of the exact ones
    checked = 0
    for name, a in sorted(corpus().items()):
        exact, fl = Analysis(a, EXACT).witnesses, Analysis(a, FLOAT).witnesses
        assert fl.keys() == exact.keys(), name
        for flag, m in exact.items():
            want = [[complex(x) for x in row] for row in m]
            bound = DEFAULT_TOL * 100 * LANES[FLOAT].scale(want)
            got = fl[flag]
            assert len(got) == len(want) and all(_dense(row, complex) for row in got), (name, flag)
            for row, want_row in zip(got, want):
                assert len(row) == len(want_row)
                assert all(abs(x - y) <= bound for x, y in zip(row, want_row)), (name, flag)
            checked += 1
    assert checked == 23


def test_float_system_whose_row_norm_overflows_raises():
    # e * e = 10^160 e: built directly, so not bounded by the reader.  Its
    # derivation rows have squared norm 10^320, past float range, which
    # would make every pivot threshold infinite and the rank 0.
    big = QQi(10**160)
    a = FiniteAlgebra("big", 1, (((big,),),), ("e",))
    assert derivation_space(a, EXACT).dim == 0
    with pytest.raises(OverflowError):
        derivation_space(a, FLOAT)


def test_float_spaces_of_a_rescaled_basis_equal_the_exact_ones():
    # M2 on (E00, 30 E01, 900 E10, 27000 E11): RREF rows of Z hold ratios
    # 27000 apart, far below the threshold the system's row norms set
    scales = [1, 30, 900, 27000]
    p = [[qq(s) if i == j else ZERO for j in range(4)] for i, s in enumerate(scales)]
    a = change_basis(matrix_algebra(2), p)
    rows = qqi_derivation_rows(a)
    want = nullspace(rows, 16, EXACT)
    dense = [[row.get(c, ZERO) for c in range(16)] for row in rows]
    for form in (rows, dense, derivation_constraint_matrix(a)):
        got = nullspace(form, 16, FLOAT)
        assert got.pivots == want.pivots
        assert np.abs(got.rows - np.array(want.rows, dtype=complex)).max() <= DEFAULT_TOL * 27000
    exact, fl = (build_report(Analysis(a, backend)) for backend in (EXACT, FLOAT))
    assert fl["dims"] == exact["dims"]
    assert fl["flags"] == exact["flags"]
    assert exact["flags"]["weakly_amenable"] and exact["flags"]["cyclically_amenable"]
