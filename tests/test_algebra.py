"""Constructors, validation, radical, and the JSON wire format."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer.algebra import (
    AlgebraFormatError,
    FiniteAlgebra,
    direct_sum,
    dump_algebra,
    from_json_dict,
    is_unital,
    load_algebra,
    matrix_algebra,
    pointwise_algebra,
    product_span,
    radical,
    recover_cayley_table,
    semigroup_algebra,
    tensor_product,
    to_json_dict,
    truncated_polynomial,
    unitize,
    upper_triangular,
    validate,
    zero_algebra,
)
from amenalyzer.classify import Analysis, build_report
from amenalyzer.corpus import corpus
from amenalyzer.linalg import EXACT, FLOAT, nullspace
from amenalyzer.scalars import MAX_MAGNITUDE, ONE, ZERO, QQi, qq

from oracles import change_basis, oracle_product_span_dim, reference_radical_rows, reference_validate


@pytest.mark.parametrize(
    "a",
    [
        zero_algebra(3),
        pointwise_algebra(3),
        truncated_polynomial(4),
        matrix_algebra(2),
        upper_triangular(3),
        semigroup_algebra([[0, 1], [1, 0]]),
        unitize(zero_algebra(2)),
        tensor_product(truncated_polynomial(2), pointwise_algebra(2)),
        direct_sum(matrix_algebra(2), truncated_polynomial(2)),
    ],
    ids=lambda a: a.name,
)
def test_constructor_outputs_validate(a):
    assert validate(a).ok


def test_one_dim_idempotent_algebra_is_valid():
    a = from_json_dict(
        {"name": "idem", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, "1", "0"]]}
    )
    assert validate(a).ok


def _broken_algebra():
    # e0*e0 = e1 and e1*e0 = e0 cannot be associative: (e0 e0) e0 != e0 (e0 e0)
    return from_json_dict(
        {
            "name": "broken",
            "dim": 2,
            "labels": ["a", "b"],
            "sc": [[0, 0, 1, "1", "0"], [1, 0, 0, "1", "0"]],
        }
    )


def test_validate_reports_broken_associativity():
    report = validate(_broken_algebra())
    assert not report.ok
    assert any(i.kind == "associativity" and i.where == (0, 0, 0) for i in report.issues)


def _perturbed(a, i, j, k, value):
    """``a`` with the structure constant c_ijk replaced by ``value``."""
    sc = [[list(v) for v in plane] for plane in a.sc]
    sc[i][j][k] = value
    frozen = tuple(tuple(tuple(v) for v in plane) for plane in sc)
    return replace(a, name=f"{a.name}:c{i},{j},{k}={value}", sc=frozen)


def _assert_validate_matches_reference(a):
    issues = validate(a).issues
    expected = reference_validate(a)
    # associativity issues come first, in the reference's triple order, then unit issues
    assert issues[: len(expected)] == expected
    assert all(i.kind not in ("associativity", "unit") for i in issues[len(expected) :])
    return expected


def _left_unit_only():
    # e0 e0 = e0 and e0 e1 = e1, so e0 is a left unit, but e1 e0 = 0
    return from_json_dict(
        {
            "name": "LeftUnit",
            "dim": 2,
            "labels": ["e", "f"],
            "sc": [[0, 0, 0, "1", "0"], [0, 1, 1, "1", "0"]],
            "unit": ["1", "0"],
        }
    )


# M2 on a basis with complex entries: a unit over its own denominator,
# declared as it is, halved, and moved off the identity
_M2_COMPLEX = change_basis(matrix_algebra(2), [
    [QQi(1, 1), ONE, ZERO, ZERO],
    [ZERO, qq(2), QQi(0, -1), ZERO],
    [ONE, ZERO, qq(3), ONE],
    [ZERO, ZERO, ONE, QQi(1, -2)],
])
_DECLARED_UNITS = (
    _left_unit_only(),
    _M2_COMPLEX,
    replace(_M2_COMPLEX, name="M2~P:unit/2", unit=tuple(x * qq(Fraction(1, 2)) for x in _M2_COMPLEX.unit)),
    replace(_M2_COMPLEX, name="M2~P:unit+f0", unit=(_M2_COMPLEX.unit[0] + ONE, *_M2_COMPLEX.unit[1:])),
    replace(truncated_polynomial(4), name="TruncPoly4:unit=x", unit=(ZERO, ONE, ZERO, ZERO)),
)


_LADDER = (
    matrix_algebra(3),
    upper_triangular(4),
    truncated_polynomial(10),
    pointwise_algebra(12),
    unitize(zero_algebra(8), name="Zero8Sharp"),
    direct_sum(matrix_algebra(2), truncated_polynomial(3), name="M2+TruncPoly3"),
    upper_triangular(5),
    matrix_algebra(4),
    truncated_polynomial(12),
    tensor_product(corpus()["S3"], truncated_polynomial(2), name="S3xTruncPoly2"),
)


@pytest.mark.parametrize(
    "a",
    [*corpus().values(), *_LADDER, _broken_algebra(), *_DECLARED_UNITS]
    + [
        _perturbed(truncated_polynomial(12), 1, 1, 2, qq(Fraction(1, 2))),
        _perturbed(matrix_algebra(4), 1, 4, 0, QQi(1, -1)),
        _perturbed(upper_triangular(5), 0, 0, 3, qq(-2)),
        # sparse: 625 nonzero paths a side against 15,625 triples
        _perturbed(matrix_algebra(5), 7, 10, 12, QQi(Fraction(1, 3), -2)),
    ],
    ids=lambda a: a.name,
)
def test_validate_equals_multiply_reference(a):
    _assert_validate_matches_reference(a)


_SMALL = (*corpus().values(), matrix_algebra(3), upper_triangular(4), _broken_algebra())
_BIG = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
_HUGE = st.builds(Fraction, st.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE), st.integers(1, 97))
_VALUES = st.one_of(
    st.integers(-3, 3).map(qq),
    st.builds(
        QQi,
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
    ),
    # pure-imaginary, negative, and numerators up to 1e9 over denominators up to 1e6
    st.builds(QQi, st.just(0), st.integers(-3, 3)),
    st.integers(-3, -1).map(qq),
    st.builds(QQi, _BIG, _BIG),
    # parts near the reader's bound, so the packed digits of validate widen with them
    st.builds(QQi, _HUGE, _HUGE),
)


@given(
    ijk=st.sampled_from(_SMALL).flatmap(
        lambda a: st.tuples(st.just(a), *[st.integers(0, a.dim - 1)] * 3)
    ),
    value=_VALUES,
)
@settings(max_examples=150, deadline=None)
def test_validate_equals_multiply_reference_after_perturbation(ijk, value):
    a, i, j, k = ijk
    _assert_validate_matches_reference(_perturbed(a, i, j, k, value))


def _carry_algebra(g):
    """A three-dimensional tensor whose largest part is 147 and whose
    associator at (0, 1, 0) is g e0 - e1, for 0 < g <= 2^17.

    With b = e0 e1 and c = e1 e0, (e0 e1) e0 - e0 (e1 e0) = (b0 - c0) e0 e0
    + b1 e1 e0 + b2 e2 e0 - c2 e0 e2, since c1 = 0.  Its column 0 is
    294 (p + q - 2x) + e, with p + q - 2x the integer m nearest g / 294, so
    |e| <= 147; column 1 is -1, column 2 is b1 c2 - c2 b1 = 0."""
    m = round(g / 294)
    x = -(m // 4)
    p = (m + 2 * x) // 2
    q, e = m + 2 * x - p, g - 294 * m
    products = {
        (0, 0): [(x, x), (0, 0), (0, 0)],
        (0, 1): [(-147, 147), (p, p), (1, 0)],
        (1, 0): [(147, -147), (0, 0), (147, 147)],
        (2, 0): [(e, 0), (-1, 0), (0, 0)],
        (0, 2): [(-q, q), (0, 0), (p, p)],
    }
    sc = [
        [i, j, k, str(re), str(im)]
        for (i, j), row in products.items()
        for k, (re, im) in enumerate(row)
        if (re, im) != (0, 0)
    ]
    return from_json_dict({"name": f"Carry{g}", "dim": 3, "labels": ["e0", "e1", "e2"], "sc": sc})


def test_validate_sees_a_carry_between_columns():
    # the digits of the associator at (0, 1, 0) are 2^k at column 0 and -1 at
    # column 1, so it packs to 0 when a digit is k bits wide; validate's
    # digits are 19 bits here, one more than the bit length of 4 * 3 * 147^2
    for k in range(1, 18):
        a = _carry_algebra(2**k)
        assert max(max(abs(c.re), abs(c.im)) for plane in a.sc for v in plane for c in v) == 147
        lhs = a.multiply(a.basis_product(0, 1), a.basis_vector(0))
        rhs = a.multiply(a.basis_vector(0), a.basis_product(1, 0))
        assert [x - y for x, y in zip(lhs, rhs)] == [qq(2**k), qq(-1), ZERO]
        assert (0, 1, 0) in [i.where for i in _assert_validate_matches_reference(a)]


def test_an_idempotent_of_the_wrong_length_names_its_length_and_the_dimension():
    # the reader refuses such a vector; an algebra built in code reaches validate
    a = replace(pointwise_algebra(2), idempotent_span=((ONE, ZERO, ZERO),))
    with pytest.raises(AlgebraFormatError, match=r"vectors of length 3,2 in dimension 2"):
        validate(a)


def test_multiply_basis_vectors_reads_tensor():
    a = matrix_algebra(2)
    e01, e10 = a.basis_vector(1), a.basis_vector(2)
    assert a.multiply(e01, e10) == a.basis_vector(0)  # E01 * E10 = E00


def test_multiply_by_zero():
    a = pointwise_algebra(2)
    zero = [ZERO, ZERO]
    assert a.multiply(a.basis_vector(0), zero) == zero


def test_truncated_polynomial_product_rule():
    # (a + b x)(c + d x) = ac + (ad + bc) x when x^2 = 0
    a = truncated_polynomial(2)
    out = a.multiply([qq(2), qq(3)], [qq(5), qq(7)])
    assert out == [qq(10), qq(29)]


def test_multiply_length_mismatch():
    a = pointwise_algebra(2)
    with pytest.raises(AlgebraFormatError):
        a.multiply([ONE], [ONE, ZERO])


def test_product_span_unital_is_full():
    a = matrix_algebra(2)
    assert Analysis(a).essential


def test_product_span_zero_algebra_is_trivial():
    assert product_span(zero_algebra(3)).dim == 0
    assert not Analysis(zero_algebra(3)).essential


def test_product_span_ef():
    ef = corpus()["EF"]
    span = product_span(ef)
    assert span.dim == 1
    assert span.contains([ONE, ZERO])
    assert not Analysis(ef).essential


def test_unitize_zero1_is_truncpoly2_after_relabel():
    sharp = unitize(zero_algebra(1))
    tp2 = truncated_polynomial(2)
    # unitize puts the unit last; TruncPoly2 has it first
    perm = [1, 0]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert sharp.sc[perm[i]][perm[j]][perm[k]] == tp2.sc[i][j][k]


@pytest.mark.parametrize("a", [zero_algebra(2), corpus()["EF"], matrix_algebra(2)], ids=lambda a: a.name)
def test_unitize_is_unital_essential_valid(a):
    sharp = unitize(a)
    assert validate(sharp).ok
    ok, u = is_unital(sharp)
    assert ok and u == sharp.unit
    assert Analysis(sharp).essential


def test_tensor_with_scalars_is_identity():
    c1 = truncated_polynomial(1)
    a = pointwise_algebra(3)
    t = tensor_product(c1, a)
    assert t.dim == a.dim
    assert t.sc == a.sc


def test_tensor_tp2_tp2():
    tp2 = truncated_polynomial(2)
    t = tensor_product(tp2, tp2)
    assert t.dim == 4
    assert validate(t).ok
    # (x tensor 1)^2 = 0; index of x tensor 1 is 1*2+0 = 2
    x1 = t.basis_vector(2)
    assert t.multiply(x1, x1) == [ZERO] * 4


def test_direct_sum_of_scalars_is_pointwise():
    c1 = truncated_polynomial(1)
    s = direct_sum(c1, c1)
    pw = pointwise_algebra(2)
    assert s.dim == 2
    assert s.sc == pw.sc
    assert validate(s).ok


def test_pointwise_products():
    a = pointwise_algebra(2)
    assert a.multiply(a.basis_vector(0), a.basis_vector(1)) == [ZERO, ZERO]
    assert a.multiply(a.basis_vector(0), a.basis_vector(0)) == a.basis_vector(0)


def test_semigroup_z2_structure():
    z2 = semigroup_algebra([[0, 1], [1, 0]])
    g = z2.basis_vector(1)
    assert z2.multiply(g, g) == z2.basis_vector(0)
    assert recover_cayley_table(z2) == [[0, 1], [1, 0]]


def test_semigroup_rejects_non_associative_table():
    with pytest.raises(AlgebraFormatError, match="not associative"):
        semigroup_algebra([[1, 1], [0, 0]])
    with pytest.raises(AlgebraFormatError, match="length"):
        semigroup_algebra([[0, 1], [1]])
    with pytest.raises(AlgebraFormatError, match="out of range"):
        semigroup_algebra([[0, 2], [1, 0]])


def test_semigroup_weight_constraints():
    with pytest.raises(AlgebraFormatError, match="weight"):
        semigroup_algebra([[0, 1], [1, 0]], weight=[2, 2])  # identity must weigh 1
    a = semigroup_algebra([[0, 1], [1, 0]], weight=[1, 2])
    assert validate(a).ok


def test_radical_pointwise_trivial():
    assert radical(pointwise_algebra(3)).dim == 0
    assert Analysis(pointwise_algebra(3)).semisimple


def test_radical_truncpoly2_is_nilpotent_line():
    rad = radical(truncated_polynomial(2))
    assert rad.dim == 1
    assert rad.contains([ZERO, ONE])


def test_radical_matrix_algebra_trivial():
    assert radical(matrix_algebra(2)).dim == 0


def test_radical_is_an_ideal():
    for name in ("TruncPoly3", "UpperTri2", "Czero2", "EF"):
        a = corpus()[name]
        rad = radical(a)
        for v in rad.basis_vectors():
            for j in range(a.dim):
                ej = a.basis_vector(j)
                assert rad.contains(a.multiply(list(v), ej))
                assert rad.contains(a.multiply(ej, list(v)))


@pytest.mark.parametrize("a", [matrix_algebra(2), pointwise_algebra(4)], ids=lambda a: a.name)
def test_radical_of_a_basis_scaled_by_powers_of_100_is_zero_on_both_lanes(a):
    # on f_i = 100^i e_i the trace-form entries span the square of the
    # constants' spread; a large row must not set a small row's pivot threshold
    p = [[QQi(100**i) if i == j else ZERO for j in range(a.dim)] for i in range(a.dim)]
    scaled = change_basis(a, p)
    for backend in (EXACT, FLOAT):
        assert radical(scaled, backend).dim == 0
        report = build_report(Analysis(scaled, backend))
        assert report["dims"]["radical"] == 0 and report["predicates"]["semisimple"]


RADICAL_ALGEBRAS = dict(
    corpus(),
    TruncPoly16=truncated_polynomial(16),
    UpperTri5=upper_triangular(5),
    M4=matrix_algebra(4),
    UpperTri3Sharp=unitize(upper_triangular(3)),
)


@pytest.mark.parametrize("name", sorted(RADICAL_ALGEBRAS), ids=str)
def test_radical_equals_left_multiplication_reference(name):
    a = RADICAL_ALGEBRAS[name]
    ref = nullspace(reference_radical_rows(a), a.dim)
    rad = radical(a)
    assert rad.rows == ref.rows
    assert rad.pivots == ref.pivots


def test_group_algebras_semisimple_char_zero():
    for name in ("Z2", "Z3", "S3", "Z2w"):
        assert Analysis(corpus()[name]).semisimple, name


def test_commutativity_and_units():
    assert not matrix_algebra(2).is_commutative()
    tp = truncated_polynomial(3)
    assert tp.is_commutative()
    ok, u = is_unital(tp)
    assert ok and list(u) == [ONE, ZERO, ZERO]
    ok, u = is_unital(zero_algebra(1))
    assert not ok and u is None


def test_tensor_and_direct_sum_preserve_commutativity():
    tp2 = truncated_polynomial(2)
    pw2 = pointwise_algebra(2)
    assert tensor_product(tp2, pw2).is_commutative()
    assert direct_sum(tp2, pw2).is_commutative()
    ok, _ = is_unital(tensor_product(tp2, pw2))
    assert ok


def test_product_span_matches_oracle_on_corpus():
    for name, a in sorted(corpus().items()):
        assert product_span(a).dim == oracle_product_span_dim(a), name


# ---------------------------------------------------------------------------
# wire format


def test_json_round_trip(tmp_path):
    a = corpus()["Z2w"]
    path = tmp_path / "z2w.json"
    dump_algebra(a, path)
    b = load_algebra(path)
    assert a == b


def test_json_round_trip_with_characters_and_idempotents(tmp_path):
    from dataclasses import replace

    a = replace(
        pointwise_algebra(2),
        declared_characters=((ONE, ZERO), (ZERO, ONE)),
    )
    path = tmp_path / "pw2.json"
    dump_algebra(a, path)
    assert load_algebra(path) == a


def test_parser_rejects_duplicate_keys():
    with pytest.raises(AlgebraFormatError, match="duplicate"):
        from_json_dict(
            {
                "name": "dup",
                "dim": 1,
                "labels": ["e"],
                "sc": [[0, 0, 0, "1", "0"], [0, 0, 0, "2", "0"]],
            }
        )


def test_parser_rejects_out_of_range_indices():
    with pytest.raises(AlgebraFormatError, match="out of range"):
        from_json_dict(
            {"name": "oob", "dim": 1, "labels": ["e"], "sc": [[0, 1, 0, "1", "0"]]}
        )


_ONE_DIM = {"name": "x", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, "1", "0"]]}

# (override of the valid document above, or a key to delete; expected message)
BAD_DOCUMENTS = {
    "missing-key": ("sc", "missing required key"),
    "short-labels": ({"dim": 2, "sc": []}, "labels"),
    "dim-zero": ({"dim": 0, "labels": []}, "dim"),
    "dim-bool": ({"dim": True}, "dim"),
    "name-not-string": ({"name": 5}, "name"),
    "labels-not-list": ({"labels": 5}, "labels"),
    "labels-string": ({"labels": "e"}, "labels"),
    "sc-not-list": ({"sc": 3}, "sc"),
    "sc-entry-not-list": ({"sc": [5]}, r"sc\[0\]"),
    "index-bool": ({"sc": [[True, 0, 0, "1", "0"]]}, r"index True"),
    "zero-denominator": ({"sc": [[0, 0, 0, "1/0", "0"]]}, r"sc\[0\]"),
    "unit-not-list": ({"unit": 1}, "unit"),
    "unit-zero-denominator": ({"unit": ["1/0"]}, r"unit\[0\]"),
    "characters-not-list": ({"characters": 5}, "characters"),
    "character-not-list": ({"characters": [5]}, r"characters\[0\]"),
    "idempotent-not-list": ({"idempotent_span": [5]}, r"idempotent_span\[0\]"),
    "weight-not-list": ({"weight": 1}, "weight"),
    # every scalar goes through one bounded part parser
    "sc-bool": ({"sc": [[0, 0, 0, True, "0"]]}, "refusing to parse bool"),
    "sc-huge-exponent": ({"sc": [[0, 0, 0, "1e999999999", "0"]]}, "exponent"),
    "sc-huge-negative-exponent": ({"sc": [[0, 0, 0, "1", "-1E-999999999"]]}, "exponent"),
    "sc-beyond-float-exponent": ({"sc": [[0, 0, 0, "1e5000", "0"]]}, "exponent"),
    "sc-beyond-float": ({"sc": [[0, 0, 0, "1e400", "0"]]}, "float range"),
    "sc-int-beyond-float": ({"sc": [[0, 0, 0, 10**400, "0"]]}, "float range"),
    "unit-float": ({"unit": [0.1]}, "decimal string"),
    "unit-bool": ({"unit": [True]}, "refusing to parse bool"),
    "unit-huge-exponent": ({"unit": ["1e999999999"]}, r"unit\[0\]: exponent"),
    "unit-pair-beyond-float": ({"unit": [["1", "-1e400"]]}, "float range"),
    "character-bool": ({"characters": [[True]]}, "refusing to parse bool"),
    "idempotent-float": ({"idempotent_span": [[0.5]]}, "decimal string"),
    "weight-bool": ({"weight": [True]}, "refusing to parse bool"),
    "weight-huge-exponent": ({"weight": ["1e999999999"]}, "exponent"),
    "weight-beyond-float": ({"weight": ["1e400"]}, "float range"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_parser_rejects_bad_shape_and_missing_keys(case):
    change, message = BAD_DOCUMENTS[case]
    doc = dict(_ONE_DIM)
    if isinstance(change, dict):
        doc.update(change)
    else:
        del doc[change]
    with pytest.raises(AlgebraFormatError, match=message):
        from_json_dict(doc)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "dim": }')
    with pytest.raises(AlgebraFormatError, match="line 1"):
        load_algebra(path)


def test_weights_keep_their_decimal_reading():
    doc = dict(_ONE_DIM, weight=[1.1])
    assert from_json_dict(doc).weight == (Fraction(11, 10),)
    a = semigroup_algebra([[0, 1], [1, 0]], weight=[1, 1.1])
    assert a.weight == (1, Fraction(11, 10))


def test_parser_rejects_float_scalars():
    with pytest.raises(AlgebraFormatError, match="decimal string"):
        from_json_dict(
            {"name": "f", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, 0.5, 0]]}
        )


def test_omitted_entries_are_zero():
    a = from_json_dict(
        {"name": "sparse", "dim": 2, "labels": ["u", "v"], "sc": [[0, 0, 0, "1", "0"]]}
    )
    assert a.sc[0][1][0].is_zero()
    assert a.sc[1][1][1].is_zero()


def test_cached_hash_is_the_dataclass_hash_of_the_fields():
    import pickle
    from dataclasses import fields

    for name, a in sorted(corpus().items()):
        expected = hash(tuple(getattr(a, f.name) for f in fields(a)))
        assert hash(a) == expected == hash(a), name
        twin = replace(a)
        assert twin == a and hash(twin) == hash(a), name
        assert a.nz is not None and a.complex_sc is not None  # fill the views
        for cached in ("_hash", "nz", "complex_sc"):
            assert cached in vars(a), (name, cached)
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a, name
        for cached in ("_hash", "nz", "complex_sc"):
            assert cached not in vars(restored), (name, cached)
        assert restored.nz == a.nz, name


# ZERO is drawn twice as often as each other kind, so most tensors are sparse
_SCALARS = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.builds(QQi),  # a zero that is not the ZERO object
    st.builds(
        QQi,
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    ),
)


@st.composite
def _sparse_tensors(draw):
    n = draw(st.integers(1, 4))
    flat = draw(st.lists(_SCALARS, min_size=n**3, max_size=n**3))
    it = iter(flat)
    return n, tuple(tuple(tuple(next(it) for _ in range(n)) for _ in range(n)) for _ in range(n))


@given(_sparse_tensors())
@settings(max_examples=60, deadline=None)
def test_nonzero_view_matches_a_dense_scan(tensor):
    import numpy as np

    n, sc = tensor
    a = FiniteAlgebra(name="t", dim=n, sc=sc, labels=tuple(f"e{i}" for i in range(n)))
    scan = tuple(
        tuple(tuple((k, c) for k, c in enumerate(row) if not c.is_zero()) for row in plane)
        for plane in sc
    )
    assert a.nz == scan
    expected = np.array(sc, dtype=np.complex128)
    assert a.complex_sc.shape == (n, n, n)
    assert np.array_equal(a.complex_sc, expected)
    assert not a.complex_sc.flags.writeable
    with pytest.raises(ValueError):
        a.complex_sc[0, 0, 0] = 1


def _one_dim(c):
    return from_json_dict({"name": "c", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, c, "0"]]})


def test_tensor_product_refuses_a_product_part_beyond_the_reader_bound():
    # 1e75 * 1e75 is the bound itself, and a file can still hold it
    at_bound = tensor_product(_one_dim("1e75"), _one_dim("1e75"))
    assert at_bound.sc[0][0][0] == QQi(10**150)
    assert from_json_dict(to_json_dict(at_bound)) == at_bound
    with pytest.raises(AlgebraFormatError, match="beyond"):
        tensor_product(_one_dim("1e100"), _one_dim("1e100"))
    # e.e = 1e-100 e has the unit 1e100 e, and the tensor square's unit is 1e200
    with pytest.raises(AlgebraFormatError, match="beyond"):
        tensor_product(_one_dim("1e-100"), _one_dim("1e-100"))


def test_analysis_refuses_a_part_beyond_the_reader_bound():
    # e.e = 1e160 e, built directly rather than read from a file
    big = QQi(10**160)
    one = ((((ONE,),),), ("e",))
    algebras = [
        FiniteAlgebra("big", 1, (((big,),),), ("e",)),
        FiniteAlgebra("big", 1, (((QQi(0, 10**160),),),), ("e",)),
        FiniteAlgebra("e", 1, *one, unit=(big,)),
        FiniteAlgebra("e", 1, *one, idempotent_span=((big,),)),
        FiniteAlgebra("e", 1, *one, declared_characters=((big,),)),
    ]
    for a in algebras:
        for backend in (EXACT, FLOAT):
            with pytest.raises(AlgebraFormatError, match="beyond"):
                Analysis(a, backend)
    # the bound itself is accepted
    edge = FiniteAlgebra("edge", 1, (((QQi(10**150),),),), ("e",))
    assert Analysis(edge).z.dim == 0



def _scaled_pointwise(c0, c1):
    """e0 e0 = c0 e0 and e1 e1 = c1 e1: two moduli, and associative."""
    return from_json_dict(
        {"name": "P", "dim": 2, "labels": ["a", "b"], "sc": [[0, 0, 0, c0, "0"], [1, 1, 1, c1, "0"]]}
    )


def test_float_analysis_refuses_constants_spanning_too_many_orders():
    # a ratio of smallest to largest modulus at most the float tolerance (1e-9)
    # is refused on the float lane only; moduli are compared exactly, so 1e-400,
    # which is 0.0 as a float, is refused too
    for c0, c1 in (("1", "1e9"), ("1e-9", "1"), ("1", "1e100"), ("1e-400", "1")):
        a = _scaled_pointwise(c0, c1)
        with pytest.raises(AlgebraFormatError, match=r"span moduli .* --backend exact"):
            Analysis(a, FLOAT)
        assert Analysis(a, EXACT).z.dim == 0
    for c0, c1 in (("1", "1e8"), ("3", "-4"), ("1e100", "1e100")):
        assert Analysis(_scaled_pointwise(c0, c1), FLOAT).z.dim == 0


# A fixed handful of corpus pairs, every product of dimension at most 12.
ISOMORPHIC_PAIRS = [
    ("TruncPoly2", "Z2"),
    ("UpperTri2", "Pointwise2"),
    ("M2", "TruncPoly2"),
    ("EF", "TruncPoly3"),
    ("Czero2", "Z3"),
    ("S3", "TruncPoly2"),
    ("Z2w", "UpperTri2"),
]


def _isomorphism_invariants(a):
    """Dims, predicates, flags, and the sorted point-derivation and
    cotangent dims of the exact report: all that a change of basis keeps."""
    report = build_report(Analysis(a))
    dims = dict(report["dims"])
    per_character = dims.pop("point_derivations")
    return (
        dims,
        report["predicates"],
        report["flags"],
        sorted(e["dim"] for e in per_character),
        sorted(e["cotangent"] for e in per_character),
    )


@pytest.mark.parametrize("left,right", ISOMORPHIC_PAIRS, ids=[f"{l}-{r}" for l, r in ISOMORPHIC_PAIRS])
def test_isomorphic_constructions_give_the_same_report(left, right):
    a, b = corpus()[left], corpus()[right]
    assert _isomorphism_invariants(tensor_product(a, b)) == _isomorphism_invariants(tensor_product(b, a))
    assert _isomorphism_invariants(direct_sum(a, b)) == _isomorphism_invariants(direct_sum(b, a))


@pytest.mark.parametrize("name", ["M2", "TruncPoly3", "UpperTri2", "Z3", "S3", "Pointwise2"])
def test_unitization_of_a_unital_algebra_is_its_sum_with_c(name):
    # for unital A, 1# - 1_A is a central idempotent, so A# = A + C1
    a = corpus()[name]
    assert is_unital(a)[0]
    assert _isomorphism_invariants(unitize(a)) == _isomorphism_invariants(direct_sum(a, corpus()["C1"]))
