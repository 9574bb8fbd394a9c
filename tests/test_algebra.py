"""Constructors, validation, radical, and the JSON wire format."""

import json

import pytest

from amenalyzer.algebra import (
    AlgebraFormatError,
    FiniteAlgebra,
    direct_sum,
    dump_algebra,
    from_json_dict,
    is_essential,
    is_semisimple,
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
from amenalyzer.corpus import corpus
from amenalyzer.linalg import nullspace
from amenalyzer.scalars import ONE, ZERO, qq

from oracles import oracle_product_span_dim, reference_radical_rows


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


def test_validate_reports_broken_associativity():
    # e0*e0 = e1 and e1*e0 = e0 cannot be associative: (e0 e0) e0 != e0 (e0 e0)
    a = from_json_dict(
        {
            "name": "broken",
            "dim": 2,
            "labels": ["a", "b"],
            "sc": [[0, 0, 1, "1", "0"], [1, 0, 0, "1", "0"]],
        }
    )
    report = validate(a)
    assert not report.ok
    assert any(i.kind == "associativity" and i.where == (0, 0, 0) for i in report.issues)


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
    assert is_essential(a)


def test_product_span_zero_algebra_is_trivial():
    assert product_span(zero_algebra(3)).dim == 0
    assert not is_essential(zero_algebra(3))


def test_product_span_ef():
    ef = corpus()["EF"]
    span = product_span(ef)
    assert span.dim == 1
    assert span.contains([ONE, ZERO])
    assert not is_essential(ef)


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
    assert is_essential(sharp)


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
    assert is_semisimple(pointwise_algebra(3))


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
        assert is_semisimple(corpus()[name]), name


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


def test_parser_rejects_bad_shape_and_missing_keys():
    with pytest.raises(AlgebraFormatError, match="missing required key"):
        from_json_dict({"name": "x", "dim": 1, "labels": ["e"]})
    with pytest.raises(AlgebraFormatError, match="labels"):
        from_json_dict({"name": "x", "dim": 2, "labels": ["e"], "sc": []})
    with pytest.raises(AlgebraFormatError, match="dim"):
        from_json_dict({"name": "x", "dim": 0, "labels": [], "sc": []})


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "dim": }')
    with pytest.raises(AlgebraFormatError, match="line 1"):
        load_algebra(path)


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
