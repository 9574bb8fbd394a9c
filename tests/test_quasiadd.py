"""Tensor-square functionals, their semigroup form, and weighted norms."""

import sys

import numpy as np
import pytest

from amenalyzer import linalg, quasiadd

from amenalyzer.algebra import (
    matrix_algebra,
    pointwise_algebra,
    semigroup_algebra,
    truncated_polynomial,
    upper_triangular,
    zero_algebra,
)
from amenalyzer.characters import find_characters
from amenalyzer.classify import Analysis, build_report
from amenalyzer.corpus import corpus
from amenalyzer.crosscheck import run_crosscheck
from amenalyzer.derivations import derivation_space
from amenalyzer.linalg import EXACT, FLOAT, subspace_equal, subspace_leq
from amenalyzer.quasiadd import (
    NotASemigroupAlgebra,
    cd_space,
    corollary_3_2_check,
    cyclic_quasi_space,
    inner_q,
    inner_quasi_space,
    point_derivation_from_quasi,
    quasi_additive_space,
    semigroup_quasi_additive,
    weighted_norm,
)
from amenalyzer.scalars import ONE, ZERO

from oracles import oracle_derivation_dim


def test_zero_algebra_unconstrained():
    assert quasi_additive_space(zero_algebra(1)).dim == 1


def test_matches_derivation_space_coordinatewise():
    for name in ("M2", "TruncPoly3", "S3", "UpperTri2", "Czero2", "TensorTP2TP2"):
        a = corpus()[name]
        qa = quasi_additive_space(a)
        z = derivation_space(a)
        assert qa.rows == z.rows, name
        assert qa.dim == oracle_derivation_dim(a), name


def test_matrix_algebra_dim_three():
    assert quasi_additive_space(matrix_algebra(2)).dim == 3


def test_inner_trivial_for_commutative():
    assert inner_quasi_space(truncated_polynomial(3)).dim == 0


def test_inner_contained_in_cyclic():
    for name, a in sorted(corpus().items()):
        inner = inner_quasi_space(a)
        cyc = cyclic_quasi_space(a, quasi_additive_space(a))
        assert subspace_leq(inner, cyc), name


def test_zero2_cyclic_space_is_antisymmetric_line():
    a = zero_algebra(2)
    cyc = cyclic_quasi_space(a, quasi_additive_space(a))
    assert cyc.dim == 1
    flat = cyc.basis_vectors()[0]
    # basis element is antisymmetric: P[0][1] = -P[1][0], diagonal zero
    assert flat[0].is_zero() and flat[3].is_zero()
    assert flat[1] == -flat[2]


def test_corollary_flag_agreement_matrix_algebra():
    a = matrix_algebra(2)
    rep = corollary_3_2_check(Analysis(a))
    assert rep["wa_agree"] and rep["ca_agree"] and rep["cwa_agree"]
    assert rep["iv_status"] == "skipped: no characters"


def test_corollary_truncpoly2_witness():
    a = truncated_polynomial(2)
    rep = corollary_3_2_check(Analysis(a))
    assert rep["wa_agree"] and rep["ca_agree"] and rep["cwa_agree"]
    # the non-cyclic witness pairs x against 1 asymmetrically
    qa = quasi_additive_space(a)
    flat = qa.basis_vectors()[0]
    assert flat[1 * 2 + 0] != -flat[0 * 2 + 1]


def test_corollary_pointwise_vacuously_strong():
    a = pointwise_algebra(2)
    rep = corollary_3_2_check(Analysis(a))
    assert rep["qa_dim"] == 0
    assert rep["iv_status"] == "pass"


def test_point_derivation_recovery_from_rank_one():
    a = truncated_polynomial(2)
    ch = find_characters(a).characters[0]
    d = [ZERO, ONE]
    # flatten of the rank-one functional P[i][j] = d_i * phi_j
    flat = [d[i] * ch.phi[j] for i in range(2) for j in range(2)]
    recovered, member = point_derivation_from_quasi(Analysis(a), flat, ch, [ONE, ZERO])
    assert member
    assert recovered == d


def test_point_derivation_from_zero_functional():
    a = truncated_polynomial(2)
    ch = find_characters(a).characters[0]
    flat = [ZERO] * 4
    d, member = point_derivation_from_quasi(Analysis(a), flat, ch, [ONE, ZERO])
    assert member and all(x.is_zero() for x in d)


def test_point_derivation_from_quasi_rejects_kernel_vector():
    a = truncated_polynomial(2)
    ch = find_characters(a).characters[0]
    with pytest.raises(ValueError):
        point_derivation_from_quasi(Analysis(a), [ZERO] * 4, ch, [ZERO, ONE])


def test_quasi_verdict_recorded_on_upper_triangular():
    a = upper_triangular(2)
    chars = find_characters(a).characters
    qa = quasi_additive_space(a)
    assert qa.dim == 1
    flat = list(qa.basis_vectors()[0])
    ch = chars[0]
    a0_idx = next(i for i in range(3) if not ch.phi[i].is_zero())
    a0 = a.basis_vector(a0_idx)
    d, member = point_derivation_from_quasi(Analysis(a), flat, ch, a0)
    assert isinstance(member, bool)  # verdict recorded, not assumed


# ---------------------------------------------------------------------------
# semigroup specialization


def test_z2_quasi_additive_trivial():
    z2 = corpus()["Z2"]
    qa = semigroup_quasi_additive(z2)
    assert qa.dim == 0
    assert cd_space(z2, qa).dim == 0


def test_requires_table_structure():
    with pytest.raises(NotASemigroupAlgebra):
        semigroup_quasi_additive(truncated_polynomial(2))
    a = _no_identity_semigroup()
    qa = semigroup_quasi_additive(a)
    with pytest.raises(NotASemigroupAlgebra):
        cd_space(a, qa)


def _no_identity_semigroup():
    # left-zero semigroup: x * y = x; associative, no identity
    return semigroup_algebra([[0, 0], [1, 1]], name="LeftZero2")


def test_commutative_semigroup_inner_trivial():
    assert inner_q(corpus()["Z3"]).dim == 0


def test_s3_cd_equals_inner():
    s3 = corpus()["S3"]
    cds = cd_space(s3, semigroup_quasi_additive(s3))
    iq = inner_q(s3)
    assert cds.dim == iq.dim == 3
    assert subspace_equal(cds, iq)


def test_s3_cd_is_antisymmetric_with_zero_diagonal():
    s3 = corpus()["S3"]
    cds = cd_space(s3, semigroup_quasi_additive(s3))
    cyc = cyclic_quasi_space(s3, quasi_additive_space(s3))
    assert cds.rows == cyc.rows
    n = s3.dim
    for flat in cds.basis_vectors():
        for x in range(n):
            assert flat[x * n + x].is_zero()


def test_table_indexed_system_matches_general():
    for name in ("Z2", "Z3", "S3", "Z2w"):
        a = corpus()[name]
        assert semigroup_quasi_additive(a).rows == quasi_additive_space(a).rows, name


def test_weighted_norm_and_monotonicity():
    s3 = corpus()["S3"]
    basis = [list(v) for v in inner_q(s3).basis_vectors()]
    ones = [1] * 6
    heavier = [1, 2, 3, 2, 5, 2]
    for flat in basis:
        base = weighted_norm(flat, ones)
        assert base > 0
        assert weighted_norm(flat, heavier) <= base
    # raising a single weight never increases the norm
    rng = np.random.default_rng(42)
    p = rng.standard_normal(36) + 1j * rng.standard_normal(36)
    w = [1.0] * 6
    before = weighted_norm(p, w)
    for idx in range(6):
        w2 = list(w)
        w2[idx] = 3.5
        assert weighted_norm(p, w2) <= before


def test_weighted_variant_flags_identical():
    plain = Analysis(corpus()["Z2"])
    weighted = Analysis(corpus()["Z2w"])
    assert plain.flags == weighted.flags


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_report_solves_one_derivation_system(monkeypatch, backend):
    # Theorem 3.1 lets the report take dim Z for the quasi-additive dim, so
    # the n^3-row system is eliminated once, wherever nullspace is bound
    a = upper_triangular(3)
    real = linalg.nullspace
    row_counts = []

    def counting(rows, ncols, *args, **kwargs):
        row_counts.append(len(rows))
        return real(rows, ncols, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("amenalyzer") and getattr(module, "nullspace", None) is real:
            monkeypatch.setattr(module, "nullspace", counting)
    report = build_report(Analysis(a, backend))
    assert row_counts.count(a.dim**3) == 1
    assert report["dims"]["quasi_additive"] == report["dims"]["Z"]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_group_checks_solve_table_system_once(monkeypatch, backend):
    # T5.5f and T5.6f share the Analysis's table-indexed space, so each
    # group algebra's n^3-row table system is solved once across both
    real = quasiadd.semigroup_quasi_additive
    solved = []

    def counting(a, *args, **kwargs):
        solved.append(a.name)
        return real(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("amenalyzer") and getattr(module, "semigroup_quasi_additive", None) is real:
            monkeypatch.setattr(module, "semigroup_quasi_additive", counting)
    out = run_crosscheck(only=("T5.5f", "T5.6f"), backend=backend)
    groups = {r["algebra"] for r in out["results"] if r["status"] != "skip"}
    assert groups and all(r["status"] != "fail" for r in out["results"])
    assert sorted(solved) == sorted(groups)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_quasi_additive_space_never_reads_the_derivation_builder(monkeypatch, backend):
    # T3.1 compares the two spaces, so the tensor-square side must be built
    # from multiplied products, never from the derivation system's rows
    from amenalyzer import derivations

    called = []
    for fn in ("_assemble_derivation_rows", "derivation_space"):
        real = getattr(derivations, fn)

        def spy(*args, _fn=fn, _real=real, **kwargs):
            called.append(_fn)
            return _real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("amenalyzer") and getattr(module, fn, None) is real:
                monkeypatch.setattr(module, fn, spy)
    for name in ("M2", "S3", "TruncPoly3", "UpperTri2", "Czero2"):
        a = corpus()[name]
        qa = quasi_additive_space(a, backend)
        assert not called, name
        assert qa.dim == oracle_derivation_dim(a), name
    derivations.derivation_space(corpus()["M2"], backend)  # the spies see a call
    assert called == ["derivation_space", "_assemble_derivation_rows"]
