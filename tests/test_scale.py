"""Desk-scale checks beyond the corpus (dimensions up to sixteen)."""

import pytest

from amenalyzer.algebra import (
    matrix_algebra,
    pointwise_algebra,
    truncated_polynomial,
    upper_triangular,
)
from amenalyzer.characters import find_characters
from amenalyzer.classify import Analysis
from amenalyzer.derivations import classify_derivations
from amenalyzer.linalg import FLOAT

from oracles import oracle_derivation_dim, oracle_inner_dim


def test_matrix_algebra_3_dims_and_flags():
    a = matrix_algebra(3)  # dimension 9, constraint system 729 x 81
    d = classify_derivations(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (8, 8, 8)
    assert oracle_derivation_dim(a) == oracle_inner_dim(a) == 8
    assert d.weakly_amenable and d.cyclically_amenable and d.cyclically_weakly_amenable
    assert find_characters(a).characters == ()


def test_upper_triangular_4_is_weakly_amenable():
    a = upper_triangular(4)  # dimension 10, constraint system 1000 x 100
    d = classify_derivations(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (6, 6, 6)
    assert d.weakly_amenable


def test_pointwise_12_fully_amenable():
    a = pointwise_algebra(12)
    d = classify_derivations(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (0, 0, 0)
    rep = Analysis(a).points
    assert rep.certified and len(rep.characters) == 12
    assert rep.point_amenable and rep.zero_point_amenable


def test_matrix_algebra_3_float_agrees():
    a = matrix_algebra(3)
    de = classify_derivations(a)
    df = classify_derivations(a, FLOAT)
    assert de.dims == df.dims


@pytest.mark.parametrize("a", [truncated_polynomial(16), matrix_algebra(4)], ids=lambda a: a.name)
def test_exact_dims_at_dimension_16(a):
    # constraint system 4096 x 256, eliminated exactly
    d = classify_derivations(a)
    assert d.z.dim == oracle_derivation_dim(a)
    assert d.inner.dim == oracle_inner_dim(a)
