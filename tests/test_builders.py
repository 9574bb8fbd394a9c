"""The system builders on Gaussian integers against their QQi references.

Each builder that reads the structure tensor computes on the Gaussian
integers of ``FiniteAlgebra.integer_nz`` and hands its rows to the lane of
its system (``pair_system``).  Against the ``qqi_*`` builders of
``oracles.py``, which build the same rows in QQi arithmetic: the exact row
space must be the same, and the float lane must receive the same rows,
column for column, each value with the bits of ``complex`` of the QQi
value.  The algebras are random Gaussian-rational tensors of dimension at
most 4, with constants of moduli from 1e-100 to 1e150 over denominators, and
seeded dense bases at n = 5.  The tensor-square builders are held to their
``qqi_*`` references the same way, the semigroup ones on random product
tables, and ``multiply`` to the ``QQi`` product it was.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import linalg
from amenalyzer.algebra import (
    FiniteAlgebra,
    cayley_identity,
    commutator_span,
    direct_sum,
    ideal_closure,
    idempotent_span_issues,
    pointwise_algebra,
    product_span,
    radical,
    recover_cayley_table,
    truncated_polynomial,
)
from amenalyzer.characters import ideal_product_span
from amenalyzer.corpus import corpus
from amenalyzer.derivations import derivation_space, inner_space
from amenalyzer.linalg import EXACT, FLOAT, nullspace, rowspace
from amenalyzer.quasiadd import cd_space, inner_q, inner_quasi_space, quasi_additive_space, semigroup_quasi_additive
from amenalyzer.scalars import ONE, ZERO, QQi

from oracles import (
    change_basis,
    qqi_commutator_rows,
    qqi_derivation_rows,
    qqi_ideal_closure,
    qqi_ideal_product_rows,
    qqi_idempotent_span_issues,
    qqi_inner_q_rows,
    qqi_inner_quasi_rows,
    qqi_inner_rows,
    qqi_multiply,
    qqi_product_rows,
    qqi_quasi_additive_rows,
    qqi_radical_rows,
    qqi_semigroup_rows,
)


class _Handed(Exception):
    """Stops a float builder once its rows are handed to the lane."""


def _float_rows(build, *args):
    """The rows a float builder hands to the float lane, as the lane makes
    them; the elimination is not run."""
    handed = []
    convert = linalg._FloatLane.pair_system

    def spy(rows, denominators):
        handed.append(convert(rows, denominators))
        raise _Handed

    with mock.patch.object(linalg._FloatLane, "pair_system", spy), pytest.raises(_Handed):
        build(*args, FLOAT)
    return handed[0]


def _bits(rows):
    """Each row's (column, real part, imaginary part), the parts in hex."""
    return [[(c, complex(x).real.hex(), complex(x).imag.hex()) for c, x in row.items()] for row in rows]


def _same_space(s, t):
    return (s.basis, s.pivots) == (t.basis, t.pivots)


def _check_against_references(a, builders):
    """Each (builder, its qqi_* reference, columns, whether the space is
    the kernel of the rows): the same space on the exact lane, the same
    bits on the float lane."""
    for build, reference, ncols, kernel in builders:
        rows = reference(a)
        want = (nullspace if kernel else rowspace)(rows, ncols, EXACT)
        assert _same_space(build(a, EXACT), want), build.__name__
        assert _bits(_float_rows(build, a)) == _bits(rows), build.__name__


def _check_builders(a):
    n = a.dim
    _check_against_references(a, (
        (derivation_space, qqi_derivation_rows, n * n, True),
        (inner_space, qqi_inner_rows, n * n, False),
        (product_span, qqi_product_rows, n, False),
        (radical, qqi_radical_rows, n, True),
        (quasi_additive_space, qqi_quasi_additive_rows, n * n, True),
        (inner_quasi_space, qqi_inner_quasi_rows, n * n, False),
    ))
    commutators = commutator_span(a)
    assert _same_space(commutators, rowspace(qqi_commutator_rows(a), n, EXACT))
    rng = random.Random(n)
    spaces = [
        rowspace([a.basis_vector(i) for i in range(n)], n, EXACT),
        commutators,
        radical(a),
        rowspace([[rng.choice(_SMALL) for _ in range(n)] for _ in range(max(1, n - 2))], n, EXACT),
    ]
    for s in spaces:
        assert _same_space(ideal_closure(a, s), qqi_ideal_closure(a, s))
        assert _same_space(ideal_product_span(a, s), rowspace(qqi_ideal_product_rows(a, s), n, EXACT))
        try:
            sf = rowspace(s.rows, n, FLOAT)
        except OverflowError:
            continue  # rows past the float range, which the float lane refuses
        handed = _float_rows(lambda a, backend: ideal_product_span(a, sf), a)
        assert _bits(handed) == _bits(qqi_ideal_product_rows(a, sf))
    if a.idempotent_span is not None:
        assert idempotent_span_issues(a) == qqi_idempotent_span_issues(a)


_SMALL = [QQi(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1)]


@st.composite
def _parts(draw):
    """A nonzero rational of modulus from about 1e-100 to below 1e150,
    with a denominator."""
    value = Fraction(draw(st.integers(1, 999)), draw(st.integers(1, 97)))
    value *= Fraction(10) ** draw(st.integers(-98, 146))
    return value if draw(st.booleans()) else -value


_SCALARS = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.builds(QQi, _parts()),
    st.builds(QQi, st.just(0), _parts()),
    st.builds(QQi, _parts(), _parts()),
)


@st.composite
def _algebras(draw):
    """A random structure tensor of dimension at most 4, associative or
    not, with a few declared idempotent candidates."""
    n = draw(st.integers(1, 4))
    flat = iter(draw(st.lists(_SCALARS, min_size=n**3, max_size=n**3)))
    sc = tuple(tuple(tuple(next(flat) for _ in range(n)) for _ in range(n)) for _ in range(n))
    vectors = draw(st.lists(st.lists(st.sampled_from(_SMALL + [ONE] * 4), min_size=n, max_size=n), max_size=3))
    return FiniteAlgebra(
        name="random",
        dim=n,
        sc=sc,
        labels=tuple(f"e{i}" for i in range(n)),
        idempotent_span=tuple(map(tuple, vectors)) if vectors else None,
    )


@given(a=_algebras())
@settings(max_examples=40, deadline=None)
def test_builders_on_random_gaussian_rational_tensors(a):
    _check_builders(a)


@given(a=_algebras(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_multiply_equals_the_qqi_product(a, data):
    vectors = st.lists(_SCALARS, min_size=a.dim, max_size=a.dim)
    x, y = data.draw(vectors), data.draw(vectors)
    assert a.multiply(x, y) == qqi_multiply(a, x, y)


@st.composite
def _tables(draw):
    """The algebra of a random product table on at most 4 elements,
    associative or not, and sometimes with an identity."""
    n = draw(st.integers(1, 4))
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    e = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if e is not None:
        for x in range(n):
            table[e][x] = table[x][e] = x
    sc = tuple(tuple(tuple(ONE if k == table[i][j] else ZERO for k in range(n)) for j in range(n)) for i in range(n))
    return FiniteAlgebra(name="table", dim=n, sc=sc, labels=tuple(f"s{i}" for i in range(n)))


@given(a=_tables())
@settings(max_examples=40, deadline=None)
def test_semigroup_builders_on_random_tables(a):
    n = a.dim
    _check_against_references(a, (
        (semigroup_quasi_additive, qqi_semigroup_rows, n * n, True),
        (inner_q, qqi_inner_q_rows, n * n, False),
        (quasi_additive_space, qqi_quasi_additive_rows, n * n, True),
        (inner_quasi_space, qqi_inner_quasi_rows, n * n, False),
    ))
    # the table-indexed kernel is the general one, coordinate for coordinate
    assert _same_space(semigroup_quasi_additive(a), quasi_additive_space(a))
    e = cayley_identity(recover_cayley_table(a))
    if e is not None:
        for backend in (EXACT, FLOAT):
            qa = semigroup_quasi_additive(a, backend)
            normal = nullspace([{x * n + e: ONE} for x in range(n)], n * n, backend)
            want = linalg.subspace_intersect(qa, normal)
            got = cd_space(a, qa)
            assert got.pivots == want.pivots
            assert _bits(got.basis) == _bits(want.basis)


def _dense(base, seed):
    rng = random.Random(f"{base.name}:{seed}")
    entries = [x for x in _SMALL if x]
    while True:
        b = change_basis(base, [[rng.choice(entries) for _ in range(base.dim)] for _ in range(base.dim)])
        if b is not None:
            return b


_DIM_5 = [
    truncated_polynomial(5),
    pointwise_algebra(5),
    direct_sum(corpus()["M2"], corpus()["C1"], name="M2+C1"),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("base", _DIM_5, ids=lambda a: a.name)
def test_builders_on_dense_bases(base, seed):
    a = _dense(base, seed)
    assert a.integer_nz[0] > 1  # the constants have denominators
    _check_builders(a)
    if a.idempotent_span is not None:
        assert idempotent_span_issues(a) == []


def test_a_door_pair_of_zeros_is_zero():
    # a one-entry row of (0, 0) is no unit vector, and a (0, 0) entry of a
    # longer row adds nothing to its span
    assert rowspace([{3: (0, 0)}], 4).dim == 0
    with_zero = rowspace([{3: (0, 0), 5: (2, 1)}], 6)
    assert _same_space(with_zero, rowspace([{5: (2, 1)}], 6))
    assert with_zero.pivots == (5,) and with_zero.basis == ({5: ONE},)
    assert nullspace([{3: (0, 0)}, {0: (1, 0), 1: (0, 0)}], 4).pivots == (1, 2, 3)
