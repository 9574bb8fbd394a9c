"""Character search, point-derivation spaces, and the rank-one bridge."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from amenalyzer import characters, cli
from amenalyzer.algebra import (
    FiniteAlgebra,
    matrix_algebra,
    pointwise_algebra,
    radical,
    tensor_product,
    truncated_polynomial,
    unitize,
    zero_algebra,
)
from amenalyzer.characters import (
    Character,
    CharacterVerificationError,
    _verify_vector,
    augmentation_character,
    check_prop_2_4,
    check_prop_2_5,
    extend_character_to_unitization,
    find_characters,
    maximal_ideal,
    ideal_product_span,
    point_derivation_space,
    tensor_point_derivation,
)
from amenalyzer.classify import Analysis, build_report, render_text
from amenalyzer.corpus import corpus
from amenalyzer.linalg import DEFAULT_TOL, EXACT, FLOAT, rowspace
from amenalyzer.scalars import ONE, ZERO, QQi, qq

from oracles import change_basis, oracle_point_derivation_dim, reference_ideal_product_span


def char_values(search):
    return sorted(tuple(str(x) for x in c.phi) for c in search.characters)


def test_pointwise_characters_are_projections():
    s = find_characters(pointwise_algebra(3))
    assert s.certified
    assert char_values(s) == [
        ("0", "0", "1"),
        ("0", "1", "0"),
        ("1", "0", "0"),
    ]
    assert all(c.exact for c in s.characters)


def test_matrix_algebra_has_no_characters():
    s = find_characters(matrix_algebra(2))
    assert s.certified
    assert s.characters == ()


def test_truncpoly_character_kills_nilpotents():
    s = find_characters(truncated_polynomial(2))
    assert s.certified
    assert char_values(s) == [("1", "0")]


def test_cube_root_characters_stay_float():
    s = find_characters(corpus()["Z3"])
    assert s.certified
    assert len(s.characters) == 3
    exact = [c for c in s.characters if c.exact]
    assert len(exact) == 1  # only the trivial character is rational
    for c in s.characters:
        vals = c.values_complex()
        assert abs(vals[0] - 1.0) < 1e-9
        assert abs(vals[1] ** 3 - 1.0) < 1e-8


def test_whole_corpus_certified():
    for name, a in sorted(corpus().items()):
        s = find_characters(a)
        assert s.certified, name


def test_declared_characters_are_verified_and_merged():
    from dataclasses import replace

    a = replace(
        pointwise_algebra(2), declared_characters=((ONE, ZERO), (ZERO, ONE))
    )
    s = find_characters(a)
    assert len(s.characters) == 2  # merged, not duplicated

    bad = replace(pointwise_algebra(2), declared_characters=((ONE, ONE),))
    # (1,1) is the unit functional: phi(e0)*phi(e1) = 1 but phi(e0 e1) = 0
    with pytest.raises(CharacterVerificationError):
        find_characters(bad)


def test_seed_determinism():
    a = corpus()["Z3"]
    s1 = find_characters(a, seed=5)
    s2 = find_characters(a, seed=5)
    assert [c.sort_key() for c in s1.characters] == [c.sort_key() for c in s2.characters]


# ---------------------------------------------------------------------------
# point-derivation spaces


def tp2_char():
    return find_characters(truncated_polynomial(2)).characters[0]


def test_truncpoly2_point_derivation_space():
    a = truncated_polynomial(2)
    pd = point_derivation_space(a, tp2_char())
    assert pd.dim == 1
    assert pd.contains([ZERO, ONE])  # d(1) = 0, d(x) = 1
    assert pd.dim == oracle_point_derivation_dim(a, [1.0, 0.0])


def test_unital_point_derivations_kill_unit():
    for name in ("TruncPoly3", "TruncPoly4", "TensorTP2TP2", "Czero2Sharp"):
        a = corpus()[name]
        ok_unit = a.unit
        for ch in find_characters(a).characters:
            pd = point_derivation_space(a, ch)
            for d in pd.basis_vectors():
                acc = ZERO
                for x, y in zip(d, ok_unit):
                    acc = acc + x * y
                assert acc.is_zero(), name


def test_zero_functional_space_is_product_annihilator():
    a = zero_algebra(3)
    pd = point_derivation_space(a, None)
    assert pd.dim == 3
    assert pd.dim == oracle_point_derivation_dim(a, [0.0, 0.0, 0.0])


def test_point_derivation_space_rejects_raw_vectors():
    with pytest.raises(ValueError):
        point_derivation_space(truncated_polynomial(2), (ONE, ZERO))


def _cotangent(a, phi):
    m, msq = Analysis(a).ideal_square(phi)
    return m.dim - msq.dim


def test_maximal_ideal_and_cotangent_pointwise():
    a = pointwise_algebra(2)
    chars = find_characters(a).characters
    delta0 = next(c for c in chars if not c.phi[0].is_zero())
    m = maximal_ideal(a, delta0)
    assert m.dim == 1
    assert m.contains([ZERO, ONE])
    msq = ideal_product_span(a, m)
    assert msq.dim == 1  # e1 * e1 = e1
    assert _cotangent(a, delta0) == 0


def test_cotangent_truncpoly():
    assert _cotangent(truncated_polynomial(2), tp2_char()) == 1
    tp3 = truncated_polynomial(3)
    ch3 = find_characters(tp3).characters[0]
    m = maximal_ideal(tp3, ch3)
    assert m.dim == 2
    assert ideal_product_span(tp3, m).dim == 1  # span of x^2
    assert _cotangent(tp3, ch3) == 1


# ---------------------------------------------------------------------------
# rank-one bridge


def test_prop24_zero_functional_trivial():
    a = truncated_polynomial(2)
    rep = check_prop_2_4(Analysis(a), [ZERO, ZERO], tp2_char())
    assert rep["rank_one_is_derivation"] and rep["is_point_derivation"]
    assert rep["agree"]


def test_prop24_point_derivation_agrees():
    a = truncated_polynomial(2)
    rep = check_prop_2_4(Analysis(a), [ZERO, ONE], tp2_char())
    assert rep["agree"] and rep["is_point_derivation"]
    assert rep["annihilates_ideal_square"] is True


def test_prop24_character_itself_fails_both_sides():
    a = truncated_polynomial(2)
    ch = tp2_char()
    rep = check_prop_2_4(Analysis(a), list(ch.phi), ch)
    assert not rep["rank_one_is_derivation"]
    assert not rep["is_point_derivation"]
    assert rep["agree"]


def test_helpers_refuse_a_character_of_another_lane():
    a = truncated_polynomial(2)
    float_ch = find_characters(a, backend=FLOAT).characters[0]
    assert not float_ch.exact
    an, big_an = tp2_square_analyses()
    with pytest.raises(ValueError):
        check_prop_2_4(an, [ZERO, ONE], float_ch)
    with pytest.raises(ValueError):
        check_prop_2_5(an, [ZERO, ONE], float_ch)
    with pytest.raises(ValueError):
        tensor_point_derivation(an, float_ch, [ZERO, ONE], an, None, [ZERO, ZERO], big_an)


def test_prop25_truncpoly2_non_inner():
    a = truncated_polynomial(2)
    rep = check_prop_2_5(Analysis(a), [ZERO, ONE], tp2_char())
    assert rep["applicable"]
    assert rep["is_derivation"] and rep["non_inner"]
    assert rep["ok"]


def test_prop25_unital_characterization_truncpoly3():
    a = truncated_polynomial(3)
    ch = find_characters(a).characters[0]
    # d(x) = 1, d(x^2) = 0 satisfies d(1) = 0 and kills the ideal square
    pd = point_derivation_space(a, ch)
    assert pd.contains([ZERO, ONE, ZERO])
    rep = check_prop_2_5(Analysis(a), [ZERO, ONE, ZERO], ch)
    assert rep["unital_characterization"]
    assert rep["ok"]


def test_prop25_gates_not_applicable_is_flagged():
    # a noncommutative, non-essential, non-unital algebra falls through
    from amenalyzer.algebra import from_json_dict

    a = from_json_dict(
        {
            "name": "gateless",
            "dim": 2,
            "labels": ["a", "b"],
            "sc": [[0, 0, 1, "1", "0"]],  # a*a = b, everything else 0
        }
    )
    # commutative actually; build a noncommutative variant instead
    a2 = from_json_dict(
        {
            "name": "gateless2",
            "dim": 3,
            "labels": ["a", "b", "c"],
            "sc": [[0, 1, 2, "1", "0"]],  # a*b = c only
        }
    )
    assert not a2.is_commutative()
    from amenalyzer.algebra import is_unital

    assert not Analysis(a2).essential
    ok, _ = is_unital(a2)
    assert not ok
    fake = Character((ONE, ZERO, ZERO), True)  # not verified, gates only
    rep = check_prop_2_5(Analysis(a2), [ZERO, ONE, ZERO], fake)
    assert rep == {"applicable": False, "gates": rep["gates"]}


# ---------------------------------------------------------------------------
# tensor combination


def tp2_square_analyses():
    """Analyses of TruncPoly2 and of its tensor square."""
    a = truncated_polynomial(2)
    return Analysis(a), Analysis(tensor_product(a, a))


def test_tensor_point_derivation_zero_inputs():
    an, big_an = tp2_square_analyses()
    ch = tp2_char()
    big, big_phi, vec, member = tensor_point_derivation(
        an, ch, [ZERO, ZERO], an, ch, [ZERO, ZERO], big_an
    )
    assert member
    assert all(x.is_zero() for x in vec)


def test_tensor_point_derivation_one_sided():
    an, big_an = tp2_square_analyses()
    ch = tp2_char()
    big, big_phi, vec, member = tensor_point_derivation(
        an, ch, [ZERO, ONE], an, ch, [ZERO, ZERO], big_an
    )
    assert member
    assert any(not x.is_zero() for x in vec)


def test_tensor_point_derivation_span_dim():
    an, big_an = tp2_square_analyses()
    ch = tp2_char()
    vecs = []
    for d1, d2 in ([ZERO, ONE], [ZERO, ZERO]), ([ZERO, ZERO], [ZERO, ONE]):
        _, _, vec, member = tensor_point_derivation(an, ch, d1, an, ch, d2, big_an)
        assert member
        vecs.append(list(vec))
    assert rowspace(vecs, 4, EXACT).dim >= 2


def test_tensor_point_derivation_rejects_non_members():
    an, big_an = tp2_square_analyses()
    ch = tp2_char()
    with pytest.raises(ValueError):
        tensor_point_derivation(an, ch, [ONE, ZERO], an, ch, [ZERO, ZERO], big_an)


# ---------------------------------------------------------------------------
# flags


def test_flags_pointwise():
    rep = Analysis(pointwise_algebra(3))
    assert rep.point_amenable and rep.zero_point_amenable


def test_flags_truncpoly2():
    rep = Analysis(truncated_polynomial(2))
    assert not rep.point_amenable and not rep.zero_point_amenable
    assert rep.pd_dims == (1,)
    assert rep.cotangent_dims == (1,)


def test_flags_ef_split():
    rep = Analysis(corpus()["EF"])
    assert rep.point_amenable
    assert not rep.zero_point_amenable
    assert rep.zero_space_dim == 1


def test_zero_space_trivial_iff_essential():
    for name, a in sorted(corpus().items()):
        an = Analysis(a)
        assert (an.zero_space_dim == 0) == an.essential, name


def test_unitization_characters_structure():
    for name in ("EF", "TruncPoly2", "Pointwise2"):
        a = corpus().get(name) or truncated_polynomial(2)
        s = find_characters(a)
        sharp = unitize(a)
        ssharp = find_characters(sharp)
        expected = {extend_character_to_unitization(c).sort_key() for c in s.characters}
        expected.add(augmentation_character(a.dim).sort_key())
        got = {c.sort_key() for c in ssharp.characters}
        assert expected == got, name


def test_float_backend_point_derivation_dims():
    a = corpus()["TensorTP2TP2"]
    s = find_characters(a, backend=FLOAT)
    assert len(s.characters) == 1
    ch = s.characters[0]
    assert not ch.exact
    pd = point_derivation_space(a, ch, FLOAT)
    assert pd.dim == 2


@pytest.mark.parametrize(
    "k,m",
    [(1, 1), (2, 1), (3, 2), (4, 3)],
)
def test_character_count_of_direct_sums(k, m):
    # a character kills one summand, so the counts add; the zero-product
    # summand contributes none
    from amenalyzer.algebra import direct_sum

    a = direct_sum(pointwise_algebra(k), zero_algebra(m))
    s = find_characters(a)
    assert s.certified
    assert len(s.characters) == k

    b = direct_sum(truncated_polynomial(2), pointwise_algebra(k))
    sb = find_characters(b)
    assert sb.certified
    assert len(sb.characters) == 1 + k


@pytest.mark.parametrize("k1,k2", [(2, 2), (2, 3), (3, 4)])
def test_character_count_of_pointwise_tensors(k1, k2):
    # characters of a tensor product of pointwise algebras are exactly the
    # products of coordinate projections
    from amenalyzer.algebra import tensor_product

    t = tensor_product(pointwise_algebra(k1), pointwise_algebra(k2))
    s = find_characters(t)
    assert s.certified
    assert len(s.characters) == k1 * k2
    for ch in s.characters:
        vals = [x for x in ch.phi if not x.is_zero()]
        assert len(vals) == 1 and vals[0] == ONE


@pytest.mark.parametrize("value", [complex("nan"), complex("inf"), complex(1, float("nan"))])
def test_float_character_check_refuses_nan_and_inf(value):
    # e * e = e, whose one character is phi(e) = 1
    a = FiniteAlgebra("x", 1, (((ONE,),),), ("e",))
    assert _verify_vector(a, [1 + 0j], want_exact=False) is not None
    assert _verify_vector(a, [value], want_exact=False) is None


class _ZeroDraws:
    """A generator whose every draw is 0: every random combination of the
    multiplication matrices is the zero matrix, whose eigenvalues all tie."""

    def gauss(self, mu=0.0, sigma=1.0):
        return 0.0


def test_unseparated_eigenvalues_leave_the_point_flags_conditional(monkeypatch, capsys):
    monkeypatch.setattr(characters.random, "Random", lambda seed=None: _ZeroDraws())
    a = corpus()["Pointwise2"]
    search = find_characters(a)
    assert (search.characters, search.certified, search.attempts) == ((), False, 3)
    report = build_report(Analysis(a))
    assert report["characters_certified"] is False
    assert report["flags"]["conditional"] is True
    lines = render_text(report).splitlines()
    assert "characters: 0 (completeness not certified)" in lines
    assert "flags: WA=yes  CA=yes  CWA=yes  PA=yes?  0-PA=yes?" in lines
    assert cli.main(["characters", "builtin:Pointwise2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Pointwise2: 0 character(s)",
        "  WARNING: completeness not certified",
    ]


def test_a_candidate_that_fails_verification_leaves_the_search_uncertified(monkeypatch):
    # phi = (2, 0) on Pointwise2: phi(e0)^2 = 4, but phi(e0 e0) = 2
    monkeypatch.setattr(
        characters, "_semisimple_commutative_characters", lambda c_alg, rng: ([np.array([2, 0])], True, 1)
    )
    for backend in (EXACT, FLOAT):
        search = find_characters(corpus()["Pointwise2"], backend=backend)
        assert (search.characters, search.certified) == ((), False)


@pytest.mark.parametrize("a", [*corpus().values(), pointwise_algebra(8)], ids=lambda a: a.name)
def test_ideal_product_span_equals_the_span_of_multiply_products(a):
    # the whole space, the radical and the kernel of every exact character
    full = rowspace([a.basis_vector(i) for i in range(a.dim)], a.dim, EXACT)
    chars = find_characters(a).characters
    for s in [full, radical(a), *(maximal_ideal(a, ch) for ch in chars if ch.exact)]:
        want_rows, want_pivots = reference_ideal_product_span(a, s)
        got = ideal_product_span(a, s)
        assert (got.rows, got.pivots) == (want_rows, want_pivots)
        fl = ideal_product_span(a, rowspace(s.rows, a.dim, FLOAT))
        want = np.array([[complex(x) for x in row] for row in want_rows], dtype=np.complex128)
        assert fl.pivots == want_pivots
        bound = DEFAULT_TOL * max(1.0, float(np.abs(want).max(initial=0.0)))
        assert np.abs(fl.rows - want.reshape(-1, a.dim)).max(initial=0.0) <= bound


def _multiplicative_by_multiply(a, phi):
    """phi(e_i) phi(e_j) = phi(e_i e_j) for every basis pair, each product
    by ``multiply`` and each side in QQi arithmetic."""
    for i in range(a.dim):
        for j in range(a.dim):
            rhs = ZERO
            for x, y in zip(a.multiply(a.basis_vector(i), a.basis_vector(j)), phi):
                rhs = rhs + x * y
            if phi[i] * phi[j] != rhs:
                return False
    return True


# constants with denominators and imaginary parts: Pointwise3 on the basis
# (e0 / 3, (2 + i) e1, 5/7 e2), whose characters take the values 1/3, 2 + i, 5/7
_SCALED_POINTWISE = change_basis(
    pointwise_algebra(3),
    [[qq(Fraction(1, 3)), ZERO, ZERO], [ZERO, qq(2, 1), ZERO], [ZERO, ZERO, qq(Fraction(5, 7))]],
)


@pytest.mark.parametrize(
    "a",
    [*corpus().values(), truncated_polynomial(4), unitize(zero_algebra(2)), _SCALED_POINTWISE],
    ids=lambda a: a.name,
)
def test_the_integer_character_check_refuses_a_perturbed_character(a):
    # candidates from the float search, rationalized, so no candidate has
    # passed the integer check; -i turns the value 2 + i of _SCALED_POINTWISE
    # into 2, which only the imaginary part of its equation refuses
    floats = find_characters(a, backend=FLOAT).characters
    rationalized = [characters._rationalize(ch.values_complex()) for ch in floats]
    # Z3's two irrational characters round to rationals that are not characters
    candidates = [r for r in rationalized if r is not None and _multiplicative_by_multiply(a, r)]
    assert len(candidates) == len(floats) - 2 * (a.name == "Z3")
    refused = 0
    for phi in rationalized:
        want = phi in candidates
        assert _verify_vector(a, list(phi)) == (Character(phi, True) if want else None)
    for phi in candidates:
        for t in range(a.dim):
            for delta in (ONE, QQi(Fraction(1, 3), 1), QQi(0, -1)):
                mutated = list(phi)
                mutated[t] = mutated[t] + delta
                want = _multiplicative_by_multiply(a, mutated)
                assert (_verify_vector(a, mutated) is not None) == want
                refused += not want
    assert refused or not candidates


def test_classify_leaves_numpy_random_unimported():
    # the eig combination is drawn from the stdlib generator; numpy.random
    # would pull in secrets, hmac and the cython runtime
    code = "\n".join(
        [
            "import sys",
            "from amenalyzer import cli",
            "from amenalyzer.characters import find_characters",
            "from amenalyzer.corpus import corpus",
            "assert len(find_characters(corpus()['Pointwise4']).characters) == 4",
            "assert cli.main(['classify', 'builtin:Z3', '--json', '--backend', 'float']) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
