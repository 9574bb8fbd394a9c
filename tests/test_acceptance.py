"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is property-based at desk scale: exact containments on the
exact backend, the stated 1e-9 tolerance on the float backend, and the
default seed throughout.  Expected dimensions were computed with the
SVD-rank oracles in oracles.py and are frozen in test_derivations.py.
"""

import functools
import json
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amenalyzer.algebra import direct_sum, pointwise_algebra, tensor_product, truncated_polynomial, unitize
from amenalyzer.classify import Analysis, build_report
from amenalyzer.corpus import corpus
from amenalyzer.derivations import is_cyclic, rank_one_dual_map, vanishes_on_diameter, pairing_with_unit_vanishes
from amenalyzer.linalg import EXACT, FLOAT, annihilator, subspace_leq
from amenalyzer.quasiadd import cd_space, inner_q, weighted_norm
from amenalyzer.scalars import ONE, QQi

from oracles import change_basis

TOL = 1e-9  # float-backend tolerance pinned by the acceptance criteria


def report_line(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def cache():
    """One exact Analysis per algebra, shared by the tests of this module."""
    return functools.cache(lambda a: Analysis(a, EXACT))


@pytest.fixture(scope="module")
def entries(cache):
    return [(name, cache(a)) for name, a in sorted(corpus().items())]


def test_criterion_01_chain_invariant(entries):
    assert len(entries) >= 16
    for name, an in entries:
        assert subspace_leq(an.inner, an.zc), name
        assert subspace_leq(an.zc, an.z), name
    report_line(
        1, True, f"Inn <= Zc <= Z exactly on all {len(entries)} corpus algebras"
    )


def test_criterion_02_wa_is_ca_and_cwa(entries):
    for name, an in entries:
        assert an.weakly_amenable == (
            an.cyclically_amenable and an.cyclically_weakly_amenable
        ), name
    cz = dict(entries)["Czero1"]
    assert (cz.z.dim, cz.zc.dim, cz.inner.dim) == (1, 0, 0)
    assert cz.cyclically_amenable and not cz.cyclically_weakly_amenable
    assert not cz.weakly_amenable
    report_line(
        2, True, "WA <=> (CA and CWA) corpus-wide; Czero1 realizes (CA, not CWA) at dims 1/0/0"
    )


def test_criterion_03_cyclicity_characterizations(entries):
    for name, an in entries:
        a = an.algebra
        n = a.dim
        unital = an.unital[0]
        for flat in an.z.rows:
            mat = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
            cyc = is_cyclic(mat)
            assert cyc == vanishes_on_diameter(mat), name
            if unital:
                assert cyc == pairing_with_unit_vanishes(a, mat), name
    report_line(
        3, True, "cyclic <=> symmetric-part zero (<=> unit pairing zero when unital), exact"
    )


def test_criterion_04_non_essential_witness(entries):
    checked = 0
    for name, an in entries:
        if an.essential:
            continue
        checked += 1
        assert not an.cyclically_weakly_amenable, name
        ann = annihilator(an.product_span)
        span_pivots = set(an.product_span.pivots)
        witness = a0 = None
        for row in ann.rows:
            for idx in range(an.algebra.dim):
                if idx not in span_pivots and not row[idx].is_zero():
                    witness = [x / row[idx] for x in row]
                    a0 = idx
                    break
            if witness:
                break
        dmap = rank_one_dual_map(witness, witness)
        flat = [dmap[i][j] for i in range(an.algebra.dim) for j in range(an.algebra.dim)]
        assert an.z.contains(flat), name
        assert not dmap[a0][a0].is_zero(), name  # pairing against a0 squares to 1
        assert dmap[a0][a0] == witness[a0] * witness[a0] == ONE
    assert checked >= 3
    report_line(
        4, True, f"rank-one witnesses certify non-CWA on all {checked} non-essential entries"
    )


def test_criterion_05_tensor_square_coincidence(entries):
    for name, an in entries:
        assert an.qa_space.rows == an.z.rows, name
        assert an.inner_qa.rows == an.inner.rows, name
        assert an.cyclic_qa.rows == an.zc.rows, name
    report_line(5, True, "quasi-additive spaces equal Z/Inn/Zc as RREF bases, exactly")


def test_criterion_06_unitization_chain(entries, cache):
    checked = 0
    names = dict(entries)
    for name, an in entries:
        if not an.characters.characters:
            continue
        checked += 1
        sharp_an = cache(unitize(an.algebra))
        stmts = [
            an.cyclically_weakly_amenable,
            sharp_an.cyclically_weakly_amenable,
            sharp_an.point_amenable,
            sharp_an.zero_point_amenable,
            an.zero_point_amenable,
            an.point_amenable and an.essential,
        ]
        assert len(set(stmts)) == 1, (name, stmts)
    ef = names["EF"]
    assert ef.point_amenable and not ef.essential
    assert not ef.cyclically_weakly_amenable
    ef_sharp = names["EFSharp"]
    assert not ef_sharp.point_amenable  # the flag flips on the unitization
    report_line(
        6, True, f"six-way unitization chain agrees on all {checked} entries with characters"
    )


def test_criterion_07_commutative_chains(entries):
    names = dict(entries)
    for name, an in entries:
        if not an.commutative:
            continue
        assert an.weakly_amenable == an.cyclically_weakly_amenable, name
        if an.unital[0]:
            chain = {
                an.weakly_amenable,
                an.cyclically_weakly_amenable,
                an.point_amenable,
                all(c == 0 for c in an.cotangent_dims),
            }
            assert len(chain) == 1, name
    tp2 = names["TruncPoly2"]
    assert tp2.cotangent_dims == (1,)
    assert tp2.pd_dims == (1,)
    assert not any(
        [
            tp2.weakly_amenable,
            tp2.cyclically_weakly_amenable,
            tp2.point_amenable,
            tp2.zero_point_amenable,
        ]
    )
    report_line(
        7, True, "commutative WA<=>CWA and the unital chain hold; TruncPoly2 is the negative witness"
    )


def test_criterion_08_tensor_point_derivations(entries):
    from amenalyzer.characters import tensor_point_derivation

    def nonzero_pd_data(an):
        out = []
        for ch in list(an.characters.characters) + [None]:
            if ch is not None and not ch.exact:
                continue
            pd = an.pd_space(ch)
            if pd.dim > 0:
                out.append((ch, [list(v) for v in pd.rows]))
        return out

    contributors = [
        (name, an, nonzero_pd_data(an)) for name, an in entries
    ]
    contributors = [(n, a, d) for n, a, d in contributors if d]
    assert len(contributors) >= 8
    pairs = combos = 0
    for n1, an1, data1 in contributors:
        for n2, an2, data2 in contributors:
            pairs += 1
            big = Analysis(tensor_product(an1.algebra, an2.algebra), EXACT)
            for phi1, basis1 in data1:
                for phi2, basis2 in data2:
                    for d1 in basis1:
                        for d2 in basis2:
                            _, _, _, member = tensor_point_derivation(
                                an1, phi1, d1, an2, phi2, d2, big
                            )
                            assert member, (n1, n2)
                            combos += 1
    report_line(
        8,
        True,
        f"tensor point derivations verified on {pairs} corpus pairs ({combos} combinations), exact",
    )


def test_criterion_09_finite_group_checks(entries):
    names = dict(entries)
    for gname in ("Z2", "Z3"):
        assert names[gname].qa_space.dim == 0, gname
    s3 = names["S3"].algebra
    cds = cd_space(s3, names["S3"].table_qa)
    iq = inner_q(s3)
    assert cds.dim == iq.dim == 3
    assert subspace_leq(cds, iq) and subspace_leq(iq, cds)
    assert names["Z2"].flags == names["Z2w"].flags
    heavier = [1, 2, 2, 3, 2, 4]
    for flat in iq.rows:
        base = weighted_norm(list(flat), [1] * 6, 6)
        assert weighted_norm(list(flat), heavier, 6) <= base
    report_line(
        9,
        True,
        "Z2/Z3 quasi-additive trivial; S3 normalized=inner at dim 3; weights are metadata with monotone norms",
    )


def test_criterion_10_idempotent_spans(entries):
    checked = 0
    for name, an in entries:
        a = an.algebra
        if a.idempotent_span is None:
            continue
        checked += 1
        assert an.zero_point_amenable, name
        if an.commutative:
            assert an.cyclically_amenable, name
            assert an.cyclically_weakly_amenable, name
    assert checked >= 5
    report_line(
        10, True, f"all {checked} idempotent-spanned entries are 0-point amenable (+cyclic flags when commutative)"
    )


def test_criterion_11_backend_agreement(entries):
    for name, an in entries:
        fl = Analysis(an.algebra, FLOAT)
        re_rep = build_report(an)
        fl_rep = build_report(fl)
        assert fl_rep["tol"] == TOL, name
        assert re_rep["dims"]["Z"] == fl_rep["dims"]["Z"], name
        assert re_rep["dims"]["Inn"] == fl_rep["dims"]["Inn"], name
        assert re_rep["dims"]["Zc"] == fl_rep["dims"]["Zc"], name
        assert re_rep["dims"]["quasi_additive"] == fl_rep["dims"]["quasi_additive"], name
        assert re_rep["dims"]["radical"] == fl_rep["dims"]["radical"], name
        assert re_rep["dims"]["zero_point_space"] == fl_rep["dims"]["zero_point_space"], name
        re_pd = [(e["dim"], e["cotangent"]) for e in re_rep["dims"]["point_derivations"]]
        fl_pd = [(e["dim"], e["cotangent"]) for e in fl_rep["dims"]["point_derivations"]]
        assert re_pd == fl_pd, name
        assert re_rep["flags"] == fl_rep["flags"], name
        assert re_rep["predicates"] == fl_rep["predicates"], name
    report_line(
        11, True, f"float backend at tol={TOL} reproduces every exact dimension and flag"
    )


def test_criterion_12_crosscheck_determinism():
    cmd = [sys.executable, "-m", "amenalyzer.cli", "crosscheck", "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["summary"]["fail"] == 0
    report_line(
        12, True, "two consecutive crosscheck --json runs are byte-identical (default seed)"
    )


# change of basis: entries of P in {-1, 0, 1} + i{-1, 0, 1}, as in perfbench's dense-gauss
_SMALL_CORPUS = [a for _, a in sorted(corpus().items()) if a.dim <= 4]
_BASIS_ENTRIES = [QQi(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1)]


def _invariants(report):
    dims = dict(report["dims"])
    dims["point_derivations"] = sorted(e["dim"] for e in dims["point_derivations"])
    return dims, report["flags"]


@functools.lru_cache(maxsize=None)
def _base_invariants(a):
    return _invariants(build_report(Analysis(a)))


def _algebra_and_basis(algebras):
    return st.sampled_from(algebras).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.lists(
                st.lists(st.sampled_from(_BASIS_ENTRIES), min_size=a.dim, max_size=a.dim),
                min_size=a.dim,
                max_size=a.dim,
            ),
        )
    )


def _assert_invariant_under_change_of_basis(a, p):
    b = change_basis(a, p)
    assume(b is not None)
    assert _invariants(build_report(Analysis(b))) == _base_invariants(a)


@given(ap=_algebra_and_basis(_SMALL_CORPUS))
@settings(max_examples=150, deadline=None)
def test_build_report_is_invariant_under_change_of_basis(ap):
    _assert_invariant_under_change_of_basis(*ap)


# n = 5, the dense-gauss bases of that size: a dense basis gives one derivation
# block of 25 columns and 125 rows, whose rows are chosen mod p
_DIM_5 = [
    truncated_polynomial(5),
    pointwise_algebra(5),
    direct_sum(corpus()["M2"], corpus()["C1"], name="M2+C1"),
]


@given(ap=_algebra_and_basis(_DIM_5))
@settings(max_examples=6, deadline=None)
def test_build_report_is_invariant_under_change_of_basis_at_n5(ap):
    _assert_invariant_under_change_of_basis(*ap)
