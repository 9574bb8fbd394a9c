"""Executable cross-checks of the classification invariants over the corpus.

Each check P*/C*/T* asserts one finitely verifiable equivalence between
independently computed quantities (derivation side vs tensor-square side,
flags vs ideal geometry, factor data vs tensor-product data, and so on).
Statuses per (check, algebra):

* ``pass``  - the equivalence held;
* ``fail``  - a hard assertion was violated (an engine bug and a genuine
  counterexample are indistinguishable here, and the report says so);
* ``skip``  - a hypothesis of the check is not met (the reason names it);
* ``open``  - the heuristic direction of a check known to rest on an
  unproven converse failed; the witness is recorded, the suite still passes.
"""

from __future__ import annotations

from .algebra import (
    cayley_identity,
    idempotent_span_issues,
    recover_cayley_table,
    subalgebra_on,
    tensor_product,
    unitize,
)
from .characters import (
    augmentation_character,
    check_prop_2_4,
    check_prop_2_5,
    extend_character_to_unitization,
    tensor_point_derivation,
    unital_characterization,
)
from .classify import Analysis
from .corpus import corpus
from .derivations import (
    flatten_map,
    is_cyclic,
    pairing_with_unit_vanishes,
    rank_one_dual_map,
    unflatten_map,
    vanishes_on_diameter,
)
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    LANES,
    dot,
    rowspace,
    subspace_equal,
    subspace_leq,
)
from .quasiadd import (
    cd_space,
    corollary_3_2_check,
    point_derivation_from_quasi,
)
from .scalars import ZERO, qq

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
OPEN = "open"


def _exact_chars(an: Analysis):
    return [c for c in an.characters.characters if c.exact]


def _rows_match(s1, s2) -> bool:
    """Coordinatewise basis equality: every entry of the difference of the
    rows is zero by the lane's zero test, exact or within DEFAULT_TOL * 100."""
    if s1.dim != s2.dim or s1.backend != s2.backend:
        return False
    lane = LANES[s1.backend]
    bound = DEFAULT_TOL * 100
    return all(
        lane.is_zero(x - y, bound) for r1, r2 in zip(s1.rows, s2.rows) for x, y in zip(r1, r2)
    )


def _nonzero_pd_basis(an: Analysis):
    """Pairs (exact character, point-derivation basis vector); an RREF basis
    vector is never zero."""
    return [(ch, list(v)) for ch in _exact_chars(an) for v in an.pd_space(ch).rows]


def is_group_table(table) -> bool:
    m = len(table)
    e = cayley_identity(table)
    if e is None:
        return False
    for x in range(m):
        if not any(table[x][y] == e and table[y][x] == e for y in range(m)):
            return False
    return True


def _probe_single_generator(an: Analysis):
    """Search for g with span{1, g, g^2, ...} equal to the whole algebra.

    Deterministic candidate list: basis vectors, then small integer
    combinations.  A hit certifies single-generation; misses only make it
    overwhelmingly unlikely.
    """
    a = an.algebra
    unital, u = an.unital
    if not unital or not an.commutative:
        return None
    n = a.dim
    candidates = [a.basis_vector(i) for i in range(n)]
    for s in range(1, 4):
        candidates.append([qq((i + 1) * s) for i in range(n)])
        candidates.append([qq((i * i + s)) for i in range(n)])
    for g in candidates:
        rows = [list(u)]
        power = list(g)
        for _ in range(n - 1):
            rows.append(power)
            power = a.multiply(power, g)
        if rowspace(rows, n, EXACT).dim == n:
            return g
    return None


# ---------------------------------------------------------------------------
# individual checks; each returns (status, detail)


def check_p21(an: Analysis, ctx):
    """Cyclicity of a derivation matches vanishing on the diagonal, and for
    unital algebras also pairing to zero against the unit."""
    n = an.algebra.dim
    unital, _ = an.unital
    for v in an.z.rows:
        mat = unflatten_map(v, n)
        cyc = is_cyclic(mat)
        dia = vanishes_on_diameter(mat)
        if cyc != dia:
            return FAIL, "cyclic vs diagonal-vanishing disagree"
        if unital:
            pu = pairing_with_unit_vanishes(an.algebra, mat)
            if cyc != pu:
                return FAIL, "cyclic vs unit-pairing disagree"
    if an.z.dim == 0:
        return PASS, "vacuous: no nonzero derivations"
    return PASS, None


def check_p23(an: Analysis, ctx):
    """A non-essential algebra is never cyclically weakly amenable, witnessed
    by a rank-one derivation built from a functional killing all products."""
    if an.essential:
        return SKIP, "hypothesis not met: algebra is essential"
    if an.cyclically_weakly_amenable:
        return FAIL, "non-essential but cyclically weakly amenable"
    ean = ctx["analysis"](an.algebra, EXACT)
    ann = ean.pd_space(None)  # the annihilator of the product span, in canonical RREF
    span_pivots = set(ean.product_span.pivots)
    witness = None
    a0_idx = None
    for row in ann.rows:
        for idx in range(an.algebra.dim):
            if idx not in span_pivots and not row[idx].is_zero():
                witness = list(row)
                a0_idx = idx
                break
        if witness:
            break
    if witness is None:
        return FAIL, "no annihilating functional found"
    scale = witness[a0_idx].inverse()
    witness = [x * scale for x in witness]
    dmap = rank_one_dual_map(witness, witness, EXACT)
    flat = flatten_map(dmap, an.algebra.dim)
    if not ean.z.contains(flat):
        return FAIL, "rank-one witness is not a derivation"
    if is_cyclic(dmap):
        return FAIL, "rank-one witness is unexpectedly cyclic"
    diag = dmap[a0_idx][a0_idx]
    if diag != witness[a0_idx] * witness[a0_idx] or diag.is_zero():
        return FAIL, "witness diagonal pairing does not square the functional"
    return PASS, None


def check_p24(an: Analysis, ctx):
    """The rank-one bridge: d is a point derivation exactly when the induced
    rank-one map is a derivation; point derivations kill the ideal square."""
    ean = ctx["analysis"](an.algebra, EXACT)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    a = ean.algebra
    n = a.dim
    for ch in chars:
        tests = [list(v) for v in ean.pd_space(ch).rows]
        for t in range(n):
            tests.append(a.basis_vector(t))
        tests.append([qq(t + 1) for t in range(n)])
        for d in tests:
            rep = check_prop_2_4(ean, d, ch)
            if not rep["agree"]:
                return FAIL, "bridge directions disagree"
            if rep["is_point_derivation"] and rep["annihilates_ideal_square"] is False:
                return FAIL, "point derivation does not kill the ideal square"
    return PASS, None


def check_p25(an: Analysis, ctx):
    """Nonzero point derivations force non-inner (commutative/unital) and
    non-cyclic (essential) rank-one derivations; unital algebras match the
    unit-and-ideal-square characterization."""
    ean = ctx["analysis"](an.algebra, EXACT)
    nonzero_pairs = _nonzero_pd_basis(ean)
    unital, _ = an.unital
    if not nonzero_pairs:
        if unital and _exact_chars(ean):
            # characterization is still checkable with trivial spaces
            for ch in _exact_chars(ean):
                if not unital_characterization(ean, ch):
                    return FAIL, "unital characterization fails on trivial space"
            return PASS, "vacuous: no nonzero point derivations"
        return SKIP, "hypothesis not met: no nonzero point derivations"
    for ch, d in nonzero_pairs:
        rep = check_prop_2_5(ean, d, ch)
        if not rep.get("applicable"):
            continue
        if not rep["ok"]:
            failed = [k for k, v in rep.items() if isinstance(v, bool) and not v]
            return FAIL, f"violated: {failed}"
    return PASS, None


def check_c26(an: Analysis, ctx):
    """Point amenability equals triviality of every space of derivations into
    the one-dimensional character module."""
    chars = an.characters.characters
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    all_trivial = all(d == 0 for d in an.pd_dims)
    if an.point_amenable != all_trivial:
        return FAIL, "flag disagrees with the per-character spaces"
    if not an.point_amenable:
        ean = ctx["analysis"](an.algebra, EXACT)
        found = False
        for ch, d in _nonzero_pd_basis(ean):
            # d and phi are nonzero, so the rank-one map is too
            dmap = rank_one_dual_map(d, list(ch.phi), EXACT)
            if ean.z.contains(flatten_map(dmap, an.algebra.dim)):
                found = True
                break
        if not found:
            return FAIL, "no nonzero rank-one derivation witnesses the failure"
    return PASS, None


def check_t27(an: Analysis, ctx):
    """Point derivations of two factors combine to a point derivation of the
    tensor product at the product character (fixed partner: TruncPoly2)."""
    partner = ctx["partner"]
    partner_an = ctx["analysis"](partner, EXACT)
    ean = ctx["analysis"](an.algebra, EXACT)
    a = ean.algebra
    pairs1 = []
    for ch in _exact_chars(ean) + [None]:
        vecs = [list(v) for v in ean.pd_space(ch).rows] or [[ZERO] * a.dim]
        for v in vecs:
            pairs1.append((ch, v))
    pairs2 = []
    for ch in _exact_chars(partner_an):
        for v in partner_an.pd_space(ch).rows:
            pairs2.append((ch, list(v)))
    if not pairs2:
        return SKIP, "partner has no point derivations"
    # one Analysis per call: no other check reads the tensor product
    big = Analysis(tensor_product(a, partner), EXACT, seed=ean.seed)
    checked = 0
    for phi1, d1 in pairs1:
        for phi2, d2 in pairs2:
            _, _, _, member = tensor_point_derivation(
                ean, phi1, d1, partner_an, phi2, d2, big
            )
            if not member:
                return FAIL, "combined functional is not a point derivation"
            checked += 1
    return PASS, f"{checked} combinations verified"


def check_t31(an: Analysis, ctx):
    """The tensor-square spaces coincide coordinatewise with the derivation
    spaces, the unital diagonal trick works, and the quotient construction
    recovers every point derivation."""
    a = an.algebra
    if not subspace_equal(an.qa_space, an.z) or not _rows_match(an.qa_space, an.z):
        return FAIL, "quasi-additive space differs from derivation space"
    if not subspace_equal(an.inner_qa, an.inner) or not _rows_match(an.inner_qa, an.inner):
        return FAIL, "inner functionals differ from inner derivations"
    if not subspace_equal(an.cyclic_qa, an.zc) or not _rows_match(an.cyclic_qa, an.zc):
        return FAIL, "cyclic functionals differ from cyclic derivations"
    unital, u = an.unital
    n = a.dim
    if unital:
        for flat in an.qa_space.rows:
            mat = unflatten_map(flat, n)
            anti = is_cyclic(mat)
            pu = pairing_with_unit_vanishes(a, mat)
            if anti != pu:
                return FAIL, "antisymmetry vs unit-column vanishing disagree"
    # forward half of the quotient construction, on the exact lane
    ean = ctx["analysis"](an.algebra, EXACT)
    open_notes = []
    for ch, dvec in _nonzero_pd_basis(ean):
        dmap = rank_one_dual_map(dvec, list(ch.phi), EXACT)
        flat = flatten_map(dmap, n)
        if not ean.qa_space.contains(flat):
            return FAIL, "rank-one functional of a point derivation not quasi-additive"
        a0_idx = next(
            (t for t in range(n) if not ch.phi[t].is_zero()), None
        )
        a0 = ean.algebra.basis_vector(a0_idx)
        recovered, member = point_derivation_from_quasi(ean, flat, ch, a0)
        if not member or recovered != dvec:
            return FAIL, "quotient construction fails to recover the point derivation"
    # empirical converse on the whole quasi-additive basis
    for ch in _exact_chars(ean):
        a0_idx = next((t for t in range(n) if not ch.phi[t].is_zero()), None)
        a0 = ean.algebra.basis_vector(a0_idx)
        for flat in ean.qa_space.rows:
            _, member = point_derivation_from_quasi(ean, list(flat), ch, a0)
            if not member:
                open_notes.append("converse fails for a quasi-additive basis element")
    if open_notes:
        return OPEN, open_notes[0]
    return PASS, None


def check_c32(an: Analysis, ctx):
    """Flag recomputation from the tensor-square side, plus the character
    column test (sound direction asserted, forward direction recorded)."""
    rep = corollary_3_2_check(an)
    for key in ("wa_agree", "ca_agree", "cwa_agree"):
        if not rep[key]:
            return FAIL, f"{key} is false"
    if rep.get("iv_sound_ok") is False:
        return FAIL, "vanishing columns fail to force point amenability"
    if rep.get("iv_status", "").startswith("open"):
        return OPEN, "point amenable but a character column is nonzero"
    return PASS, None


def check_t33(an: Analysis, ctx):
    """Six-way equivalence tying cyclic weak amenability of the algebra and
    its unitization to the point flags; also pins the character set of the
    unitization (extensions plus the augmentation)."""
    if not an.characters.characters:
        return SKIP, "hypothesis not met: no characters"
    sharp_an = ctx["analysis"](ctx["sharp"](an.algebra))
    expected = {
        tuple(extend_character_to_unitization(c).sort_key())
        for c in an.characters.characters
    }
    expected.add(tuple(augmentation_character(an.algebra.dim).sort_key()))
    got = {tuple(c.sort_key()) for c in sharp_an.characters.characters}
    if expected != got:
        return FAIL, "characters of the unitization are not extensions plus augmentation"
    stmts = {
        "cwa(A)": an.cyclically_weakly_amenable,
        "cwa(A#)": sharp_an.cyclically_weakly_amenable,
        "pa(A#)": sharp_an.point_amenable,
        "0pa(A#)": sharp_an.zero_point_amenable,
        "0pa(A)": an.zero_point_amenable,
        "pa(A) and essential": an.point_amenable and an.essential,
    }
    values = set(stmts.values())
    if len(values) != 1:
        return FAIL, f"statements diverge: {stmts}"
    return PASS, None


def check_c34(an: Analysis, ctx):
    """For essential algebras with characters, cyclic weak amenability,
    0-point amenability, and point amenability coincide."""
    if not an.characters.characters:
        return SKIP, "hypothesis not met: no characters"
    if not an.essential:
        return SKIP, "hypothesis not met: not essential"
    vals = {
        an.cyclically_weakly_amenable,
        an.zero_point_amenable,
        an.point_amenable,
    }
    if len(vals) != 1:
        return FAIL, "equivalence fails"
    return PASS, None


def check_t35(an: Analysis, ctx):
    """For unital algebras with characters: cyclic weak amenability, point
    amenability, and vanishing of every cotangent space coincide."""
    unital, _ = an.unital
    if not unital:
        return SKIP, "hypothesis not met: not unital"
    if not an.characters.characters:
        return SKIP, "hypothesis not met: no characters"
    cotangents_zero = all(c == 0 for c in an.cotangent_dims)
    vals = {
        an.cyclically_weakly_amenable,
        an.point_amenable,
        cotangents_zero,
    }
    if len(vals) != 1:
        return FAIL, (
            f"CWA={an.cyclically_weakly_amenable} "
            f"PA={an.point_amenable} cotangents_zero={cotangents_zero}"
        )
    return PASS, None


def check_t41(an: Analysis, ctx):
    """Weak amenability holds exactly when cyclic amenability and cyclic
    weak amenability both hold."""
    lhs = an.weakly_amenable
    rhs = an.cyclically_amenable and an.cyclically_weakly_amenable
    if lhs != rhs:
        return FAIL, f"WA={lhs} but CA={an.cyclically_amenable}, CWA={an.cyclically_weakly_amenable}"
    return PASS, None


def check_t42(an: Analysis, ctx):
    """For commutative algebras weak amenability and cyclic weak amenability
    coincide."""
    if not an.commutative:
        return SKIP, "hypothesis not met: not commutative"
    if an.weakly_amenable != an.cyclically_weakly_amenable:
        return FAIL, f"WA={an.weakly_amenable} CWA={an.cyclically_weakly_amenable}"
    return PASS, None


def check_c43(an: Analysis, ctx):
    """Closed ideals of a commutative weakly amenable algebra: weak
    amenability, cyclic weak amenability, and essentiality coincide on each
    maximal ideal."""
    if not an.commutative:
        return SKIP, "hypothesis not met: not commutative"
    if not an.weakly_amenable:
        return SKIP, "hypothesis not met: not weakly amenable"
    ean = ctx["analysis"](an.algebra, EXACT)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    for ch in chars:
        m, _ = ean.ideal_square(ch)
        if m.dim == 0:
            continue  # zero ideal: all three statements hold vacuously
        ideal_alg = subalgebra_on(an.algebra, m, name=f"{an.algebra.name}|ker")
        if ideal_alg is None:
            return FAIL, "maximal ideal is not multiplicatively closed"
        ideal_an = ctx["analysis"](ideal_alg)
        vals = {
            ideal_an.weakly_amenable,
            ideal_an.cyclically_weakly_amenable,
            ideal_an.essential,
        }
        if len(vals) != 1:
            return FAIL, "ideal equivalence fails"
    return PASS, None


def check_p45(an: Analysis, ctx):
    """Weakly amenable algebras admit no nonzero rank-one derivation built
    from a functional and a character."""
    if not an.weakly_amenable:
        return SKIP, "hypothesis not met: not weakly amenable"
    ean = ctx["analysis"](an.algebra, EXACT)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    a = ean.algebra
    for ch in chars:
        if ean.pd_space(ch).dim != 0:
            return FAIL, "weakly amenable with a nonzero point derivation"
        for t in range(a.dim):
            d = a.basis_vector(t)
            dmap = rank_one_dual_map(d, list(ch.phi), EXACT)
            if ean.z.contains(flatten_map(dmap, a.dim)):
                return FAIL, "nonzero rank-one map is a derivation"
    return PASS, None


def check_t46(an: Analysis, ctx):
    """Unital commutative chain: weak amenability, cyclic weak amenability,
    point amenability, and essentiality of every maximal ideal coincide."""
    unital, _ = an.unital
    if not (unital and an.commutative):
        return SKIP, "hypothesis not met: not unital commutative"
    if not an.characters.characters:
        return FAIL, "unital commutative algebra with no characters"
    every_max_ideal_essential = all(c == 0 for c in an.cotangent_dims)
    vals = {
        an.weakly_amenable,
        an.cyclically_weakly_amenable,
        an.point_amenable,
        every_max_ideal_essential,
    }
    if len(vals) != 1:
        return FAIL, (
            f"WA={an.weakly_amenable} CWA={an.cyclically_weakly_amenable} "
            f"PA={an.point_amenable} ideals_essential={every_max_ideal_essential}"
        )
    return PASS, None


def check_t47(an: Analysis, ctx):
    """Semisimple chain: the four flags agree for the algebra and for its
    unitization (noncommutative members are tested rather than assumed)."""
    if not an.semisimple:
        return SKIP, "hypothesis not met: not semisimple"
    sharp_an = ctx["analysis"](ctx["sharp"](an.algebra))
    vals = {
        an.weakly_amenable,
        an.cyclically_weakly_amenable,
        an.zero_point_amenable,
        an.point_amenable,
        sharp_an.weakly_amenable,
        sharp_an.cyclically_weakly_amenable,
        sharp_an.zero_point_amenable,
        sharp_an.point_amenable,
    }
    if len(vals) != 1:
        return FAIL, "eight statements diverge"
    return PASS, None


def check_t55f(an: Analysis, ctx):
    """Finite group form: weak amenability, cyclic weak amenability, point
    amenability, and innerness of every quasi-additive function coincide;
    the table-indexed system matches the general one and satisfies the
    diagonal halving identity."""
    table = recover_cayley_table(an.algebra)
    if table is None or not is_group_table(table):
        return SKIP, "hypothesis not met: not a group algebra"
    qa_table = an.table_qa
    if not _rows_match(qa_table, an.qa_space):
        return FAIL, "table-indexed system disagrees with the general system"
    iq = an.table_inner
    if not _rows_match(iq, an.inner_qa):
        return FAIL, "table-indexed inner functions disagree"
    all_inner = subspace_equal(qa_table, iq)
    vals = {
        an.weakly_amenable,
        an.cyclically_weakly_amenable,
        an.point_amenable,
        all_inner,
    }
    if len(vals) != 1:
        return FAIL, "group equivalences diverge"
    e = cayley_identity(table)
    n = an.algebra.dim
    lane = LANES[an.backend]
    half = lane.coerce(qq("1/2"))
    for flat in qa_table.rows:
        for x in range(n):
            lhs = flat[x * n + x]
            rhs = flat[table[x][x] * n + e]
            if not lane.is_zero(lhs - half * rhs, DEFAULT_TOL * 100):
                return FAIL, "diagonal halving identity fails"
    return PASS, None


def check_t56f(an: Analysis, ctx):
    """Finite group form: cyclic amenability holds exactly when every
    identity-normalized quasi-additive function is inner; normalization
    agrees with antisymmetry and kills the diagonal."""
    table = recover_cayley_table(an.algebra)
    if table is None or not is_group_table(table):
        return SKIP, "hypothesis not met: not a group algebra"
    cds = cd_space(an.algebra, an.table_qa)
    iq = an.table_inner
    if not _rows_match(cds, an.cyclic_qa):
        return FAIL, "identity normalization differs from antisymmetry"
    n = an.algebra.dim
    lane = LANES[an.backend]
    for flat in cds.rows:
        for x in range(n):
            if not lane.is_zero(flat[x * n + x], DEFAULT_TOL * 100):
                return FAIL, "normalized function has a nonzero diagonal value"
    all_inner = subspace_equal(cds, iq)
    if an.cyclically_amenable != all_inner:
        return FAIL, (
            f"CA={an.cyclically_amenable} but cd/inner dims "
            f"{cds.dim}/{iq.dim}"
        )
    if not subspace_leq(iq, cds):
        return FAIL, "inner functions not contained in the normalized space"
    return PASS, None


def check_t59f(an: Analysis, ctx):
    """Singly generated unital algebras: always cyclically amenable, and the
    remaining flags reduce to point derivations vanishing on the generator."""
    gen = _probe_single_generator(an)
    if gen is None:
        return SKIP, "hypothesis not met: no single generator found"
    if not an.cyclically_amenable:
        return FAIL, "singly generated but not cyclically amenable"
    ean = ctx["analysis"](an.algebra, EXACT)
    all_vanish = True
    for ch in _exact_chars(ean):
        for v in ean.pd_space(ch).rows:
            if not dot(v, gen).is_zero():
                all_vanish = False
    vals = {
        an.weakly_amenable,
        an.cyclically_weakly_amenable,
        an.point_amenable,
        all_vanish,
    }
    if len(vals) != 1:
        return FAIL, "single-generator equivalences diverge"
    return PASS, None


def check_p511(an: Analysis, ctx):
    """Algebras spanned by idempotents are 0-point amenable; commutative ones
    are also cyclically and cyclically weakly amenable."""
    a = an.algebra
    if a.idempotent_span is None:
        return SKIP, "hypothesis not met: no declared idempotent span"
    issues = idempotent_span_issues(a)
    if issues:
        return FAIL, issues[0].message
    if not an.zero_point_amenable:
        return FAIL, "not 0-point amenable"
    if an.commutative:
        if not (an.cyclically_amenable and an.cyclically_weakly_amenable):
            return FAIL, "commutative idempotent-spanned algebra misses a cyclic flag"
    return PASS, None


CHECKS = [
    ("P2.1", check_p21),
    ("P2.3", check_p23),
    ("P2.4", check_p24),
    ("P2.5", check_p25),
    ("C2.6", check_c26),
    ("T2.7", check_t27),
    ("T3.1", check_t31),
    ("C3.2", check_c32),
    ("T3.3", check_t33),
    ("C3.4", check_c34),
    ("T3.5", check_t35),
    ("T4.1", check_t41),
    ("T4.2", check_t42),
    ("C4.3", check_c43),
    ("P4.5", check_p45),
    ("T4.6", check_t46),
    ("T4.7", check_t47),
    ("T5.5f", check_t55f),
    ("T5.6f", check_t56f),
    ("T5.9f", check_t59f),
    ("P5.11", check_p511),
]

CHECK_IDS = [cid for cid, _ in CHECKS]


def run_crosscheck(only=None, backend=EXACT, *, seed=None):
    """Run the suite over the whole corpus; returns the result dict."""
    from .algebra import truncated_polynomial
    from .characters import resolve_seed

    # One Analysis per (algebra, lane), so an algebra met in several roles
    # (corpus entry, unitization, T2.7 partner) is solved once per lane.
    # Witness construction and recovery equalities are exact computations:
    # they read the exact lane whatever the backend under test, while the
    # flag assertions use the backend under test.
    analyses = {}

    def analysis(algebra, lane=backend):
        if (algebra, lane) not in analyses:
            analyses[algebra, lane] = Analysis(algebra, lane, seed=seed)
        return analyses[algebra, lane]

    sharp_cache = {}

    def sharp(algebra):
        if algebra not in sharp_cache:
            sharp_cache[algebra] = unitize(algebra)
        return sharp_cache[algebra]

    ctx = {
        "analysis": analysis,
        "sharp": sharp,
        "partner": truncated_polynomial(2),
    }
    selected = [c for c in CHECKS if only is None or c[0] in only]
    entries = sorted(corpus().items())
    results = []
    for cid, fn in selected:
        for name, algebra in entries:
            an = analysis(algebra)
            try:
                status, detail = fn(an, ctx)
            except Exception as exc:  # engine errors are reported, not raised
                status, detail = FAIL, f"internal error: {exc!r}"
            results.append(
                {
                    "theorem": cid,
                    "algebra": name,
                    "status": status,
                    "detail": detail,
                }
            )
    summary = {s: 0 for s in (PASS, FAIL, SKIP, OPEN)}
    for r in results:
        summary[r["status"]] += 1
    return {
        "schema": 1,
        "backend": backend,
        "tol": DEFAULT_TOL,
        "seed": resolve_seed(seed),
        "corpus_size": len(entries),
        "results": results,
        "summary": summary,
        "note": (
            "a fail is either an engine bug or a genuine counterexample; "
            "the tool cannot tell them apart"
        ),
    }
