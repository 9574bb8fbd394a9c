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
    recover_cayley_table,
    subalgebra_on,
    unitize,
)
from .characters import (
    Character,
    augmentation_character,
    check_prop_2_4,
    check_prop_2_5,
    extend_character_to_unitization,
    maximal_ideal,
    ideal_product_span,
    point_derivation_space,
    tensor_point_derivation,
)
from .classify import Analysis, AnalysisCache
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
    annihilator,
    nullspace,
    rowspace,
    subspace_equal,
    subspace_leq,
)
from .quasiadd import (
    cd_space,
    corollary_3_2_check,
    inner_q,
    point_derivation_from_quasi,
    semigroup_identity,
)
from .scalars import ZERO, qq

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
OPEN = "open"


def _exact_chars(an: Analysis):
    return [c for c in an.characters.characters if c.exact]


def _exact_an(an: Analysis, ctx) -> Analysis:
    """Exact-backend view of the same algebra.

    Witness construction and recovery equalities are exact computations;
    when the suite validates the float backend they still run on the exact
    lane (the structure constants are exact either way), while the flag
    assertions use the backend under test.
    """
    return ctx["exact_cache"].get(an.algebra)


def _rows_match(s1, s2) -> bool:
    """Coordinatewise basis equality, entry-exact or entry-close by backend."""
    if s1.dim != s2.dim or s1.backend != s2.backend:
        return False
    return LANES[s1.backend].rows_equal(s1.rows, s2.rows, max(s1.tol, s2.tol) * 100)


def _nonzero_pd_basis(an: Analysis):
    """Pairs (character, point-derivation basis vector) with the vector nonzero."""
    out = []
    for ch in an.characters.characters:
        if not ch.exact:
            continue
        pd = point_derivation_space(an.algebra, ch, EXACT, an.tol)
        for v in pd.basis_vectors():
            out.append((ch, list(v), pd))
    return out


def is_group_table(table) -> bool:
    m = len(table)
    e = None
    for cand in range(m):
        if all(table[cand][x] == x and table[x][cand] == x for x in range(m)):
            e = cand
            break
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
    for v in an.derivations.z.basis_vectors():
        mat = unflatten_map(v, n)
        cyc = is_cyclic(mat, an.tol)
        dia = vanishes_on_diameter(mat, an.tol)
        if cyc != dia:
            return FAIL, "cyclic vs diagonal-vanishing disagree"
        if unital:
            pu = pairing_with_unit_vanishes(an.algebra, mat, an.tol)
            if cyc != pu:
                return FAIL, "cyclic vs unit-pairing disagree"
    if an.derivations.z.dim == 0:
        return PASS, "vacuous: no nonzero derivations"
    return PASS, None


def check_p23(an: Analysis, ctx):
    """A non-essential algebra is never cyclically weakly amenable, witnessed
    by a rank-one derivation built from a functional killing all products."""
    if an.essential:
        return SKIP, "hypothesis not met: algebra is essential"
    if an.derivations.cyclically_weakly_amenable:
        return FAIL, "non-essential but cyclically weakly amenable"
    ean = _exact_an(an, ctx)
    ann = annihilator(ean.product_span)
    span_pivots = set(ean.product_span.pivots)
    witness = None
    a0_idx = None
    for row in ann.basis_vectors():
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
    if not ean.derivations.z.contains(flat):
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
    ean = _exact_an(an, ctx)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    a = ean.algebra
    n = a.dim
    z = ean.derivations.z
    for ch in chars:
        pd = point_derivation_space(a, ch, EXACT, an.tol)
        tests = [list(v) for v in pd.basis_vectors()]
        for t in range(n):
            tests.append(a.basis_vector(t))
        tests.append([qq(t + 1) for t in range(n)])
        for d in tests:
            rep = check_prop_2_4(a, d, ch, z=z, pd=pd, tol=an.tol)
            if not rep["agree"]:
                return FAIL, "bridge directions disagree"
            if rep["is_point_derivation"] and rep["annihilates_ideal_square"] is False:
                return FAIL, "point derivation does not kill the ideal square"
    return PASS, None


def check_p25(an: Analysis, ctx):
    """Nonzero point derivations force non-inner (commutative/unital) and
    non-cyclic (essential) rank-one derivations; unital algebras match the
    unit-and-ideal-square characterization."""
    ean = _exact_an(an, ctx)
    pairs = _nonzero_pd_basis(ean)
    nonzero_pairs = [
        (ch, d) for ch, d, _ in pairs if any(not x.is_zero() for x in d)
    ]
    unital, _ = an.unital
    if not nonzero_pairs:
        if unital and _exact_chars(ean):
            # characterization is still checkable with trivial spaces
            for ch in _exact_chars(ean):
                rep = _unital_characterization(ean, ch)
                if rep is False:
                    return FAIL, "unital characterization fails on trivial space"
            return PASS, "vacuous: no nonzero point derivations"
        return SKIP, "hypothesis not met: no nonzero point derivations"
    for ch, d in nonzero_pairs:
        rep = check_prop_2_5(ean.algebra, d, ch, analysis=ean, tol=ean.tol)
        if not rep.get("applicable"):
            continue
        if not rep["ok"]:
            failed = [k for k, v in rep.items() if isinstance(v, bool) and not v]
            return FAIL, f"violated: {failed}"
    return PASS, None


def _unital_characterization(an: Analysis, ch: Character):
    a = an.algebra
    unital, u = an.unital
    m = maximal_ideal(a, ch, an.tol)
    msq = ideal_product_span(a, m, an.tol)
    expected = nullspace(list(msq.rows) + [list(u)], a.dim, EXACT, an.tol)
    pd = point_derivation_space(a, ch, EXACT, an.tol)
    return subspace_equal(expected, pd)


def check_c26(an: Analysis, ctx):
    """Point amenability equals triviality of every space of derivations into
    the one-dimensional character module."""
    chars = an.characters.characters
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    all_trivial = all(d == 0 for d in an.points.pd_dims)
    if an.points.point_amenable != all_trivial:
        return FAIL, "flag disagrees with the per-character spaces"
    if not an.points.point_amenable:
        ean = _exact_an(an, ctx)
        found = False
        for ch, d, _ in _nonzero_pd_basis(ean):
            if any(not x.is_zero() for x in d):
                dmap = rank_one_dual_map(list(d), list(ch.phi), EXACT)
                flat = flatten_map(dmap, an.algebra.dim)
                if ean.derivations.z.contains(flat) and any(
                    not x.is_zero() for x in flat
                ):
                    found = True
                    break
        if not found:
            return FAIL, "no nonzero rank-one derivation witnesses the failure"
    return PASS, None


def check_t27(an: Analysis, ctx):
    """Point derivations of two factors combine to a point derivation of the
    tensor product at the product character (fixed partner: TruncPoly2)."""
    partner = ctx["partner"]
    partner_an = ctx["exact_cache"].get(partner)
    ean = _exact_an(an, ctx)
    a = ean.algebra
    pairs1 = []
    for ch in _exact_chars(ean):
        pd = point_derivation_space(a, ch, EXACT, an.tol)
        vecs = [list(v) for v in pd.basis_vectors()] or [[ZERO] * a.dim]
        for v in vecs:
            pairs1.append((ch, v))
    zero_pd = point_derivation_space(a, None, EXACT, ean.tol)
    for v in [list(w) for w in zero_pd.basis_vectors()] or [[ZERO] * a.dim]:
        pairs1.append((None, v))
    pairs2 = []
    for ch in _exact_chars(partner_an):
        pd = point_derivation_space(partner, ch, EXACT, ean.tol)
        for v in pd.basis_vectors():
            pairs2.append((ch, list(v)))
    if not pairs2:
        return SKIP, "partner has no point derivations"
    checked = 0
    for phi1, d1 in pairs1:
        for phi2, d2 in pairs2:
            _, _, _, member = tensor_point_derivation(
                a, phi1, d1, partner, phi2, d2, tol=ean.tol
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
    d = an.derivations
    if not subspace_equal(an.qa_space, d.z) or not _rows_match(an.qa_space, d.z):
        return FAIL, "quasi-additive space differs from derivation space"
    if not subspace_equal(an.inner_qa, d.inner) or not _rows_match(an.inner_qa, d.inner):
        return FAIL, "inner functionals differ from inner derivations"
    if not subspace_equal(an.cyclic_qa, d.zc) or not _rows_match(an.cyclic_qa, d.zc):
        return FAIL, "cyclic functionals differ from cyclic derivations"
    unital, u = an.unital
    n = a.dim
    if unital:
        for flat in an.qa_space.basis_vectors():
            mat = unflatten_map(flat, n)
            anti = is_cyclic(mat, an.tol)
            pu = pairing_with_unit_vanishes(a, mat, an.tol)
            if anti != pu:
                return FAIL, "antisymmetry vs unit-column vanishing disagree"
    # forward half of the quotient construction, on the exact lane
    ean = _exact_an(an, ctx)
    open_notes = []
    for ch, dvec, pd in _nonzero_pd_basis(ean):
        dmap = rank_one_dual_map(dvec, list(ch.phi), EXACT)
        flat = flatten_map(dmap, n)
        if not ean.qa_space.contains(flat):
            return FAIL, "rank-one functional of a point derivation not quasi-additive"
        a0_idx = next(
            (t for t in range(n) if not ch.phi[t].is_zero()), None
        )
        a0 = ean.algebra.basis_vector(a0_idx)
        recovered, member = point_derivation_from_quasi(ean.algebra, flat, ch, a0, ean.tol)
        if not member or recovered != dvec:
            return FAIL, "quotient construction fails to recover the point derivation"
    # empirical converse on the whole quasi-additive basis
    for ch in _exact_chars(ean):
        a0_idx = next((t for t in range(n) if not ch.phi[t].is_zero()), None)
        a0 = ean.algebra.basis_vector(a0_idx)
        for flat in ean.qa_space.basis_vectors():
            _, member = point_derivation_from_quasi(ean.algebra, list(flat), ch, a0, ean.tol)
            if not member:
                open_notes.append("converse fails for a quasi-additive basis element")
    if open_notes:
        return OPEN, open_notes[0]
    return PASS, None


def check_c32(an: Analysis, ctx):
    """Flag recomputation from the tensor-square side, plus the character
    column test (sound direction asserted, forward direction recorded)."""
    rep = corollary_3_2_check(
        an.algebra,
        an.flags,
        an.points.point_amenable if an.characters.characters else None,
        an.characters.characters,
        (an.qa_space, an.inner_qa, an.cyclic_qa),
        an.tol,
    )
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
    cache = ctx["cache"]
    sharp = ctx["sharp"](an.algebra)
    sharp_an = cache.get(sharp)
    expected = {
        tuple(extend_character_to_unitization(c).sort_key())
        for c in an.characters.characters
    }
    expected.add(tuple(augmentation_character(an.algebra.dim).sort_key()))
    got = {tuple(c.sort_key()) for c in sharp_an.characters.characters}
    if expected != got:
        return FAIL, "characters of the unitization are not extensions plus augmentation"
    stmts = {
        "cwa(A)": an.derivations.cyclically_weakly_amenable,
        "cwa(A#)": sharp_an.derivations.cyclically_weakly_amenable,
        "pa(A#)": sharp_an.points.point_amenable,
        "0pa(A#)": sharp_an.points.zero_point_amenable,
        "0pa(A)": an.points.zero_point_amenable,
        "pa(A) and essential": an.points.point_amenable and an.essential,
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
        an.derivations.cyclically_weakly_amenable,
        an.points.zero_point_amenable,
        an.points.point_amenable,
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
    cotangents_zero = all(c == 0 for c in an.points.cotangent_dims)
    vals = {
        an.derivations.cyclically_weakly_amenable,
        an.points.point_amenable,
        cotangents_zero,
    }
    if len(vals) != 1:
        return FAIL, (
            f"CWA={an.derivations.cyclically_weakly_amenable} "
            f"PA={an.points.point_amenable} cotangents_zero={cotangents_zero}"
        )
    return PASS, None


def check_t41(an: Analysis, ctx):
    """Weak amenability holds exactly when cyclic amenability and cyclic
    weak amenability both hold."""
    d = an.derivations
    lhs = d.weakly_amenable
    rhs = d.cyclically_amenable and d.cyclically_weakly_amenable
    if lhs != rhs:
        return FAIL, f"WA={lhs} but CA={d.cyclically_amenable}, CWA={d.cyclically_weakly_amenable}"
    return PASS, None


def check_t42(an: Analysis, ctx):
    """For commutative algebras weak amenability and cyclic weak amenability
    coincide."""
    if not an.commutative:
        return SKIP, "hypothesis not met: not commutative"
    d = an.derivations
    if d.weakly_amenable != d.cyclically_weakly_amenable:
        return FAIL, f"WA={d.weakly_amenable} CWA={d.cyclically_weakly_amenable}"
    return PASS, None


def check_c43(an: Analysis, ctx):
    """Closed ideals of a commutative weakly amenable algebra: weak
    amenability, cyclic weak amenability, and essentiality coincide on each
    maximal ideal."""
    if not an.commutative:
        return SKIP, "hypothesis not met: not commutative"
    if not an.derivations.weakly_amenable:
        return SKIP, "hypothesis not met: not weakly amenable"
    ean = _exact_an(an, ctx)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    cache = ctx["cache"]
    for ch in chars:
        m = maximal_ideal(ean.algebra, ch, ean.tol)
        if m.dim == 0:
            continue  # zero ideal: all three statements hold vacuously
        ideal_alg = subalgebra_on(an.algebra, m, name=f"{an.algebra.name}|ker")
        if ideal_alg is None:
            return FAIL, "maximal ideal is not multiplicatively closed"
        ideal_an = cache.get(ideal_alg)
        vals = {
            ideal_an.derivations.weakly_amenable,
            ideal_an.derivations.cyclically_weakly_amenable,
            ideal_an.essential,
        }
        if len(vals) != 1:
            return FAIL, "ideal equivalence fails"
    return PASS, None


def check_p45(an: Analysis, ctx):
    """Weakly amenable algebras admit no nonzero rank-one derivation built
    from a functional and a character."""
    if not an.derivations.weakly_amenable:
        return SKIP, "hypothesis not met: not weakly amenable"
    ean = _exact_an(an, ctx)
    chars = _exact_chars(ean)
    if not chars:
        return SKIP, "hypothesis not met: no characters"
    a = ean.algebra
    for ch in chars:
        pd = point_derivation_space(a, ch, EXACT, ean.tol)
        if pd.dim != 0:
            return FAIL, "weakly amenable with a nonzero point derivation"
        for t in range(a.dim):
            d = a.basis_vector(t)
            dmap = rank_one_dual_map(d, list(ch.phi), EXACT)
            if ean.derivations.z.contains(flatten_map(dmap, a.dim)):
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
    d = an.derivations
    every_max_ideal_essential = all(c == 0 for c in an.points.cotangent_dims)
    vals = {
        d.weakly_amenable,
        d.cyclically_weakly_amenable,
        an.points.point_amenable,
        every_max_ideal_essential,
    }
    if len(vals) != 1:
        return FAIL, (
            f"WA={d.weakly_amenable} CWA={d.cyclically_weakly_amenable} "
            f"PA={an.points.point_amenable} ideals_essential={every_max_ideal_essential}"
        )
    return PASS, None


def check_t47(an: Analysis, ctx):
    """Semisimple chain: the four flags agree for the algebra and for its
    unitization (noncommutative members are tested rather than assumed)."""
    if not an.semisimple:
        return SKIP, "hypothesis not met: not semisimple"
    cache = ctx["cache"]
    sharp_an = cache.get(ctx["sharp"](an.algebra))
    vals = {
        an.derivations.weakly_amenable,
        an.derivations.cyclically_weakly_amenable,
        an.points.zero_point_amenable,
        an.points.point_amenable,
        sharp_an.derivations.weakly_amenable,
        sharp_an.derivations.cyclically_weakly_amenable,
        sharp_an.points.zero_point_amenable,
        sharp_an.points.point_amenable,
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
    iq = inner_q(an.algebra, an.backend, an.tol)
    if not _rows_match(iq, an.inner_qa):
        return FAIL, "table-indexed inner functions disagree"
    all_inner = subspace_equal(qa_table, iq)
    d = an.derivations
    vals = {
        d.weakly_amenable,
        d.cyclically_weakly_amenable,
        an.points.point_amenable,
        all_inner,
    }
    if len(vals) != 1:
        return FAIL, "group equivalences diverge"
    e = semigroup_identity(an.algebra)
    n = an.algebra.dim
    lane = LANES[an.backend]
    half = lane.coerce(qq("1/2"))
    for flat in qa_table.basis_vectors():
        for x in range(n):
            lhs = flat[x * n + x]
            rhs = flat[table[x][x] * n + e]
            if not lane.is_zero(lhs - half * rhs, an.tol * 100):
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
    iq = inner_q(an.algebra, an.backend, an.tol)
    if not _rows_match(cds, an.cyclic_qa):
        return FAIL, "identity normalization differs from antisymmetry"
    n = an.algebra.dim
    lane = LANES[an.backend]
    for flat in cds.basis_vectors():
        for x in range(n):
            if not lane.is_zero(flat[x * n + x], an.tol * 100):
                return FAIL, "normalized function has a nonzero diagonal value"
    all_inner = subspace_equal(cds, iq)
    if an.derivations.cyclically_amenable != all_inner:
        return FAIL, (
            f"CA={an.derivations.cyclically_amenable} but cd/inner dims "
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
    d = an.derivations
    if not d.cyclically_amenable:
        return FAIL, "singly generated but not cyclically amenable"
    ean = _exact_an(an, ctx)
    all_vanish = True
    for ch in _exact_chars(ean):
        pd = point_derivation_space(ean.algebra, ch, EXACT, ean.tol)
        for v in pd.basis_vectors():
            val = ZERO
            for x, y in zip(v, gen):
                if not (x.is_zero() or y.is_zero()):
                    val = val + x * y
            if not val.is_zero():
                all_vanish = False
    vals = {
        d.weakly_amenable,
        d.cyclically_weakly_amenable,
        an.points.point_amenable,
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
    for idx, v in enumerate(a.idempotent_span):
        if a.multiply(list(v), list(v)) != list(v):
            return FAIL, f"declared vector {idx} is not idempotent"
    if rowspace([list(v) for v in a.idempotent_span], a.dim, EXACT).dim != a.dim:
        return FAIL, "declared idempotents do not span"
    if not an.points.zero_point_amenable:
        return FAIL, "not 0-point amenable"
    if an.commutative:
        d = an.derivations
        if not (d.cyclically_amenable and d.cyclically_weakly_amenable):
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


def run_crosscheck(only=None, backend=EXACT, tol=DEFAULT_TOL, seed=None):
    """Run the suite over the whole corpus; returns the result dict."""
    from .algebra import truncated_polynomial
    from .characters import resolve_seed

    cache = AnalysisCache(backend=backend, tol=tol, seed=seed)
    exact_cache = cache if backend == EXACT else AnalysisCache(backend=EXACT, tol=tol, seed=seed)
    sharp_cache = {}

    def sharp(algebra):
        if algebra not in sharp_cache:
            sharp_cache[algebra] = unitize(algebra)
        return sharp_cache[algebra]

    ctx = {
        "cache": cache,
        "exact_cache": exact_cache,
        "sharp": sharp,
        "partner": truncated_polynomial(2),
    }
    selected = [c for c in CHECKS if only is None or c[0] in only]
    entries = sorted(corpus().items())
    results = []
    for cid, fn in selected:
        for name, algebra in entries:
            an = cache.get(algebra)
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
        "tol": tol,
        "seed": resolve_seed(seed),
        "corpus_size": len(entries),
        "results": results,
        "summary": summary,
        "note": (
            "a fail is either an engine bug or a genuine counterexample; "
            "the tool cannot tell them apart"
        ),
    }
