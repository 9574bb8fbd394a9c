"""Characters, point derivations, maximal ideals, and the two point flags.

Characters (nonzero multiplicative functionals) are found by a reduction
pipeline: quotient out the two-sided ideal generated by commutators, then
the radical of the quotient.  What remains is a commutative semisimple
algebra whose characters are the eigenvectors of a random combination of
its transposed left-multiplication matrices; distinct eigenvalues certify
that the enumeration is complete.  Characters found in floating point are
rationalized and re-verified exactly whenever possible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    FiniteAlgebra,
    commutator_span,
    find_unit,
    ideal_closure,
    is_essential,
    is_unital,
    quotient_map,
    radical,
)
from .derivations import (
    _complex_tensor,
    derivation_space,
    flatten_map,
    inner_space,
    is_cyclic,
    rank_one_dual_map,
)
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    LANES,
    Subspace,
    lane_of,
    nullspace,
    rowspace,
    subspace_equal,
)
from .scalars import ONE, ZERO, QQi

DEFAULT_SEED = 1729
RATIONALIZE_DENOM_BOUND = 10**6


def resolve_seed(seed=None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("AMENALYZER_SEED")
    if env:
        return int(env)
    return DEFAULT_SEED


class CharacterVerificationError(ValueError):
    """A supplied character fails the multiplicativity equations."""


@dataclass(frozen=True)
class Character:
    """A verified nonzero multiplicative functional, one value per basis vector."""

    phi: tuple  # QQi entries when exact, complex entries otherwise
    exact: bool
    residual: float

    def values_complex(self) -> np.ndarray:
        return np.array([complex(x) for x in self.phi], dtype=np.complex128)

    def sort_key(self):
        return tuple((round(complex(x).real, 9), round(complex(x).imag, 9)) for x in self.phi)


@dataclass(frozen=True)
class CharacterSearch:
    characters: tuple
    certified: bool
    attempts: int
    notes: tuple = ()


def _mult_residual_float(a: FiniteAlgebra, values: np.ndarray) -> float:
    n = a.dim
    worst = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                c = a.sc[i][j][k]
                if not c.is_zero():
                    acc += complex(c) * values[k]
            worst = max(worst, abs(values[i] * values[j] - acc))
    return worst


def _mult_holds_exact(a: FiniteAlgebra, values) -> bool:
    n = a.dim
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for k in range(n):
                c = a.sc[i][j][k]
                if not c.is_zero():
                    acc = acc + c * values[k]
            if values[i] * values[j] != acc:
                return False
    return True


def _rationalize(values: np.ndarray):
    out = []
    for v in values:
        re = Fraction(float(v.real)).limit_denominator(RATIONALIZE_DENOM_BOUND)
        im = Fraction(float(v.imag)).limit_denominator(RATIONALIZE_DENOM_BOUND)
        if abs(float(re) - v.real) > 1e-7 or abs(float(im) - v.imag) > 1e-7:
            return None
        out.append(QQi(re, im))
    return tuple(out)


def _verify_vector(a: FiniteAlgebra, values, tol, want_exact=True) -> Character | None:
    """Verify a candidate character; exact first when possible."""
    if want_exact and all(isinstance(v, QQi) for v in values):
        if all(v.is_zero() for v in values):
            return None
        if _mult_holds_exact(a, values):
            return Character(tuple(values), True, 0.0)
        return None
    arr = np.array([complex(v) for v in values], dtype=np.complex128)
    if np.abs(arr).max() == 0.0:
        return None
    res = _mult_residual_float(a, arr)
    scale = max(1.0, float(np.abs(arr).max()) ** 2)
    if res > tol * scale * 100:
        return None
    if want_exact:
        rat = _rationalize(arr)
        if rat is not None and _mult_holds_exact(a, rat):
            return Character(rat, True, 0.0)
    return Character(tuple(complex(v) for v in arr), False, res)


def _left_mult_transposed_float(a: FiniteAlgebra):
    """Stack of transposed left-multiplication matrices, complex dtype."""
    n = a.dim
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = a.sc[i][j][k]
                if not c.is_zero():
                    # column j of L_{e_i} is the product e_i e_j
                    mats[i, j, k] = complex(c)
    return mats  # mats[i] is L_{e_i} transposed: rows indexed by j, cols by k


def _semisimple_commutative_characters(c_alg: FiniteAlgebra, rng, tol):
    """Characters of a commutative semisimple algebra via joint eigenvectors.

    Returns (list of float value-vectors, certified flag, attempts used).
    """
    k = c_alg.dim
    if k == 1:
        gamma = c_alg.sc[0][0][0]
        return [np.array([complex(gamma)])], True, 0
    unit = find_unit(c_alg)
    if unit is None:
        # commutative semisimple algebras always have a unit; defensive only
        return [], False, 0
    u = np.array([complex(x) for x in unit], dtype=np.complex128)
    lt = _left_mult_transposed_float(c_alg)
    attempts = 0
    for attempt in range(3):
        attempts = attempt + 1
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        r = np.tensordot(coeffs, lt, axes=1)
        eigvals, eigvecs = np.linalg.eig(r)
        sep = tol * 1e3 * max(1.0, float(np.abs(eigvals).max()))
        distinct = all(
            abs(eigvals[s] - eigvals[t]) > sep
            for s in range(k)
            for t in range(s + 1, k)
        )
        if not distinct:
            continue
        found = []
        for idx in range(k):
            v = eigvecs[:, idx]
            pairing = np.dot(v, u)
            if abs(pairing) < 1e-12:
                continue
            found.append(v / pairing)
        if len(found) == k:
            return found, True, attempts
    return [], False, attempts


def find_characters(
    a: FiniteAlgebra, seed=None, tol=DEFAULT_TOL, backend=EXACT
) -> CharacterSearch:
    """Enumerate the characters of the algebra.

    The reduction steps run in exact arithmetic (structure constants are
    exact by construction); only the final diagonalization is floating
    point.  With the exact backend, characters whose entries round to small
    rationals are re-verified exactly and kept in exact form.
    """
    rng = np.random.default_rng(resolve_seed(seed))
    notes = []

    comm_ideal = ideal_closure(a, commutator_span(a))
    b_alg, proj1 = quotient_map(a, comm_ideal)
    if b_alg is None:
        found = []
        certified = True
        attempts = 0
    else:
        rad = radical(b_alg)
        c_alg, proj2 = quotient_map(b_alg, rad)
        if c_alg is None:
            found = []
            certified = True
            attempts = 0
        else:
            vecs, certified, attempts = _semisimple_commutative_characters(
                c_alg, rng, tol
            )
            if not certified:
                notes.append(
                    "completeness not certified: repeated eigenvalues after retries"
                )
            p2 = np.array(
                [[complex(x) for x in row] for row in proj2], dtype=np.complex128
            )
            p1 = np.array(
                [[complex(x) for x in row] for row in proj1], dtype=np.complex128
            )
            found = [np.asarray(v) @ p2 @ p1 for v in vecs]

    want_exact = backend == EXACT
    chars = []
    for values in found:
        ch = _verify_vector(a, values, tol, want_exact=want_exact)
        if ch is None:
            certified = False
            notes.append("candidate eigenvector failed multiplicativity verification")
            continue
        chars.append(ch)

    if a.declared_characters:
        for t, declared in enumerate(a.declared_characters):
            ch = _verify_vector(a, declared, tol, want_exact=want_exact)
            if ch is None:
                raise CharacterVerificationError(
                    f"{a.name}: declared character {t} fails multiplicativity"
                )
            chars.append(ch)

    deduped = []
    for ch in chars:
        vals = ch.values_complex()
        if any(
            np.abs(vals - other.values_complex()).max() < 1e-6 for other in deduped
        ):
            continue
        deduped.append(ch)
    deduped.sort(key=lambda c: c.sort_key())
    return CharacterSearch(tuple(deduped), certified, attempts, tuple(notes))


# ---------------------------------------------------------------------------
# point derivations


def character_backend(phi) -> str:
    """The lane a character's values live on; None, the zero functional, is exact."""
    return EXACT if phi is None or phi.exact else FLOAT


def _phi_entries(phi, n, lane):
    return [lane.zero] * n if phi is None else lane.vector(phi.phi)


def point_derivation_space(
    a: FiniteAlgebra, phi, backend=EXACT, tol=DEFAULT_TOL
) -> Subspace:
    """Kernel of the point-derivation system at a character (or at zero).

    phi may be a verified Character or None for the zero functional, in
    which case the space is the annihilator of the span of products.  A
    float character puts the system on the float lane.
    """
    if phi is not None and not isinstance(phi, Character):
        raise ValueError("phi must be a verified Character or None")
    lane = lane_of(backend, character_backend(phi))
    n = a.dim
    pv = _phi_entries(phi, n, lane)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [lane.zero] * n
            for k, c in enumerate(a.sc[i][j]):
                if not c.is_zero():
                    row[k] = row[k] + lane.coerce(c)
            row[i] = row[i] - pv[j]
            row[j] = row[j] - pv[i]
            rows.append(row)
    return nullspace(rows, n, lane.backend, tol)


def maximal_ideal(a: FiniteAlgebra, phi: Character, tol=DEFAULT_TOL) -> Subspace:
    """Kernel of the character, a subspace of dimension n - 1."""
    return nullspace([list(phi.phi)], a.dim, character_backend(phi), tol)


def ideal_product_span(a: FiniteAlgebra, s: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """Span of all pairwise products of basis vectors of a subspace."""
    vecs = s.basis_vectors()
    if s.backend == EXACT:
        rows = [a.multiply(u, v) for u in vecs for v in vecs]
    else:
        sc = _complex_tensor(a)
        rows = [np.einsum("i,j,ijk->k", u, v, sc) for u in vecs for v in vecs]
    return rowspace(rows, a.dim, s.backend, tol)


def cotangent_dim(a: FiniteAlgebra, phi: Character, tol=DEFAULT_TOL) -> int:
    m = maximal_ideal(a, phi, tol)
    msq = ideal_product_span(a, m, tol)
    return m.dim - msq.dim


def _rank_one_map(d, phi: Character, lane):
    """The dual map a, b -> d(a) phi(b) on the lane, and its flattening."""
    dmap = rank_one_dual_map(d, phi.phi, lane.backend)
    return dmap, flatten_map(dmap, len(d))


def check_prop_2_4(a: FiniteAlgebra, d, phi: Character, z=None, pd=None, tol=DEFAULT_TOL):
    """Cross-check the rank-one bridge between point derivations and derivations.

    Evaluates both routes independently: membership of the rank-one dual
    map built from (d, phi) in the derivation space, and membership of d in
    the point-derivation space at phi.  Reports whether they agree and
    whether d kills the span of products of the maximal ideal.
    """
    lane = lane_of(character_backend(phi), d)
    if z is None:
        z = derivation_space(a, lane.backend, tol)
    if pd is None:
        pd = point_derivation_space(a, phi, lane.backend, tol)
    d = lane.vector(d)
    _, flat = _rank_one_map(d, phi, lane)
    via_derivation = z.contains(flat)
    via_point = pd.contains(d)
    result = {
        "rank_one_is_derivation": via_derivation,
        "is_point_derivation": via_point,
        "agree": via_derivation == via_point,
        "annihilates_ideal_square": None,
    }
    if via_point:
        m = maximal_ideal(a, phi, tol)
        msq = ideal_product_span(a, m, tol)
        result["annihilates_ideal_square"] = all(
            lane.is_zero(lane.dot(d, w), tol * 100) for w in msq.basis_vectors()
        )
    return result


def check_prop_2_5(
    a: FiniteAlgebra, d, phi: Character, analysis=None, tol=DEFAULT_TOL
):
    """Gate-dependent consequences of a nonzero point derivation.

    For commutative or unital algebras the rank-one map must be a non-inner
    derivation; for essential algebras it must also be non-cyclic.  For
    unital algebras the point-derivation space must coincide with the
    functionals killing both the unit and the ideal square.

    ``analysis`` is an Analysis of ``a``; when its backend matches, its
    derivation and inner spaces are used instead of being solved again.
    """
    lane = lane_of(character_backend(phi), d)
    commutative = a.is_commutative()
    unital, u = is_unital(a)
    essential = is_essential(a, EXACT, tol)
    gates = {
        "commutative": commutative,
        "essential": essential,
        "unital": unital,
    }
    if not any(gates.values()):
        return {"applicable": False, "gates": gates}
    dmap, flat = _rank_one_map(lane.vector(d), phi, lane)
    cached = analysis.derivations if analysis is not None and analysis.backend == lane.backend else None
    z = cached.z if cached is not None else derivation_space(a, lane.backend, tol)
    checks = {"applicable": True, "gates": gates}
    checks["is_derivation"] = z.contains(flat)
    if commutative or unital:
        inn = cached.inner if cached is not None else inner_space(a, lane.backend, tol)
        checks["non_inner"] = not inn.contains(flat)
    if essential:
        checks["non_cyclic"] = not is_cyclic(dmap, tol)
    if unital and phi.exact:
        m = maximal_ideal(a, phi, tol)
        msq = ideal_product_span(a, m, tol)
        constraint_rows = list(msq.rows) + [list(u)]
        expected = nullspace(constraint_rows, a.dim, EXACT, tol)
        pd = point_derivation_space(a, phi, EXACT, tol)
        checks["unital_characterization"] = subspace_equal(expected, pd)
    ok = all(v for k, v in checks.items() if isinstance(v, bool))
    checks["ok"] = ok
    return checks


def tensor_point_derivation(a1, phi1, d1, a2, phi2, d2, pd1=None, pd2=None, tol=DEFAULT_TOL):
    """Combine point derivations of two factors into one on their tensor product.

    Coordinates follow the tensor flattening (i, p) -> i * dim2 + p.  The
    inputs are checked against the factor point-derivation spaces; the
    output is returned together with its membership verdict in the tensor
    algebra's point-derivation space.
    """
    from .algebra import tensor_product

    lane = lane_of(character_backend(phi1), character_backend(phi2), d1, d2)
    if pd1 is None:
        pd1 = point_derivation_space(a1, phi1, lane.backend, tol)
    if pd2 is None:
        pd2 = point_derivation_space(a2, phi2, lane.backend, tol)
    d1v = lane.vector(d1)
    d2v = lane.vector(d2)
    if not pd1.contains(d1v):
        raise ValueError("d1 is not a point derivation of the first factor")
    if not pd2.contains(d2v):
        raise ValueError("d2 is not a point derivation of the second factor")
    big = tensor_product(a1, a2)
    n1, n2 = a1.dim, a2.dim
    p1 = _phi_entries(phi1, n1, lane)
    p2 = _phi_entries(phi2, n2, lane)
    combined = lane.vector(
        [d1v[i] * p2[p] + d2v[p] * p1[i] for i in range(n1) for p in range(n2)]
    )
    phi_vals = [lane.coerce(p1[i] * p2[p]) for i in range(n1) for p in range(n2)]
    big_phi = None
    if not all(lane.is_zero(x, tol) for x in phi_vals):
        big_phi = Character(tuple(phi_vals), lane.exact, 0.0)
    big_pd = point_derivation_space(big, big_phi, lane.backend, tol)
    member = big_pd.contains(combined)
    return big, big_phi, combined, member


@dataclass(frozen=True)
class PointDerivationReport:
    """Point-derivation spaces and amenability flags for one algebra."""

    characters: tuple
    certified: bool
    pd_dims: tuple
    cotangent_dims: tuple
    zero_space_dim: int
    point_amenable: bool
    zero_point_amenable: bool

    @property
    def conditional(self):
        return not self.certified


def amenability_flags(
    a: FiniteAlgebra,
    search: CharacterSearch | None = None,
    backend=EXACT,
    tol=DEFAULT_TOL,
    seed=None,
) -> PointDerivationReport:
    """Point amenability over the characters, and over characters plus zero."""
    if search is None:
        search = find_characters(a, seed=seed, tol=tol, backend=backend)
    pd_dims = []
    cot_dims = []
    for ch in search.characters:
        pd = point_derivation_space(a, ch, backend, tol)
        pd_dims.append(pd.dim)
        cot_dims.append(cotangent_dim(a, ch, tol))
    zero_space = point_derivation_space(a, None, backend, tol)
    pa = all(d == 0 for d in pd_dims)
    zpa = pa and zero_space.dim == 0
    return PointDerivationReport(
        characters=search.characters,
        certified=search.certified,
        pd_dims=tuple(pd_dims),
        cotangent_dims=tuple(cot_dims),
        zero_space_dim=zero_space.dim,
        point_amenable=pa,
        zero_point_amenable=zpa,
    )


def extend_character_to_unitization(phi: Character) -> Character:
    """Extension of a character to the unitization (value 1 on the new unit)."""
    one = LANES[character_backend(phi)].one
    return Character(tuple(phi.phi) + (one,), phi.exact, phi.residual)


def augmentation_character(n: int) -> Character:
    """The character of a unitization vanishing on the original algebra."""
    return Character(tuple([ZERO] * n + [ONE]), True, 0.0)
