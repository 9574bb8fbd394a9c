"""Characters, point derivations and maximal ideals.

Characters (nonzero multiplicative functionals) are found by a reduction
pipeline: quotient out the two-sided ideal generated by commutators, then
the radical of the quotient.  What remains is a commutative semisimple
algebra whose characters are the eigenvectors of a random combination of
its transposed left-multiplication matrices; distinct eigenvalues certify
that the enumeration is complete.  Characters found in floating point are
rationalized and re-verified exactly whenever possible.  The reduction is
exact, and the algebra holds it as ``FiniteAlgebra.character_reduction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraFormatError, FiniteAlgebra
from .derivations import (
    flatten_map,
    is_cyclic,
    rank_one_dual_map,
)
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    LANES,
    Subspace,
    dot,
    lane_of,
    nullspace,
    rowspace,
    subspace_equal,
)
from .scalars import ONE, ZERO, QQi, gaussian_integers

DEFAULT_SEED = 1729
RATIONALIZE_DENOM_BOUND = 10**6


def resolve_seed(seed=None) -> int:
    return DEFAULT_SEED if seed is None else int(seed)


class CharacterVerificationError(AlgebraFormatError):
    """A supplied character fails the multiplicativity equations: the
    algebra's description cannot be accepted."""


@dataclass(frozen=True)
class Character:
    """A verified nonzero multiplicative functional, one value per basis vector."""

    phi: tuple  # QQi entries when exact, complex entries otherwise
    exact: bool

    def values_complex(self) -> np.ndarray:
        return np.array([complex(x) for x in self.phi], dtype=np.complex128)

    def sort_key(self):
        return tuple((round(complex(x).real, 9), round(complex(x).imag, 9)) for x in self.phi)


@dataclass(frozen=True)
class CharacterSearch:
    characters: tuple
    certified: bool
    attempts: int


def _mult_defects(a: FiniteAlgebra, values):
    """phi(e_i) phi(e_j) - phi(e_i e_j) for every basis pair (i, j), in
    order, for complex128 values."""
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            acc = 0j
            for k, c in terms:
                acc = acc + complex(c) * values[k]
            yield values[i] * values[j] - acc


def _is_multiplicative(a: FiniteAlgebra, values) -> bool:
    """Whether exact ``QQi`` values satisfy phi(e_i) phi(e_j) = phi(e_i e_j)
    for every basis pair, tested on Gaussian integers: with the values p/E
    and the constants c/D (:attr:`FiniteAlgebra.integer_nz`), each
    equation reads D p_i p_j = E sum_k c_ijk p_k."""
    d, planes = a.integer_nz
    e, p = gaussian_integers(values)
    for (ar, ai), plane in zip(p, planes):
        for (br, bi), terms in zip(p, plane):
            sr = si = 0
            for k, (cr, ci) in terms:
                xr, xi = p[k]
                sr += cr * xr - ci * xi
                si += cr * xi + ci * xr
            if d * (ar * br - ai * bi) != e * sr or d * (ar * bi + ai * br) != e * si:
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


def _verify_vector(a: FiniteAlgebra, values, want_exact=True) -> Character | None:
    """Verify a candidate character; exact first when possible."""
    if want_exact and all(isinstance(v, QQi) for v in values):
        if all(v.is_zero() for v in values):
            return None
        if _is_multiplicative(a, values):
            return Character(tuple(values), True)
        return None
    arr = np.array([complex(v) for v in values], dtype=np.complex128)
    top = float(np.abs(arr).max())
    # the zero functional, or a value that is NaN or infinite
    if not 0.0 < top < np.inf:
        return None
    # numpy's max, unlike max(), keeps a NaN, and the test fails on one
    res = float(np.abs(list(_mult_defects(a, arr))).max())
    scale = max(1.0, top**2)
    if not res <= DEFAULT_TOL * scale * 100:
        return None
    if want_exact:
        rat = _rationalize(arr)
        if rat is not None and _is_multiplicative(a, rat):
            return Character(rat, True)
    return Character(tuple(complex(v) for v in arr), False)


def _semisimple_commutative_characters(c_alg: FiniteAlgebra, rng):
    """Characters of a commutative semisimple algebra via joint eigenvectors.

    Returns (list of float value-vectors, certified flag, attempts used).
    """
    k = c_alg.dim
    if k == 1:
        return [c_alg.complex_sc[0, 0]], True, 0
    unit = c_alg.unit_solution
    if unit is None:
        # commutative semisimple algebras always have a unit; defensive only
        return [], False, 0
    u = np.array([complex(x) for x in unit], dtype=np.complex128)
    # lt[i] is L_{e_i} transposed: rows indexed by j, cols by k
    lt = c_alg.complex_sc
    attempts = 0
    for attempt in range(3):
        attempts = attempt + 1
        coeffs = np.array([rng.gauss(0.0, 1.0) for _ in range(k)])
        coeffs = coeffs + 1j * np.array([rng.gauss(0.0, 1.0) for _ in range(k)])
        r = np.tensordot(coeffs, lt, axes=1)
        eigvals, eigvecs = np.linalg.eig(r)
        sep = DEFAULT_TOL * 1e3 * max(1.0, float(np.abs(eigvals).max()))
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


def find_characters(a: FiniteAlgebra, *, seed=None, backend=EXACT) -> CharacterSearch:
    """Enumerate the characters of the algebra.

    The reduction steps run in exact arithmetic (structure constants are
    exact by construction); only the final diagonalization is floating
    point.  With the exact backend, characters whose entries round to small
    rationals are re-verified exactly and kept in exact form.
    """
    # the stdlib generator: importing numpy.random pulls in secrets, hmac,
    # base64 and the cython runtime, megabytes of memory for a few draws
    rng = random.Random(resolve_seed(seed))
    reduction = a.character_reduction
    if reduction is None:
        found, certified, attempts = [], True, 0
    else:
        c_alg, p2, p1 = reduction
        vecs, certified, attempts = _semisimple_commutative_characters(c_alg, rng)
        found = [np.asarray(v) @ p2 @ p1 for v in vecs]

    want_exact = backend == EXACT
    chars = []
    for values in found:
        ch = _verify_vector(a, values, want_exact=want_exact)
        if ch is None:
            certified = False
            continue
        chars.append(ch)

    if a.declared_characters:
        for t, declared in enumerate(a.declared_characters):
            ch = _verify_vector(a, declared, want_exact=want_exact)
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
    return CharacterSearch(tuple(deduped), certified, attempts)


# ---------------------------------------------------------------------------
# point derivations


def character_backend(phi) -> str:
    """The lane a character's values live on; None, the zero functional, is exact."""
    return EXACT if phi is None or phi.exact else FLOAT


def _phi_entries(phi, n, lane):
    """The values of a character, or of the zero functional when ``phi`` is
    None, as a list of the lane's scalars."""
    return [lane.zero] * n if phi is None else list(map(lane.coerce, phi.phi))


def point_derivation_space(a: FiniteAlgebra, phi, backend=EXACT) -> Subspace:
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
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            row = {k: lane.coerce(c) for k, c in terms}
            row[i] = row.get(i, lane.zero) - pv[j]
            row[j] = row.get(j, lane.zero) - pv[i]
            rows.append(row)
    return nullspace(rows, n, lane.backend)


def maximal_ideal(a: FiniteAlgebra, phi: Character) -> Subspace:
    """Kernel of the character, a subspace of dimension n - 1."""
    return nullspace([list(phi.phi)], a.dim, character_backend(phi))


def ideal_product_span(a: FiniteAlgebra, s: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors of a subspace, each
    product u v read off the constants as pairs (re, im) on the lane of the
    subspace (``pairs``).  On the exact lane they are Gaussian integers:
    each row of the subspace is read once over its own denominator, and the
    row of u v is over the product of those two and the constants' one.  On
    the float lane they are the parts of the complex values over 1, and
    the pair arithmetic rounds as complex arithmetic does."""
    lane = LANES[s.backend]
    d, planes = a.pair_nz(lane.pairs)
    vecs = []
    for row in s.basis:
        e, values = lane.pairs(row.values())
        vecs.append((e, list(zip(row, values))))
    rows, dens = [], []
    for eu, u in vecs:
        for ev, v in vecs:
            row = {}
            for i, (xr, xi) in u:
                plane = planes[i]
                for j, (yr, yi) in v:
                    terms = plane[j]
                    if terms:
                        pr = xr * yr - xi * yi
                        pi = xr * yi + xi * yr
                        for k, (cr, ci) in terms:
                            re = pr * cr - pi * ci
                            im = pr * ci + pi * cr
                            y = row.get(k)
                            # a sum that cancels keeps its column, as the complex sum did
                            row[k] = (re, im) if y is None else (y[0] + re, y[1] + im)
            rows.append(row)
            dens.append(eu * ev * d)
    return rowspace(lane.pair_system(rows, dens), a.dim, s.backend)


def _rank_one_map(d, phi: Character, lane):
    """The dual map a, b -> d(a) phi(b) on the lane, and its flattening."""
    dmap = rank_one_dual_map(d, phi.phi, lane.backend)
    return dmap, flatten_map(dmap, len(d))


# The helpers below take an Analysis of the algebra (``amenalyzer.classify``)
# and read its solved spaces: ``z``, ``inner``, ``pd_space``, ``ideal_square``,
# ``unital``, ``commutative`` and ``essential``.  They solve nothing themselves.


def _lane(an, *phis):
    """The lane of the Analysis; a character of another lane is refused."""
    for phi in phis:
        if phi is not None and character_backend(phi) != an.backend:
            raise ValueError(
                f"a {character_backend(phi)} character given to a {an.backend} analysis"
            )
    return LANES[an.backend]


def check_prop_2_4(an, d, phi: Character):
    """Cross-check the rank-one bridge between point derivations and derivations.

    Evaluates both routes independently: membership of the rank-one dual
    map built from (d, phi) in the derivation space, and membership of d in
    the point-derivation space at phi.  Reports whether they agree and
    whether d kills the span of products of the maximal ideal.
    """
    lane = _lane(an, phi)
    d = list(map(lane.coerce, d))
    _, flat = _rank_one_map(d, phi, lane)
    via_derivation = an.z.contains(flat)
    via_point = an.pd_space(phi).contains(d)
    result = {
        "rank_one_is_derivation": via_derivation,
        "is_point_derivation": via_point,
        "agree": via_derivation == via_point,
        "annihilates_ideal_square": None,
    }
    if via_point:
        _, msq = an.ideal_square(phi)
        result["annihilates_ideal_square"] = all(
            lane.is_zero(dot(d, w, lane.zero), DEFAULT_TOL * 100) for w in msq.rows
        )
    return result


def unital_characterization(an, phi: Character) -> bool:
    """For a unital algebra and an exact character: the point derivations at
    phi are exactly the functionals killing the unit and the square of ker phi."""
    _, u = an.unital
    _, msq = an.ideal_square(phi)
    expected = nullspace(list(msq.basis) + [list(u)], an.algebra.dim, EXACT)
    return subspace_equal(expected, an.pd_space(phi))


def check_prop_2_5(an, d, phi: Character):
    """Gate-dependent consequences of a nonzero point derivation.

    For commutative or unital algebras the rank-one map must be a non-inner
    derivation; for essential algebras it must also be non-cyclic.  For
    unital algebras the point-derivation space must coincide with the
    functionals killing both the unit and the ideal square.
    """
    lane = _lane(an, phi)
    unital, _ = an.unital
    gates = {
        "commutative": an.commutative,
        "essential": an.essential,
        "unital": unital,
    }
    if not any(gates.values()):
        return {"applicable": False, "gates": gates}
    dmap, flat = _rank_one_map(d, phi, lane)
    checks = {"applicable": True, "gates": gates}
    checks["is_derivation"] = an.z.contains(flat)
    if gates["commutative"] or unital:
        checks["non_inner"] = not an.inner.contains(flat)
    if gates["essential"]:
        checks["non_cyclic"] = not is_cyclic(dmap)
    if unital and phi.exact:
        checks["unital_characterization"] = unital_characterization(an, phi)
    ok = all(v for k, v in checks.items() if isinstance(v, bool))
    checks["ok"] = ok
    return checks


def _nonzeros(values, lane):
    """The (index, value) pairs of the nonzero values."""
    return [(i, x) for i, x in enumerate(values) if not lane.is_zero(x)]


def tensor_point_derivation(an1, phi1, d1, an2, phi2, d2, big):
    """Combine point derivations of two factors into one on their tensor product.

    ``an1`` and ``an2`` are Analyses of the factors and ``big`` one of
    their tensor product, all on one backend.  Coordinates follow the tensor
    flattening (i, p) -> i * dim2 + p.  The inputs are checked against the
    factor point-derivation spaces; the output is returned together with
    its membership verdict in the tensor algebra's point-derivation space.
    """
    lane = _lane(big, phi1, phi2)
    d1v = list(map(lane.coerce, d1))
    d2v = list(map(lane.coerce, d2))
    if not an1.pd_space(phi1).contains(d1v):
        raise ValueError("d1 is not a point derivation of the first factor")
    if not an2.pd_space(phi2).contains(d2v):
        raise ValueError("d2 is not a point derivation of the second factor")
    n1, n2 = an1.algebra.dim, an2.algebra.dim
    p1 = _nonzeros(_phi_entries(phi1, n1, lane), lane)
    p2 = _nonzeros(_phi_entries(phi2, n2, lane), lane)
    # d1 (x) phi2 + phi1 (x) d2 and phi1 (x) phi2, on the products of nonzeros
    zero = lane.zero
    combined = [zero] * (n1 * n2)
    for i, x in _nonzeros(d1v, lane):
        for p, y in p2:
            combined[i * n2 + p] = x * y
    for p, x in _nonzeros(d2v, lane):
        for i, y in p1:
            z = combined[i * n2 + p]
            combined[i * n2 + p] = x * y if z is zero else z + x * y
    phi_vals = [zero] * (n1 * n2)
    for i, x in p1:
        for p, y in p2:
            phi_vals[i * n2 + p] = lane.coerce(x * y)
    big_phi = None
    if not all(lane.is_zero(x, DEFAULT_TOL) for x in phi_vals):
        big_phi = Character(tuple(phi_vals), lane.exact)
    member = big.pd_space(big_phi).contains(combined)
    return big.algebra, big_phi, combined, member


def extend_character_to_unitization(phi: Character) -> Character:
    """Extension of a character to the unitization (value 1 on the new unit)."""
    one = LANES[character_backend(phi)].one
    return Character(tuple(phi.phi) + (one,), phi.exact)


def augmentation_character(n: int) -> Character:
    """The character of a unitization vanishing on the original algebra."""
    return Character(tuple([ZERO] * n + [ONE]), True)
