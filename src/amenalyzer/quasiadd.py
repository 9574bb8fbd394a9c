"""Bilinear functionals on the tensor square and their distinguished subspaces.

A functional p on the tensor square is stored as the n-by-n matrix P with
P[i][j] = p(e_i tensor e_j), flattened row-major, in the same coordinate
layout as dual maps.  That makes the correspondence with derivation spaces
a literal subspace equality, which the cross-check suite verifies against
the independently assembled systems in :mod:`amenalyzer.derivations`.

Every system here is built on Gaussian integers, as {column: (re, im)}
dict rows over one positive integer denominator, and handed to its lane
by ``pair_system`` (see :mod:`amenalyzer.linalg`): the exact lane takes the
rows as they are, the float lane as complex(re / D, im / D), the bits
``complex`` of the ``QQi`` value gives.  The general builders still read
each product e_i e_j off :meth:`FiniteAlgebra.pair_product` of two
coordinate vectors and expand the elementary tensors of each identity, so
they never read the derivation system; the semigroup builders read the
product table, with entries over 1.
"""

from __future__ import annotations

from itertools import repeat

from .algebra import FiniteAlgebra, cayley_identity, recover_cayley_table
from .characters import Character, _lane, character_backend
from .derivations import antisymmetric_space
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    LANES,
    Subspace,
    dot,
    lane_of,
    nullspace,
    rowspace,
    subspace_equal,
    subspace_intersect,
)

_ONE = (1, 0)  # a basis vector's coefficient, the Gaussian integer 1 over 1


def _basis_products(a: FiniteAlgebra):
    """(D, basis, prod): the basis vectors and every product e_i e_j,
    evaluated by ``pair_product`` of coordinate vectors, each as the list
    of its nonzero (index, (re, im)) terms; a basis term is ``_ONE`` over
    1 and a product term is over D, the denominator of ``integer_nz``."""
    n = a.dim
    units = [[_ONE if j == i else (0, 0) for j in range(n)] for i in range(n)]
    prod = [
        [[(k, c) for k, c in enumerate(a.pair_product(x, y)) if c[0] or c[1]] for y in units]
        for x in units
    ]
    return a.integer_nz[0], [[(i, _ONE)] for i in range(n)], prod


def _add_elementary(row, u, v, n, sign=1):
    """Add sign times the coefficients of p(u tensor v) against the P[a][b]
    to the dict row of Gaussian integers; u and v are lists of nonzero
    (index, (re, im)) terms.  A coefficient ``_ONE`` is not multiplied, and
    a term whose column is new is stored as it is; a sum that cancels keeps
    its column as (0, 0)."""
    for s, x in u:
        for t, y in v:
            if x is _ONE:
                re, im = y
            elif y is _ONE:
                re, im = x
            else:
                re, im = x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]
            k = s * n + t
            z = row.get(k)
            row[k] = (sign * re, sign * im) if z is None else (z[0] + sign * re, z[1] + sign * im)


def quasi_additive_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Kernel of the quasi-additivity constraints, inside C^(n*n).

    p is quasi-additive when p(xy tensor z) = p(x tensor yz) + p(y tensor zx).
    Each basis triple (e_i, e_j, e_l) gives one equation, read off by
    expanding the three elementary tensors, whose products are evaluated by
    ``pair_product`` of coordinate vectors, against the coordinates
    P[a][b] = p(e_a tensor e_b).  Each elementary tensor pairs one product
    with one basis vector, so every row is Gaussian integers over the
    denominator of ``integer_nz``.  The structure tensor is never read
    directly, so this is a second route to the derivation space of
    Theorem 3.1.
    """
    n = a.dim
    d, basis, prod = _basis_products(a)
    rows = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = {}
                _add_elementary(row, prod[i][j], basis[l], n)
                _add_elementary(row, basis[i], prod[j][l], n, -1)
                _add_elementary(row, basis[j], prod[l][i], n, -1)
                rows.append(row)
    return nullspace(LANES[backend].pair_system(rows, repeat(d)), n * n, backend)


def inner_quasi_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Functionals of the form p(a tensor b) = F(ab - ba), one row per dual
    basis F, on the Gaussian integers of the products e_i e_j."""
    n = a.dim
    d, _, prod = _basis_products(a)
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k, (cr, ci) in prod[i][j]:
                x = rows[k].get(col, (0, 0))
                rows[k][col] = (x[0] + cr, x[1] + ci)
            for k, (cr, ci) in prod[j][i]:
                x = rows[k].get(col, (0, 0))
                rows[k][col] = (x[0] - cr, x[1] - ci)
    return rowspace(LANES[backend].pair_system(rows, repeat(d)), n * n, backend)


def cyclic_quasi_space(a: FiniteAlgebra, qa: Subspace) -> Subspace:
    """Quasi-additive functionals vanishing on the diagonal (antisymmetric P).

    ``qa`` is the solved :func:`quasi_additive_space` of ``a``; the result
    is on its backend.
    """
    anti = antisymmetric_space(a.dim, qa.backend)
    return subspace_intersect(qa, anti)


def corollary_3_2_check(an):
    """Recompute the three amenability flags from the tensor-square side.

    Parts (i)-(iii) are hard biconditionals: the flags derived here must
    agree with the derivation-side flags.  Part (iv), tying point
    amenability to vanishing of the columns p(. tensor b) at every
    character, is sound in one direction only; the forward direction rests
    on an unproven converse, so it is recorded as an open-question verdict
    with a witness instead of a failure.

    ``an`` is an Analysis of the algebra; the check reads its tensor-square
    spaces, derivation flags, characters and point flags.
    """
    qa, inner, cyclic = an.qa_space, an.inner_qa, an.cyclic_qa
    out = {
        "wa_agree": subspace_equal(qa, inner) == an.weakly_amenable,
        "ca_agree": subspace_equal(cyclic, inner) == an.cyclically_amenable,
        "cwa_agree": subspace_equal(qa, cyclic) == an.cyclically_weakly_amenable,
        "qa_dim": qa.dim,
        "inner_dim": inner.dim,
        "cyclic_dim": cyclic.dim,
    }
    characters = an.characters.characters
    if not characters:
        out["iv_status"] = "skipped: no characters"
        return out
    point_amenable = an.point_amenable
    lane = LANES[qa.backend]
    n = an.algebra.dim
    columns_vanish = True
    witness = None
    for p_flat in qa.rows:
        for ch in characters:
            if lane_of(qa.backend, character_backend(ch)) is not lane:
                continue  # a float character on the exact lane: the float backend run covers it
            phi = list(map(lane.coerce, ch.phi))
            for bidx in range(n):
                if lane.is_zero(phi[bidx], DEFAULT_TOL):
                    continue
                # p(. tensor e_b) is column b of P
                if not all(lane.is_zero(p_flat[i * n + bidx], DEFAULT_TOL * 100) for i in range(n)):
                    columns_vanish = False
                    witness = (bidx, ch.sort_key())
    # sound direction: vanishing columns force point amenability
    out["iv_sound_ok"] = (not columns_vanish) or point_amenable
    # open-question direction: point amenability forcing vanishing columns
    if point_amenable and not columns_vanish:
        out["iv_status"] = "open: forward direction fails"
        out["iv_witness"] = witness
    else:
        out["iv_status"] = "pass"
    return out


def point_derivation_from_quasi(an, p_flat, phi: Character, a0):
    """Candidate point derivation d(x) = p(x tensor a0) / phi(a0), with verdict.

    ``an`` is an Analysis of the algebra; the verdict reads its solved
    point-derivation space at phi.  ``p_flat`` and ``a0`` are coerced to
    the lane of ``an``, and d is a list of its scalars.
    The construction is guaranteed to recover d when p comes from the
    rank-one map of an actual point derivation; for an arbitrary
    quasi-additive p the membership verdict is recorded, not assumed.
    """
    lane = _lane(an, phi)
    n = an.algebra.dim
    a0 = list(map(lane.coerce, a0))
    p_flat = list(map(lane.coerce, p_flat))
    phi_a0 = dot(phi.phi, a0, lane.zero)
    if lane.is_zero(phi_a0, DEFAULT_TOL):
        raise ValueError("phi(a0) must be nonzero")
    # the functional x -> p(x tensor a0), one pairing per row of P
    col = [dot(p_flat[i * n:(i + 1) * n], a0, lane.zero) for i in range(n)]
    d = [x / phi_a0 for x in col]
    return d, an.pd_space(phi).contains(d)


# ---------------------------------------------------------------------------
# finite semigroup specialization


class NotASemigroupAlgebra(ValueError):
    pass


def _require_table(a: FiniteAlgebra):
    table = recover_cayley_table(a)
    if table is None:
        raise NotASemigroupAlgebra(
            f"{a.name}: structure constants are not a 0/1 product table"
        )
    return table


def semigroup_quasi_additive(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Quasi-additive functions on a semigroup, indexed by pairs of elements.

    Same kernel as the general construction, assembled directly from the
    product table: q(xy, z) - q(x, yz) - q(y, zx) = 0 for all x, y, z, as
    rows of Gaussian integers over 1.
    """
    table = _require_table(a)
    n = a.dim
    rows = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = {table[x][y] * n + z: _ONE}
                for k in (x * n + table[y][z], y * n + table[z][x]):
                    re, im = row.get(k, (0, 0))
                    row[k] = (re - 1, im)
                rows.append(row)
    return nullspace(LANES[backend].pair_system(rows, repeat(1)), n * n, backend)


def cd_space(a: FiniteAlgebra, qa: Subspace) -> Subspace:
    """Quasi-additive functions normalized against the identity element.

    Defined as the quasi-additive functions q with q(x, e) = 0 for every x,
    where e is the two-sided identity; requires a monoid.  ``qa`` is the
    solved table-indexed space :func:`semigroup_quasi_additive` of ``a``,
    on the backend under test; the rows q(x, e) = 0 are Gaussian integers
    over 1.  For semigroups without identity use the antisymmetric form via
    :func:`cyclic_quasi_space` on the group algebra.
    """
    e = cayley_identity(_require_table(a))
    if e is None:
        raise NotASemigroupAlgebra(f"{a.name}: no identity element for normalization")
    n = a.dim
    rows = [{x * n + e: _ONE} for x in range(n)]
    normal = nullspace(LANES[qa.backend].pair_system(rows, repeat(1)), n * n, qa.backend)
    return subspace_intersect(qa, normal)


def inner_q(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Image of h -> q(x, y) = h(xy) - h(yx) on a semigroup, as rows of
    Gaussian integers over 1."""
    table = _require_table(a)
    n = a.dim
    rows = [{} for _ in range(n)]
    for x in range(n):
        for y in range(n):
            row = rows[table[x][y]]
            re, im = row.get(x * n + y, (0, 0))
            row[x * n + y] = (re + 1, im)
            row = rows[table[y][x]]
            re, im = row.get(x * n + y, (0, 0))
            row[x * n + y] = (re - 1, im)
    return rowspace(LANES[backend].pair_system(rows, repeat(1)), n * n, backend)


def weighted_norm(p_flat, weight, n):
    """Largest |P[x][y]| / (w_x * w_y) over all pairs of the n-by-n matrix
    P flattened row-major as ``p_flat``."""
    worst = 0.0
    for x in range(n):
        for y in range(n):
            v = p_flat[x * n + y]
            mag = abs(complex(v))
            worst = max(worst, mag / (float(weight[x]) * float(weight[y])))
    return worst
