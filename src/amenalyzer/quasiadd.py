"""Bilinear functionals on the tensor square and their distinguished subspaces.

A functional p on the tensor square is stored as the n-by-n matrix P with
P[i][j] = p(e_i tensor e_j), flattened row-major, in the same coordinate
layout as dual maps.  That makes the correspondence with derivation spaces
a literal subspace equality, which the cross-check suite verifies against
the independently assembled systems in :mod:`amenalyzer.derivations`.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteAlgebra, recover_cayley_table
from .characters import Character, point_derivation_space
from .derivations import antisymmetric_space
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    Subspace,
    nullspace,
    rowspace,
    subspace_intersect,
    to_complex_matrix,
)
from .scalars import ONE, ZERO


def _basis_products(a: FiniteAlgebra):
    """The basis vectors and every product e_i e_j, evaluated by multiply."""
    basis = [a.basis_vector(i) for i in range(a.dim)]
    return basis, [[a.multiply(x, y) for y in basis] for x in basis]


def _add_elementary(row, u, v, n, subtract=False):
    """Add (or subtract) the coefficients of p(u tensor v) against the P[a][b]."""
    for s, ua in enumerate(u):
        if ua.is_zero():
            continue
        for t, vb in enumerate(v):
            if vb.is_zero():
                continue
            k = s * n + t
            row[k] = row[k] - ua * vb if subtract else row[k] + ua * vb


def quasi_additive_space(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Kernel of the quasi-additivity constraints, inside C^(n*n).

    p is quasi-additive when p(xy tensor z) = p(x tensor yz) + p(y tensor zx).
    Each basis triple (e_i, e_j, e_l) gives one equation, read off by
    expanding the three elementary tensors, whose products are evaluated by
    ``multiply``, against the coordinates P[a][b] = p(e_a tensor e_b).  The
    structure tensor is never read directly, so this is a second route to
    the derivation space of Theorem 3.1.
    """
    n = a.dim
    basis, prod = _basis_products(a)
    rows = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = [ZERO] * (n * n)
                _add_elementary(row, prod[i][j], basis[l], n)
                _add_elementary(row, basis[i], prod[j][l], n, subtract=True)
                _add_elementary(row, basis[j], prod[l][i], n, subtract=True)
                rows.append(row)
    if backend == FLOAT:
        rows = to_complex_matrix(rows)
    return nullspace(rows, n * n, backend, tol)


def inner_quasi_space(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Functionals of the form p(a tensor b) = F(ab - ba), one row per dual basis F."""
    n = a.dim
    _, prod = _basis_products(a)
    rows = [
        [prod[i][j][k] - prod[j][i][k] for i in range(n) for j in range(n)]
        for k in range(n)
    ]
    if backend == FLOAT:
        rows = to_complex_matrix(rows)
    return rowspace(rows, n * n, backend, tol)


def cyclic_quasi_space(a: FiniteAlgebra, qa: Subspace | None = None, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Quasi-additive functionals vanishing on the diagonal (antisymmetric P)."""
    if qa is None:
        qa = quasi_additive_space(a, backend, tol)
    anti = antisymmetric_space(a.dim, qa.backend, qa.tol)
    return subspace_intersect(qa, anti)


def pairing_column(p_flat, b, n, exact: bool):
    """The functional a -> p(a tensor b) as a coordinate vector."""
    if exact:
        out = []
        for i in range(n):
            acc = ZERO
            for j in range(n):
                x = p_flat[i * n + j]
                if not (x.is_zero() or b[j].is_zero()):
                    acc = acc + x * b[j]
            out.append(acc)
        return out
    mat = np.asarray(p_flat).reshape(n, n)
    return mat @ np.asarray(b)


def corollary_3_2_check(
    a: FiniteAlgebra,
    derivation_flags: dict,
    point_amenable: bool | None,
    characters,
    spaces,
    tol=DEFAULT_TOL,
):
    """Recompute the three amenability flags from the tensor-square side.

    Parts (i)-(iii) are hard biconditionals: the flags derived here must
    agree with the derivation-side flags.  Part (iv), tying point
    amenability to vanishing of the columns p(. tensor b) at every
    character, is sound in one direction only; the forward direction rests
    on an unproven converse, so it is recorded as an open-question verdict
    with a witness instead of a failure.

    ``spaces`` is the (quasi-additive, inner, cyclic) triple of tensor-square
    spaces of ``a``, solved on the backend under test.
    """
    from .linalg import subspace_equal

    qa, inner, cyclic = spaces
    wa_q = subspace_equal(qa, inner)
    cwa_q = subspace_equal(qa, cyclic)
    ca_q = subspace_equal(cyclic, inner)
    out = {
        "wa_agree": wa_q == derivation_flags["weakly_amenable"],
        "ca_agree": ca_q == derivation_flags["cyclically_amenable"],
        "cwa_agree": cwa_q == derivation_flags["cyclically_weakly_amenable"],
        "qa_dim": qa.dim,
        "inner_dim": inner.dim,
        "cyclic_dim": cyclic.dim,
    }
    if point_amenable is None or not characters:
        out["iv_status"] = "skipped: no characters"
        return out
    exact = qa.backend == EXACT
    n = a.dim
    columns_vanish = True
    witness = None
    for p_flat in qa.basis_vectors():
        for ch in characters:
            phi = ch.phi if (exact and ch.exact) else ch.values_complex()
            if exact and not ch.exact:
                continue  # mixed precision handled by the float backend run
            for bidx in range(n):
                val = phi[bidx]
                nonzero = (not val.is_zero()) if exact else abs(val) > tol
                if not nonzero:
                    continue
                b = [ONE if t == bidx else ZERO for t in range(n)] if exact else np.eye(n)[bidx]
                col = pairing_column(p_flat, b, n, exact)
                if exact:
                    vanish = all(x.is_zero() for x in col)
                else:
                    vanish = bool(np.abs(col).max() <= tol * 100)
                if not vanish:
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


def point_derivation_from_quasi(
    a: FiniteAlgebra, p_flat, phi: Character, a0, tol=DEFAULT_TOL
):
    """Candidate point derivation d(x) = p(x tensor a0) / phi(a0), with verdict.

    The construction is guaranteed to recover d when p comes from the
    rank-one map of an actual point derivation; for an arbitrary
    quasi-additive p the membership verdict is recorded, not assumed.
    """
    exact = phi.exact and not isinstance(p_flat, np.ndarray)
    n = a.dim
    if exact:
        phi_a0 = ZERO
        for x, y in zip(phi.phi, a0):
            if not (x.is_zero() or y.is_zero()):
                phi_a0 = phi_a0 + x * y
        if phi_a0.is_zero():
            raise ValueError("phi(a0) must be nonzero")
        col = pairing_column(p_flat, list(a0), n, True)
        d = [x / phi_a0 for x in col]
        pd = point_derivation_space(a, phi, EXACT, tol)
        return d, pd.contains(d)
    phi_vals = phi.values_complex()
    a0v = np.asarray([complex(x) for x in a0])
    phi_a0 = complex(np.dot(phi_vals, a0v))
    if abs(phi_a0) <= tol:
        raise ValueError("phi(a0) must be nonzero")
    col = pairing_column(np.asarray(p_flat), a0v, n, False)
    d = np.asarray(col) / phi_a0
    pd = point_derivation_space(a, phi, FLOAT, tol)
    return d, pd.contains(d)


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


def semigroup_quasi_additive(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Quasi-additive functions on a semigroup, indexed by pairs of elements.

    Same kernel as the general construction, assembled directly from the
    product table: q(xy, z) - q(x, yz) - q(y, zx) = 0 for all x, y, z.
    """
    table = _require_table(a)
    n = a.dim
    nn = n * n
    rows = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = [ZERO] * nn
                row[table[x][y] * n + z] = row[table[x][y] * n + z] + ONE
                row[x * n + table[y][z]] = row[x * n + table[y][z]] - ONE
                row[y * n + table[z][x]] = row[y * n + table[z][x]] - ONE
                rows.append(row)
    if backend == FLOAT:
        rows = [[complex(v) for v in r] for r in rows]
    return nullspace(rows, nn, backend, tol)


def semigroup_identity(a: FiniteAlgebra):
    table = _require_table(a)
    n = a.dim
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def cd_space(a: FiniteAlgebra, qa: Subspace) -> Subspace:
    """Quasi-additive functions normalized against the identity element.

    Defined as the quasi-additive functions q with q(x, e) = 0 for every x,
    where e is the two-sided identity; requires a monoid.  ``qa`` is the
    solved table-indexed space :func:`semigroup_quasi_additive` of ``a``,
    on the backend under test.  For semigroups without identity use the
    antisymmetric form via :func:`cyclic_quasi_space` on the group algebra.
    """
    e = semigroup_identity(a)
    if e is None:
        raise NotASemigroupAlgebra(f"{a.name}: no identity element for normalization")
    n = a.dim
    rows = []
    for x in range(n):
        row = [ZERO] * (n * n)
        row[x * n + e] = ONE
        rows.append(row)
    if qa.backend == FLOAT:
        rows = [[complex(v) for v in r] for r in rows]
    normal = nullspace(rows, n * n, qa.backend, qa.tol)
    return subspace_intersect(qa, normal)


def inner_q(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Image of h -> q(x, y) = h(xy) - h(yx) on a semigroup."""
    table = _require_table(a)
    n = a.dim
    rows = []
    for k in range(n):
        row = []
        for x in range(n):
            for y in range(n):
                v = ZERO
                if table[x][y] == k:
                    v = v + ONE
                if table[y][x] == k:
                    v = v - ONE
                row.append(v)
        rows.append(row)
    if backend == FLOAT:
        rows = [[complex(v) for v in r] for r in rows]
    return rowspace(rows, n * n, backend, tol)


def weighted_norm(p_flat, weight, n=None):
    """Largest |P[x][y]| / (w_x * w_y) over all pairs."""
    if n is None:
        n = int(round(len(p_flat) ** 0.5))
    worst = 0.0
    for x in range(n):
        for y in range(n):
            v = p_flat[x * n + y]
            mag = abs(complex(v))
            worst = max(worst, mag / (float(weight[x]) * float(weight[y])))
    return worst
