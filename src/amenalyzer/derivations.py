"""Derivations into the dual module: the spaces Z, Inn and Zc.

A linear map D from the algebra into its dual is stored as the n-by-n
matrix M with M[i][j] the pairing of D(e_i) against e_j.  Matrices are
flattened row-major into coordinate vectors of length n*n, so spaces of
dual maps are ordinary subspaces and the lattice operations apply.

Z is the kernel of the n^3-by-n^2 derivation system.  Both lanes build it
once, as one {column: (re, im)} dict row of Gaussian integers per basis
triple, read off ``FiniteAlgebra.integer_nz``, and
:mod:`amenalyzer.linalg` splits it into its independent blocks, so no lane
holds it dense: in a basis of matrix units, monomials or semigroup
elements it falls into hundreds of blocks.
"""

from __future__ import annotations

from itertools import repeat

from .algebra import FiniteAlgebra, is_unital
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    LANES,
    Subspace,
    lane_of,
    nullspace,
    rowspace,
    subspace_leq,
)
from .scalars import ONE


def flatten_map(m, n):
    """Row-major flattening of an n-by-n dual-map matrix."""
    return lane_of(m).vector([m[i][j] for i in range(n) for j in range(n)])


def unflatten_map(v, n):
    return lane_of(v).matrix([v[i * n:(i + 1) * n] for i in range(n)])


def _assemble_derivation_rows(a: FiniteAlgebra):
    """(D, rows): one linear constraint per basis triple (i, j, l), as a
    {column: (re, im)} dict of its terms, Gaussian integers over D, the
    denominator of :attr:`FiniteAlgebra.integer_nz`; both lanes build the
    system from these rows.

    The derivation identity evaluated at basis vectors reads: the pairing
    of D(e_i e_j) against e_l equals the pairing of D(e_i) against e_j e_l
    plus the pairing of D(e_j) against e_l e_i.  The constants are negated
    once per algebra, and a term is stored as it is unless an earlier one
    holds its column; terms that cancel leave no entry.
    """
    n = a.dim
    d, nz = a.integer_nz
    neg = [[tuple((m, (-cr, -ci)) for m, (cr, ci) in terms) for terms in plane] for plane in nz]
    rows = []
    for i in range(n):
        for j in range(n):
            head = nz[i][j]
            for l in range(n):
                row = {k * n + l: c for k, c in head}
                for base, terms in ((i * n, neg[j][l]), (j * n, neg[l][i])):
                    for m, c in terms:
                        col = base + m
                        x = row.get(col)
                        if x is None:
                            row[col] = c
                        else:
                            re = x[0] + c[0]
                            im = x[1] + c[1]
                            if re or im:
                                row[col] = (re, im)
                            else:
                                del row[col]
                rows.append(row)
    return d, rows


def derivation_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Kernel of the n^3-by-n^2 derivation system, inside C^(n*n), solved
    block by block (see :mod:`amenalyzer.linalg`)."""
    d, rows = _assemble_derivation_rows(a)
    return nullspace(LANES[backend].pair_system(rows, repeat(d)), a.dim * a.dim, backend)


def inner_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Image of F -> (i,j) |-> F(e_i e_j - e_j e_i), one row per dual basis
    F, on the Gaussian integers of ``integer_nz``."""
    n = a.dim
    d, nz = a.integer_nz
    rows = [{} for _ in range(n)]
    for i, plane in enumerate(nz):
        for j, terms in enumerate(plane):
            for k, (cr, ci) in terms:
                row = rows[k]
                x = row.get(i * n + j, (0, 0))
                row[i * n + j] = (x[0] + cr, x[1] + ci)
                x = row.get(j * n + i, (0, 0))
                row[j * n + i] = (x[0] - cr, x[1] - ci)
    return rowspace(LANES[backend].pair_system(rows, repeat(d)), n * n, backend)


def _symmetric_pairs(n):
    """Flat positions (i*n+j, j*n+i) of the entry pairs with i <= j."""
    return [(i * n + j, j * n + i) for i in range(n) for j in range(i, n)]


def antisymmetric_space(n, backend=EXACT) -> Subspace:
    """Matrices with M[i][j] + M[j][i] = 0, as a subspace of C^(n*n)."""
    rows = [{ij: ONE, ji: ONE} if ij != ji else {ij: ONE + ONE} for ij, ji in _symmetric_pairs(n)]
    return nullspace(rows, n * n, backend)


def cyclic_subspace(a: FiniteAlgebra, z: Subspace) -> Subspace:
    """Cyclic derivations: the antisymmetric elements of Z, solved in Z's coordinates.

    A combination sum_k c_k z_k of Z's basis rows is antisymmetric when
    sum_k c_k (z_k[i][j] + z_k[j][i]) = 0 for every i <= j: dim Z unknowns
    and n(n+1)/2 equations.  The combinations spanned by the kernel are
    canonicalized to RREF, so on the exact backend the rows are those of
    the intersection of Z with the antisymmetric matrices.  Both lanes
    build the equations and the combinations from the nonzeros of Z's rows.
    """
    if z.dim == 0:
        return z
    n = a.dim
    # the entry (i, j) of row k adds z_k[i][j] to equation {i, j} at k; a
    # diagonal entry is both z_k[i][j] and z_k[j][i]
    eqs = {}
    for k, row in enumerate(z.basis):
        for c, x in row.items():
            i, j = divmod(c, n)
            eq = eqs.setdefault((i, j) if i <= j else (j, i), {})
            if i == j:
                x = x + x
            y = eq.get(k)
            eq[k] = x if y is None else y + x
    coeffs = nullspace(list(eqs.values()), z.dim, z.backend)
    combos = []
    for coef_row in coeffs.basis:
        combo = {}
        for k, coef in coef_row.items():
            for c, x in z.basis[k].items():
                y = combo.get(c)
                combo[c] = coef * x if y is None else y + coef * x
        combos.append(combo)
    return rowspace(combos, n * n, z.backend)


def t_operator_rank(z: Subspace, zc: Subspace) -> int:
    """Rank of the cyclic-defect operator: dim Z minus dim Zc."""
    if not subspace_leq(zc, z):
        raise AssertionError("internal invariant violated: cyclic space not inside Z")
    return z.dim - zc.dim


def rank_one_dual_map(f1, f2, backend=EXACT):
    """Dual map pairing a against b as F1(a) * F2(b).

    Only nonzero factors are multiplied: a row of a zero F1(a), or a
    column of a zero F2(b), is the lane's zero, so the map costs the
    products of its nonzeros."""
    if len(f1) != len(f2):
        raise ValueError(f"length mismatch: {len(f1)} vs {len(f2)}")
    lane = LANES[backend]
    zero = lane.zero
    right = [(b, y) for b, y in enumerate(map(lane.coerce, f2)) if not lane.is_zero(y)]
    rows = []
    for x in map(lane.coerce, f1):
        row = [zero] * len(f2)
        if not lane.is_zero(x):
            for b, y in right:
                row[b] = x * y
        rows.append(row)
    return lane.matrix(rows)


def vanishes_on_diameter(m) -> bool:
    """Whether the pairing of D(a) against a vanishes for every a.

    Decided by evaluating the quadratic form on the spanning family of
    basis vectors and pairwise sums, which is an independent route from
    the antisymmetry test.
    """
    lane = lane_of(m)
    bound = DEFAULT_TOL * lane.scale(m)
    n = len(m)
    for i in range(n):
        if not lane.is_zero(m[i][i], bound):
            return False
        for j in range(i + 1, n):
            if not lane.is_zero(m[i][i] + m[j][j] + m[i][j] + m[j][i], bound):
                return False
    return True


def is_cyclic(m) -> bool:
    """Antisymmetry of the coordinate matrix."""
    lane = lane_of(m)
    bound = DEFAULT_TOL * lane.scale(m)
    n = len(m)
    return all(
        lane.is_zero(m[i][j] + m[j][i], bound) for i in range(n) for j in range(i, n)
    )


def pairing_with_unit_vanishes(a: FiniteAlgebra, m) -> bool:
    """Whether D(a) pairs to zero against the unit, for all a."""
    ok, u = is_unital(a)
    if not ok:
        raise ValueError(f"{a.name} is not unital")
    lane = lane_of(m)
    bound = DEFAULT_TOL * lane.scale(m)
    u = lane.vector(u)
    return all(lane.is_zero(lane.dot(row, u), bound) for row in m)
