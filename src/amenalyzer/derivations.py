"""Derivations into the dual module: the spaces Z, Inn and Zc.

A linear map D from the algebra into its dual is stored as the n-by-n
matrix M with M[i][j] the pairing of D(e_i) against e_j.  Matrices are
flattened row-major into coordinate vectors of length n*n, so spaces of
dual maps are ordinary subspaces and the lattice operations apply.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteAlgebra, is_unital
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    LANES,
    Subspace,
    lane_of,
    matvec_exact,
    nullspace,
    real_if_real,
    rowspace,
    subspace_leq,
    system_zeros,
)
from .scalars import ONE, ZERO


def flatten_map(m, n):
    """Row-major flattening of an n-by-n dual-map matrix."""
    return lane_of(m).vector([m[i][j] for i in range(n) for j in range(n)])


def unflatten_map(v, n):
    return lane_of(v).matrix([v[i * n:(i + 1) * n] for i in range(n)])


def _assemble_derivation_rows(a: FiniteAlgebra):
    """One linear constraint per basis triple (i, j, l), as a {column: QQi}
    dict of its terms.

    The derivation identity evaluated at basis vectors reads: the pairing
    of D(e_i e_j) against e_l equals the pairing of D(e_i) against e_j e_l
    plus the pairing of D(e_j) against e_l e_i.
    """
    n = a.dim
    nz = a.nz
    rows = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = {}
                for k, c in nz[i][j]:
                    row[k * n + l] = row.get(k * n + l, ZERO) + c
                for m, c in nz[j][l]:
                    row[i * n + m] = row.get(i * n + m, ZERO) - c
                for m, c in nz[l][i]:
                    row[j * n + m] = row.get(j * n + m, ZERO) - c
                rows.append(row)
    return rows


def _broadcast_derivation_rows(sc: np.ndarray) -> np.ndarray:
    """The same constraints as an array, rows and columns in the same order:
    C[(i,j,l),(p,q)] = sc[i,j,p] d_lq - d_ip sc[j,l,q] - d_jp sc[l,i,q].
    It is float64 for a real tensor and complex128 otherwise
    (:func:`~amenalyzer.linalg.real_if_real`).

    Each Kronecker delta selects a diagonal slice of the five-index array,
    into which the (n, n, n) tensor is broadcast whole.
    """
    sc = real_if_real(sc)
    n = sc.shape[0]
    system = system_zeros((n**3, n * n), sc.dtype)
    c = system.reshape(n, n, n, n, n)
    sc_lis = sc.transpose(1, 0, 2)
    for t in range(n):
        c[:, :, t, :, t] += sc
        c[t, :, :, t, :] -= sc
        c[:, t, :, t, :] -= sc_lis
    return system


def derivation_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Kernel of the n^3-by-n^2 derivation system, inside C^(n*n); the float
    lane broadcasts the system from the tensor, which is faster there."""
    rows = _broadcast_derivation_rows(a.complex_sc) if backend == FLOAT else _assemble_derivation_rows(a)
    return nullspace(rows, a.dim * a.dim, backend)


def inner_space(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Image of F -> (i,j) |-> F(e_i e_j - e_j e_i), one row per dual basis F."""
    n = a.dim
    rows = [{} for _ in range(n)]
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            for k, c in terms:
                row = rows[k]
                row[i * n + j] = row.get(i * n + j, ZERO) + c
                row[j * n + i] = row.get(j * n + i, ZERO) - c
    return rowspace(rows, n * n, backend)


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
    the intersection of Z with the antisymmetric matrices.
    """
    if z.dim == 0:
        return z
    n = a.dim
    eqs = [[row[ij] + row[ji] for row in z.rows] for ij, ji in _symmetric_pairs(n)]
    coeffs = nullspace(eqs, z.dim, z.backend)
    if z.backend == FLOAT:
        combos = np.asarray(coeffs.rows) @ np.asarray(z.rows)
    else:
        columns = list(zip(*z.rows))
        combos = [matvec_exact(columns, c) for c in coeffs.rows]
    return rowspace(combos, n * n, z.backend)


def t_operator_rank(z: Subspace, zc: Subspace) -> int:
    """Rank of the cyclic-defect operator: dim Z minus dim Zc."""
    if not subspace_leq(zc, z):
        raise AssertionError("internal invariant violated: cyclic space not inside Z")
    return z.dim - zc.dim


def rank_one_dual_map(f1, f2, backend=EXACT):
    """Dual map pairing a against b as F1(a) * F2(b)."""
    if len(f1) != len(f2):
        raise ValueError(f"length mismatch: {len(f1)} vs {len(f2)}")
    lane = LANES[backend]
    return lane.matrix([[lane.coerce(x) * lane.coerce(y) for y in f2] for x in f1])


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
