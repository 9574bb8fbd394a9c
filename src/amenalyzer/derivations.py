"""Derivations into the dual module and the three derivation-based flags.

A linear map D from the algebra into its dual is stored as the n-by-n
matrix M with M[i][j] the pairing of D(e_i) against e_j.  Matrices are
flattened row-major into coordinate vectors of length n*n, so spaces of
dual maps are ordinary subspaces and the lattice operations apply.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    rowspace,
    subspace_leq,
    subspace_equal,
)
from .scalars import ONE, ZERO


def flatten_map(m, n):
    """Row-major flattening of an n-by-n dual-map matrix."""
    return lane_of(m).vector([m[i][j] for i in range(n) for j in range(n)])


def unflatten_map(v, n):
    return lane_of(v).matrix([v[i * n:(i + 1) * n] for i in range(n)])


def _assemble_derivation_rows(a: FiniteAlgebra):
    """One linear constraint per basis triple (i, j, l).

    The derivation identity evaluated at basis vectors reads: the pairing
    of D(e_i e_j) against e_l equals the pairing of D(e_i) against e_j e_l
    plus the pairing of D(e_j) against e_l e_i.
    """
    n = a.dim
    nn = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            cij = a.sc[i][j]
            for l in range(n):
                row = [ZERO] * nn
                for k in range(n):
                    c = cij[k]
                    if not c.is_zero():
                        row[k * n + l] = row[k * n + l] + c
                cjl = a.sc[j][l]
                for m in range(n):
                    c = cjl[m]
                    if not c.is_zero():
                        row[i * n + m] = row[i * n + m] - c
                cli = a.sc[l][i]
                for m in range(n):
                    c = cli[m]
                    if not c.is_zero():
                        row[j * n + m] = row[j * n + m] - c
                rows.append(row)
    return rows


def _complex_tensor(a: FiniteAlgebra) -> np.ndarray:
    """The structure tensor as an (n, n, n) complex128 array, n^3 conversions."""
    return np.array(a.sc, dtype=np.complex128)


def _broadcast_derivation_rows(sc: np.ndarray) -> np.ndarray:
    """The same constraints as a complex128 array, rows and columns in the
    same order: C[(i,j,l),(p,q)] = sc[i,j,p] d_lq - d_ip sc[j,l,q] - d_jp sc[l,i,q].

    Each Kronecker delta selects a diagonal slice of the five-index array,
    into which the (n, n, n) tensor is broadcast whole.
    """
    n = sc.shape[0]
    c = np.zeros((n, n, n, n, n), dtype=np.complex128)
    sc_lis = sc.transpose(1, 0, 2)
    for t in range(n):
        c[:, :, t, :, t] += sc
        c[t, :, :, t, :] -= sc
        c[:, t, :, t, :] -= sc_lis
    return c.reshape(n**3, n * n)


def _derivation_rows(a: FiniteAlgebra, backend=EXACT):
    """The n^3-by-n^2 derivation system: QQi rows, or one complex128 array."""
    if backend == FLOAT:
        return _broadcast_derivation_rows(_complex_tensor(a))
    return _assemble_derivation_rows(a)


def derivation_space(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Kernel of the derivation constraint system, inside C^(n*n)."""
    return nullspace(_derivation_rows(a, backend), a.dim * a.dim, backend, tol)


def inner_space(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Image of F -> (i,j) |-> F(e_i e_j - e_j e_i), one row per dual basis F."""
    n = a.dim
    rows = []
    for k in range(n):
        row = []
        for i in range(n):
            for j in range(n):
                row.append(a.sc[i][j][k] - a.sc[j][i][k])
        rows.append(row)
    return rowspace(rows, n * n, backend, tol)


def _symmetric_pairs(n):
    """Flat positions (i*n+j, j*n+i) of the entry pairs with i <= j."""
    return [(i * n + j, j * n + i) for i in range(n) for j in range(i, n)]


def antisymmetric_space(n, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Matrices with M[i][j] + M[j][i] = 0, as a subspace of C^(n*n)."""
    nn = n * n
    rows = []
    for ij, ji in _symmetric_pairs(n):
        row = [ZERO] * nn
        row[ij] = row[ij] + ONE
        row[ji] = row[ji] + ONE
        rows.append(row)
    return nullspace(rows, nn, backend, tol)


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
    coeffs = nullspace(eqs, z.dim, z.backend, z.tol)
    if z.backend == FLOAT:
        combos = np.asarray(coeffs.rows) @ np.asarray(z.rows)
    else:
        columns = list(zip(*z.rows))
        combos = [matvec_exact(columns, c) for c in coeffs.rows]
    return rowspace(combos, n * n, z.backend, z.tol)


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


def vanishes_on_diameter(m, tol=DEFAULT_TOL) -> bool:
    """Whether the pairing of D(a) against a vanishes for every a.

    Decided by evaluating the quadratic form on the spanning family of
    basis vectors and pairwise sums, which is an independent route from
    the antisymmetry test.
    """
    lane = lane_of(m)
    bound = tol * lane.scale(m)
    n = len(m)
    for i in range(n):
        if not lane.is_zero(m[i][i], bound):
            return False
        for j in range(i + 1, n):
            if not lane.is_zero(m[i][i] + m[j][j] + m[i][j] + m[j][i], bound):
                return False
    return True


def is_cyclic(m, tol=DEFAULT_TOL) -> bool:
    """Antisymmetry of the coordinate matrix."""
    lane = lane_of(m)
    bound = tol * lane.scale(m)
    n = len(m)
    return all(
        lane.is_zero(m[i][j] + m[j][i], bound) for i in range(n) for j in range(i, n)
    )


def pairing_with_unit_vanishes(a: FiniteAlgebra, m, tol=DEFAULT_TOL) -> bool:
    """Whether D(a) pairs to zero against the unit, for all a."""
    ok, u = is_unital(a)
    if not ok:
        raise ValueError(f"{a.name} is not unital")
    lane = lane_of(m)
    bound = tol * lane.scale(m)
    u = lane.vector(u)
    return all(lane.is_zero(lane.dot(row, u), bound) for row in m)


def is_derivation(a: FiniteAlgebra, m, z: Subspace | None = None) -> bool:
    if z is None:
        z = derivation_space(a, lane_of(m).backend)
    return z.contains(flatten_map(m, a.dim))


def is_inner(a: FiniteAlgebra, m, inn: Subspace | None = None) -> bool:
    if inn is None:
        inn = inner_space(a, lane_of(m).backend)
    return inn.contains(flatten_map(m, a.dim))


@dataclass(frozen=True)
class DerivationAnalysis:
    """Derivation-side classification of one algebra."""

    algebra: FiniteAlgebra
    z: Subspace
    inner: Subspace
    zc: Subspace
    t_rank: int
    weakly_amenable: bool
    cyclically_amenable: bool
    cyclically_weakly_amenable: bool
    witnesses: dict

    @property
    def dims(self):
        return {"Z": self.z.dim, "Inn": self.inner.dim, "Zc": self.zc.dim}


def _first_outside(larger: Subspace, smaller: Subspace):
    for v in larger.basis_vectors():
        if not smaller.contains(v):
            return v
    return None


def classify_derivations(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> DerivationAnalysis:
    """Compute Z, Inn, Zc and the three flags, with witnesses for failures.

    A witness is the first RREF basis vector of the larger space that
    fails membership in the smaller, unflattened to a dual-map matrix.
    """
    z = derivation_space(a, backend, tol)
    inn = inner_space(a, backend, tol)
    zc = cyclic_subspace(a, z)
    n = a.dim
    wa = subspace_equal(z, inn)
    ca = subspace_equal(zc, inn)
    cwa = subspace_equal(z, zc)
    witnesses = {}
    if not wa:
        w = _first_outside(z, inn)
        if w is not None:
            witnesses["weakly_amenable"] = unflatten_map(w, n)
    if not ca:
        w = _first_outside(zc, inn)
        if w is not None:
            witnesses["cyclically_amenable"] = unflatten_map(w, n)
    if not cwa:
        w = _first_outside(z, zc)
        if w is not None:
            witnesses["cyclically_weakly_amenable"] = unflatten_map(w, n)
    return DerivationAnalysis(
        algebra=a,
        z=z,
        inner=inn,
        zc=zc,
        t_rank=t_operator_rank(z, zc),
        weakly_amenable=wa,
        cyclically_amenable=ca,
        cyclically_weakly_amenable=cwa,
        witnesses=witnesses,
    )
