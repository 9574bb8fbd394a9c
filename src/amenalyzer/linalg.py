"""Field-generic linear algebra on two scalar backends.

Everything downstream reduces to row-reduced echelon forms, kernels, and a
small lattice of subspaces of coordinate space.  Two backends are supported:

* ``exact``  - matrices are tuples of tuples of :class:`~amenalyzer.scalars.QQi`
  (complex numbers with rational parts); arithmetic never rounds, so RREF is
  a syntactically canonical form and subspace equality is entry equality.
  :func:`rref_exact` eliminates on the nonzero entries of each row and drops
  zero and duplicate rows itself; rows go in and come out dense.
* ``float``  - matrices are numpy complex128 arrays; rank decisions use a
  tolerance relative to the largest row norm (default ``1e-9``).

Subspaces are always stored by their RREF basis, one row per basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .scalars import ONE, ZERO, QQi

DEFAULT_TOL = 1e-9

EXACT = "exact"
FLOAT = "float"


class AmbientMismatch(ValueError):
    """Raised when subspace operands live in different coordinate spaces."""


def _subtract_multiple(row, f, other):
    """row -= f * other, in place, on {column: QQi} dicts of nonzeros."""
    for c, v in other.items():
        x = row.get(c)
        if x is None:
            row[c] = -(f * v)
            continue
        x = x - f * v
        if x:
            row[c] = x
        else:
            del row[c]


def rref_exact(rows):
    """Exact reduced row echelon form, computed on the nonzero entries.

    ``rows`` is any iterable of equal-length ``QQi`` sequences.  Each row is
    read into a {column: value} dict of its nonzeros; zero rows and exact
    duplicates of an earlier row are dropped.  A kept row is reduced by the
    pivot row of its leading column until it vanishes or leads in a new
    column, where it becomes that column's pivot row, scaled to pivot 1.
    Back-substitution over the pivot columns, last to first, then clears
    every pivot column outside its own row.

    Returns (tuple of nonzero RREF rows, tuple of pivot columns), the rows
    as dense tuples in pivot order.  The RREF of a row space is unique, so
    the output is canonical whatever the row order or elimination order.
    """
    ncols = 0
    seen = set()
    # pivot column -> the other nonzeros of its row; the pivot itself is 1
    pivot_rows = {}
    for row in rows:
        ncols = len(row)
        # assembled rows share the ZERO object, so test identity first
        sparse = {c: x for c, x in enumerate(row) if x is not ZERO and x}
        if not sparse:
            continue
        key = tuple(sparse.items())
        if key in seen:
            continue
        seen.add(key)
        while sparse:
            lead = min(sparse)
            tail = pivot_rows.get(lead)
            if tail is None:
                piv = sparse.pop(lead)
                if piv != ONE:
                    inv = piv.inverse()
                    sparse = {c: x * inv for c, x in sparse.items()}
                pivot_rows[lead] = sparse
                break
            _subtract_multiple(sparse, sparse.pop(lead), tail)
    pivots = sorted(pivot_rows)
    for k in range(len(pivots) - 1, 0, -1):
        p = pivots[k]
        tail = pivot_rows[p]
        for q in pivots[:k]:
            upper = pivot_rows[q]
            f = upper.pop(p, None)
            if f is not None:
                _subtract_multiple(upper, f, tail)
    out = []
    for p in pivots:
        dense = [ZERO] * ncols
        dense[p] = ONE
        for c, x in pivot_rows[p].items():
            dense[c] = x
        out.append(tuple(dense))
    return tuple(out), tuple(pivots)


def rref_float(arr, tol=DEFAULT_TOL):
    """Float RREF with partial pivoting; see :mod:`amenalyzer._kernels`.

    Returns (2-d array of nonzero rows, tuple of pivot columns).  The pivot
    threshold is ``tol`` times the largest row norm of the input.
    """
    a = np.array(arr, dtype=np.complex128, copy=True)
    if a.ndim != 2:
        a = a.reshape(len(a), -1) if a.size else a.reshape(0, 0)
    tol_abs = tol * matrix_scale(a)
    rank, pivots = _kernels.rref_inplace(a, tol_abs)
    out = a[:rank]
    out[np.abs(out) <= tol_abs] = 0.0
    return out, pivots


def matrix_scale(arr) -> float:
    """Largest Euclidean row norm, floored at 1 so tolerances stay sane."""
    a = np.asarray(arr, dtype=np.complex128)
    if a.size == 0:
        return 1.0
    return max(1.0, float(np.sqrt((np.abs(a) ** 2).sum(axis=1)).max()))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of coordinate space in canonical RREF form."""

    ambient: int
    rows: tuple | np.ndarray
    pivots: tuple
    backend: str
    tol: float = field(default=DEFAULT_TOL, compare=False)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.ambient, self.backend, self.dim) != (
            other.ambient,
            other.backend,
            other.dim,
        ):
            return False
        if self.backend == EXACT:
            return self.rows == other.rows
        if self.dim == 0:
            return True
        return bool(
            np.max(np.abs(np.asarray(self.rows) - np.asarray(other.rows)))
            <= max(self.tol, other.tol)
        )

    def __hash__(self):
        if self.backend == EXACT:
            return hash((self.ambient, self.rows))
        return hash((self.ambient, self.dim, self.backend))

    def contains(self, vec) -> bool:
        """Membership test by reduction against the RREF basis."""
        if self.backend == EXACT:
            v = list(vec)
            if len(v) != self.ambient:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient {self.ambient}"
                )
            for row, p in zip(self.rows, self.pivots):
                coef = v[p]
                if coef.is_zero():
                    continue
                v = [a - coef * b for a, b in zip(v, row)]
            return all(x.is_zero() for x in v)
        v = np.array(vec, dtype=np.complex128)
        if v.shape != (self.ambient,):
            raise AmbientMismatch(
                f"vector of shape {v.shape} in ambient {self.ambient}"
            )
        scale = max(1.0, float(np.abs(v).max())) if v.size else 1.0
        for row, p in zip(np.asarray(self.rows), self.pivots):
            coef = v[p]
            if coef != 0:
                v = v - coef * row
        return bool(np.abs(v).max() <= self.tol * scale) if v.size else True

    def basis_vectors(self):
        if self.backend == EXACT:
            return list(self.rows)
        return [np.asarray(r) for r in np.asarray(self.rows)]


def subspace_from_rows(rows, ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Canonicalize a spanning set of row vectors into a Subspace."""
    if backend == EXACT:
        basis, pivots = rref_exact(rows)
        return Subspace(ambient, basis, pivots, EXACT, tol)
    arr = np.array(rows, dtype=np.complex128).reshape(-1, ambient) if len(rows) else np.zeros((0, ambient), dtype=np.complex128)
    basis, pivots = rref_float(arr, tol)
    basis.setflags(write=False)
    return Subspace(ambient, basis, pivots, FLOAT, tol)


def trivial_space(ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    if backend == EXACT:
        return Subspace(ambient, (), (), EXACT, tol)
    empty = np.zeros((0, ambient), dtype=np.complex128)
    empty.setflags(write=False)
    return Subspace(ambient, empty, (), FLOAT, tol)


def full_space(ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    if backend == EXACT:
        rows = tuple(
            tuple(ONE if i == j else ZERO for j in range(ambient))
            for i in range(ambient)
        )
        return Subspace(ambient, rows, tuple(range(ambient)), EXACT, tol)
    eye = np.eye(ambient, dtype=np.complex128)
    eye.setflags(write=False)
    return Subspace(ambient, eye, tuple(range(ambient)), FLOAT, tol)


def nullspace(rows, ncols, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Kernel {v : rows . v = 0} as a canonical Subspace of dimension ncols."""
    if backend == EXACT:
        red, pivots = rref_exact(rows)
        pivset = set(pivots)
        basis = []
        for f in range(ncols):
            if f in pivset:
                continue
            v = [ZERO] * ncols
            v[f] = ONE
            for idx, p in enumerate(pivots):
                coef = red[idx][f]
                if not coef.is_zero():
                    v[p] = -coef
            basis.append(v)
        return subspace_from_rows(basis, ncols, EXACT, tol)
    arr = np.asarray(rows, dtype=np.complex128).reshape(-1, ncols) if len(rows) else np.zeros((0, ncols), dtype=np.complex128)
    if arr.shape[0] == 0:
        return full_space(ncols, FLOAT, tol)
    red, pivots = rref_float(arr, tol)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = np.zeros(ncols, dtype=np.complex128)
        v[f] = 1.0
        for idx, p in enumerate(pivots):
            v[p] = -red[idx, f]
        basis.append(v)
    return subspace_from_rows(basis, ncols, FLOAT, tol)


def rowspace(rows, ncols, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    return subspace_from_rows(rows, ncols, backend, tol)


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    if a.backend != b.backend:
        raise AmbientMismatch(f"backend {a.backend} vs {b.backend}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    if a.backend == EXACT:
        return subspace_from_rows(list(a.rows) + list(b.rows), a.ambient, EXACT, a.tol)
    stacked = np.vstack([np.asarray(a.rows), np.asarray(b.rows)])
    return subspace_from_rows(stacked, a.ambient, FLOAT, a.tol)


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on the subspace, via the kernel of its basis."""
    return nullspace(s.rows, s.ambient, s.backend, s.tol)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator systems."""
    _check_compatible(a, b)
    fa = annihilator(a)
    fb = annihilator(b)
    if a.backend == EXACT:
        stacked = list(fa.rows) + list(fb.rows)
    else:
        stacked = np.vstack([np.asarray(fa.rows), np.asarray(fb.rows)])
    return nullspace(stacked, a.ambient, a.backend, a.tol)


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    """True when every basis vector of ``a`` lies in ``b``."""
    _check_compatible(a, b)
    return all(b.contains(v) for v in a.basis_vectors())


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Dimension equality plus mutual containment (never dimension alone)."""
    return a.dim == b.dim and subspace_leq(a, b) and subspace_leq(b, a)


def solve_exact(rows, rhs):
    """One exact solution of ``rows . x = rhs`` or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = rref_exact(aug)
    for row, p in zip(red, pivots):
        if p == n:
            return None
    x = [ZERO] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return x


def matvec_exact(rows, v):
    out = []
    for row in rows:
        acc = ZERO
        for a, b in zip(row, v):
            if not (a.is_zero() or b.is_zero()):
                acc = acc + a * b
        out.append(acc)
    return out


def to_complex_matrix(rows) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in rows], dtype=np.complex128)


def to_complex_vector(v) -> np.ndarray:
    return np.array([complex(x) for x in v], dtype=np.complex128)
