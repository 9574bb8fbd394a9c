"""Field-generic linear algebra on two scalar backends.

Everything downstream reduces to row-reduced echelon forms, kernels, and a
small lattice of subspaces of coordinate space.  This module is the one
place that knows the two backends, or lanes:

* ``exact``  - matrices are tuples of tuples of :class:`~amenalyzer.scalars.QQi`
  (complex numbers with rational parts); arithmetic never rounds, so RREF is
  a syntactically canonical form and subspace equality is entry equality.
  :func:`rref_exact` eliminates on the nonzero entries of each row and drops
  zero and duplicate rows itself; rows go in and come out dense.
* ``float``  - matrices are numpy complex128 arrays; rank decisions use a
  tolerance relative to the largest row norm (default ``1e-9``).

Each lane is an ops object in :data:`LANES` holding its zero and one, scalar
coercion, a zero test (``QQi.is_zero()`` exact, ``abs(x) <= bound`` float),
its vector and matrix containers and its elimination.  :func:`nullspace`,
:func:`rowspace`, :func:`subspace_from_rows` and :meth:`Subspace.contains`
take ``QQi`` input on either backend, or complex input on the float one, and
convert it once, at this door, to the lane of their backend; every
algorithm above them is written once.

Subspaces are always stored by their RREF basis, one row per basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .scalars import ONE, ZERO

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


# ---------------------------------------------------------------------------
# the two lanes


class _ExactLane:
    """Exact arithmetic over Q(i): entries are QQi and zero means zero."""

    backend = EXACT
    exact = True
    zero = ZERO
    one = ONE

    @staticmethod
    def coerce(x):
        return x

    @staticmethod
    def is_zero(x, bound=0.0) -> bool:
        return x.is_zero()

    @staticmethod
    def scale(values) -> float:
        return 1.0

    @staticmethod
    def vector(values):
        return list(values)

    @staticmethod
    def matrix(rows):
        return tuple(tuple(r) for r in rows)

    @staticmethod
    def dot(u, v):
        acc = ZERO
        for x, y in zip(u, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        return acc

    @staticmethod
    def sub_multiple(v, coef, row):
        return [a - coef * b for a, b in zip(v, row)]

    @staticmethod
    def rows_equal(r1, r2, bound) -> bool:
        return r1 == r2

    @staticmethod
    def rref(rows, ncols, tol):
        return rref_exact(rows)


class _FloatLane:
    """complex128 arithmetic: a value is zero when its modulus is within a bound."""

    backend = FLOAT
    exact = False
    zero = 0j
    one = 1 + 0j
    coerce = complex

    @staticmethod
    def is_zero(x, bound=0.0) -> bool:
        return bool(abs(x) <= bound)

    @staticmethod
    def scale(values) -> float:
        """Largest modulus of the entries, floored at 1."""
        a = np.asarray(values, dtype=np.complex128)
        return max(1.0, float(np.abs(a).max())) if a.size else 1.0

    @staticmethod
    def vector(values):
        return np.array(values, dtype=np.complex128)

    matrix = vector

    @staticmethod
    def dot(u, v):
        return complex(np.dot(np.asarray(u, dtype=np.complex128), np.asarray(v, dtype=np.complex128)))

    @staticmethod
    def sub_multiple(v, coef, row):
        return v - coef * row

    @staticmethod
    def rows_equal(r1, r2, bound) -> bool:
        diff = np.abs(np.asarray(r1) - np.asarray(r2))
        return bool(diff.max() <= bound) if diff.size else True

    @staticmethod
    def rref(rows, ncols, tol):
        arr = np.asarray(rows, dtype=np.complex128)
        arr = arr.reshape(-1, ncols) if arr.size else np.zeros((0, ncols), dtype=np.complex128)
        basis, pivots = rref_float(arr, tol)
        basis.setflags(write=False)
        return basis, pivots


LANES = {EXACT: _ExactLane, FLOAT: _FloatLane}


def lane_of(*parts):
    """The lane of a computation on ``parts``: backend names, vectors or matrices.

    Float when any part is ``FLOAT`` or a numpy array, so exact arithmetic
    runs only on exact data; exact otherwise.
    """
    if any(isinstance(p, np.ndarray) or p == FLOAT for p in parts):
        return _FloatLane
    return _ExactLane


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
        return LANES[self.backend].rows_equal(self.rows, other.rows, max(self.tol, other.tol))

    def __hash__(self):
        return hash((self.ambient, self.backend, self.dim))

    def contains(self, vec) -> bool:
        """Membership test by reduction against the RREF basis."""
        lane = LANES[self.backend]
        v = lane.vector(vec)
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        bound = self.tol * lane.scale(v)
        for row, p in zip(self.rows, self.pivots):
            coef = v[p]
            if not lane.is_zero(coef):
                v = lane.sub_multiple(v, coef, row)
        return all(lane.is_zero(x, bound) for x in v)

    def basis_vectors(self):
        return list(self.rows)


def subspace_from_rows(rows, ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Canonicalize a spanning set of row vectors into a Subspace."""
    basis, pivots = LANES[backend].rref(rows, ambient, tol)
    return Subspace(ambient, basis, pivots, backend, tol)


def trivial_space(ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    return subspace_from_rows([], ambient, backend, tol)


def full_space(ambient, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    return nullspace([], ambient, backend, tol)


def nullspace(rows, ncols, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Kernel {v : rows . v = 0} as a canonical Subspace of dimension ncols."""
    lane = LANES[backend]
    red, pivots = lane.rref(rows, ncols, tol)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [lane.zero] * ncols
        v[f] = lane.one
        for row, p in zip(red, pivots):
            coef = row[f]
            if not lane.is_zero(coef):
                v[p] = -coef
        basis.append(v)
    return subspace_from_rows(basis, ncols, backend, tol)


def rowspace(rows, ncols, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    return subspace_from_rows(rows, ncols, backend, tol)


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    if a.backend != b.backend:
        raise AmbientMismatch(f"backend {a.backend} vs {b.backend}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return subspace_from_rows(list(a.rows) + list(b.rows), a.ambient, a.backend, a.tol)


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on the subspace, via the kernel of its basis."""
    return nullspace(s.rows, s.ambient, s.backend, s.tol)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator systems."""
    _check_compatible(a, b)
    stacked = list(annihilator(a).rows) + list(annihilator(b).rows)
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
    return [_ExactLane.dot(row, v) for row in rows]
