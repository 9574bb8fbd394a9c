"""Field-generic linear algebra on two scalar backends.

Everything downstream reduces to row-reduced echelon forms, kernels, and a
small lattice of subspaces of coordinate space.  This module is the one
place that knows the two backends, or lanes:

* ``exact``  - matrices are tuples of tuples of :class:`~amenalyzer.scalars.QQi`
  (complex numbers with rational parts); arithmetic never rounds, so RREF is
  a syntactically canonical form and subspace equality is entry equality.
  :func:`rref_exact` eliminates on the nonzero entries of each row and drops
  zero and duplicate rows itself, dense rows in and out.  Inside,
  it works fraction-free on Gaussian integers (re, im), each row over one
  positive integer, and converts back to ``QQi`` only at the end.
* ``float``  - matrices are numpy complex128 arrays; rank decisions use the
  one fixed tolerance :data:`DEFAULT_TOL` (``1e-9``), relative to the
  largest row norm.
  :func:`rref_float` eliminates a writeable float64 or complex128 system
  in the buffer it was built in, so each float system is held once.  The
  derivation system of a real structure tensor is built in float64
  (:func:`real_if_real` makes that choice), half the bytes of complex128,
  and eliminated to the same bits; every row a float ``Subspace`` holds is
  complex128 either way.

Each lane is an ops object in :data:`LANES` holding its zero and one, scalar
coercion, a zero test (``QQi.is_zero()`` exact, ``abs(x) <= bound`` float),
its vector and matrix containers and its elimination.  :func:`nullspace`,
:func:`rowspace` and :meth:`Subspace.contains` take ``QQi`` input on either
backend, or complex input on the float one, and convert it once, at this
door, to the lane of their backend; every algorithm above them is written
once.  The system builders hand the first two each row as a {column: value}
dict of its nonzeros.  The exact lane expands one dict at a time, as
:func:`rref_exact` reaches it, so no exact system is ever dense in full;
the float lane writes the values into one preallocated array.

Subspaces are always stored by their RREF basis, one row per basis vector.
"""

from __future__ import annotations

import errno
import math
import mmap
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import _kernels
from .scalars import ONE, ZERO, QQi, gaussian_integers

DEFAULT_TOL = 1e-9  # the float lane's one tolerance; every float zero test reads it
_SCALE_BLOCK = 1 << 13  # entries of a row block in matrix_scale: 64 KiB of float64
_OWN_PAGES = 1 << 20  # bytes from which system_zeros maps a system on pages of its own

EXACT = "exact"
FLOAT = "float"


class AmbientMismatch(ValueError):
    """Raised when subspace operands live in different coordinate spaces."""


def _primitive(n, row):
    """(n, row) divided by the gcd of n and every part of the {column: (re,
    im)} Gaussian integers of row; n = 0 leaves n out of the gcd."""
    g = math.gcd(n, *chain.from_iterable(row.values()))
    if g > 1:
        return n // g, {c: (a // g, b // g) for c, (a, b) in row.items()}
    return n, row


def _eliminate(n, row, f, tail):
    """n * row - f * tail, on {column: (re, im)} dicts of nonzero Gaussian
    integers; n is a positive integer and f = (re, im).  When n is 1, row
    itself is updated and returned."""
    fr, fi = f
    out = row if n == 1 else {c: (n * a, n * b) for c, (a, b) in row.items()}
    for c, (a, b) in tail.items():
        dr = fr * a - fi * b
        di = fr * b + fi * a
        x = out.get(c)
        if x is None:
            out[c] = (-dr, -di)
            continue
        dr = x[0] - dr
        di = x[1] - di
        if dr or di:
            out[c] = (dr, di)
        else:
            del out[c]
    return out


def rref_exact(rows):
    """Exact reduced row echelon form, computed fraction-free over Z[i].

    ``rows`` is any iterable of equal-length ``QQi`` sequences.  Each row is
    read into a {column: value} dict of its nonzeros; zero rows and exact
    duplicates of an earlier row are dropped.  A kept row is cleared of
    denominators and becomes a dict of Gaussian integers (re, im), divided
    by its integer content.  It is reduced by the pivot row of its leading
    column until it vanishes or leads in a new column.  There it is
    multiplied by the conjugate of its leading entry and becomes that
    column's pivot row (N, tail): N is a positive integer, and the row is
    (N at the pivot, tail) / N.  A row with leading entry f is reduced as
    N * row - f * tail, and back-substitution over the pivot columns, last
    to first, does the same in every row above, each result again divided
    by its content.  Only the output is converted back to ``QQi``.

    Returns (tuple of nonzero RREF rows, tuple of pivot columns), the rows
    as dense tuples in pivot order.  The RREF of a row space is unique, so
    the output is canonical whatever the row order or elimination order.
    """
    ncols = 0
    seen = set()
    # pivot column -> (N, the other nonzeros of its row), the row over N
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
        _, ints = gaussian_integers(sparse.values())
        _, vec = _primitive(0, dict(zip(sparse, ints)))
        while vec:
            lead = min(vec)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                # times the conjugate (pr - pi i) of the pivot, which becomes pr^2 + pi^2
                pr, pi = vec.pop(lead)
                vec = {c: (a * pr + b * pi, b * pr - a * pi) for c, (a, b) in vec.items()}
                pivot_rows[lead] = _primitive(pr * pr + pi * pi, vec)
                break
            n, tail = pivot
            _, vec = _primitive(0, _eliminate(n, vec, vec.pop(lead), tail))
    pivots = sorted(pivot_rows)
    for k in range(len(pivots) - 1, 0, -1):
        p = pivots[k]
        n, tail = pivot_rows[p]
        for q in pivots[:k]:
            m, upper = pivot_rows[q]
            f = upper.pop(p, None)
            if f is not None:
                pivot_rows[q] = _primitive(n * m, _eliminate(n, upper, f, tail))
    out = []
    for p in pivots:
        n, tail = pivot_rows[p]
        dense = [ZERO] * ncols
        dense[p] = ONE
        for c, (a, b) in tail.items():
            dense[c] = QQi(Fraction(a, n), Fraction(b, n))
        out.append(tuple(dense))
    return tuple(out), tuple(pivots)


def rref_float(arr):
    """Float RREF with partial pivoting; see :mod:`amenalyzer._kernels`.

    Returns (2-d complex128 array of nonzero rows, tuple of pivot columns).
    The pivot threshold is :data:`DEFAULT_TOL` times the largest row norm
    of the input.

    A writeable, C-contiguous, 2-d float64 or complex128 array is
    eliminated in place, in its own dtype, so a system is held once:
    afterwards it holds the RREF rows.  For complex128 the rows returned
    are a view of it; for float64 they are a complex128 copy of its first
    rank rows, with the same bits the complex128 elimination of the same
    matrix gives.  Any other input (a read-only array, another dtype, a
    list) is first copied into :func:`system_zeros` and left as it is.
    """
    a = np.asarray(arr)
    if a.dtype != np.float64:
        a = np.asarray(arr, dtype=np.complex128)
    if a.ndim != 2:
        a = a.reshape(len(a), -1) if a.size else a.reshape(0, 0)
    # asarray and reshape hand back arr itself only for a 2-d float64 or complex128 array
    if a is not arr or not (a.flags.c_contiguous and a.flags.writeable):
        src = a
        a = system_zeros(src.shape, src.dtype)
        a[...] = src
    tol_abs = DEFAULT_TOL * matrix_scale(a)
    rank, pivots = _kernels.rref_inplace(a, tol_abs)
    out = a[:rank]
    out[np.abs(out) <= tol_abs] = 0.0
    # the kernel may leave -0.0 parts; adding +0.0 makes every zero positive
    out += 0.0
    return np.asarray(out, dtype=np.complex128), pivots


def real_if_real(values) -> np.ndarray:
    """``values`` as a float64 array when every imaginary part is 0.0, else
    as complex128.  This is where the float lane picks the dtype of a system
    built from a structure tensor: a real tensor's system is held and
    eliminated in float64, in half the bytes, and :func:`rref_float` returns
    the same bits for it as for the complex128 system."""
    a = np.asarray(values, dtype=np.complex128)
    return a if a.imag.any() else a.real


def matrix_scale(arr) -> float:
    """Largest Euclidean row norm, floored at 1 so tolerances stay sane.
    Taken a block of rows at a time, in the array's own dtype, so no copy of
    a system is made.  A squared row norm that overflows raises
    ``OverflowError``: an infinite scale would make every pivot threshold
    infinite and the rank 0."""
    a = np.asarray(arr)
    if a.size == 0:
        return 1.0
    step = max(1, _SCALE_BLOCK // a.shape[1])
    with np.errstate(over="ignore"):
        top = max((np.abs(a[i : i + step]) ** 2).sum(axis=1).max() for i in range(0, len(a), step))
    if not np.isfinite(top):
        raise OverflowError(f"a float system's squared row norm is {top}; the float lane cannot rank it")
    return max(1.0, float(np.sqrt(top)))


def system_zeros(shape, dtype) -> np.ndarray:
    """A zero array of ``dtype`` (float64 or complex128) for a float system.
    On Linux one of 1 MiB or more is mapped on private pages of its own,
    which go back to the system when it is freed: a freed heap block leaves
    a hole that later small blocks split, and peak memory then depends on
    when they came.  The pages are marked for huge pages, as numpy marks its
    own large arrays.  A map the system refuses raises an ``OSError``
    (``ENOMEM``) that names the shape and size of the system."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < _OWN_PAGES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.zeros(shape, dtype=dtype)
    try:
        pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise OSError(
            errno.ENOMEM,
            f"cannot allocate a {nbytes / 1e9:.3g} GB float system of shape {tuple(shape)}",
        ) from None
    pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=dtype).reshape(shape)


# ---------------------------------------------------------------------------
# the two lanes


def _dense_rows(rows, ncols):
    """The rows as dense sequences, each dict row expanded when it is reached."""
    for row in rows:
        if isinstance(row, dict):
            dense = [ZERO] * ncols
            for c, x in row.items():
                dense[c] = x
            row = dense
        yield row


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
        return [a if b.is_zero() else a - coef * b for a, b in zip(v, row)]

    @staticmethod
    def rows_equal(r1, r2, bound) -> bool:
        return r1 == r2

    @staticmethod
    def rref(rows, ncols):
        return rref_exact(_dense_rows(rows, ncols))


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
    def rref(rows, ncols):
        # an array, such as the broadcast derivation system, is on the lane;
        # rref_float reduces it, or the array filled here, in place
        arr = rows
        if not isinstance(rows, np.ndarray):
            arr = system_zeros((len(rows), ncols), np.complex128)
            for r, row in enumerate(rows):
                if isinstance(row, dict):
                    for c, x in row.items():
                        arr[r, c] = complex(x)
                else:
                    arr[r] = row
        arr = arr.reshape(-1, ncols) if arr.size else np.zeros((0, ncols), dtype=np.complex128)
        basis, pivots = rref_float(arr)
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
        return LANES[self.backend].rows_equal(self.rows, other.rows, DEFAULT_TOL)

    def __hash__(self):
        return hash((self.ambient, self.backend, self.dim))

    def reduce(self, vec):
        """Reduce a vector against the RREF basis: (coefficients, remainder).

        One coefficient per basis row, read at its pivot as the rows are
        subtracted in order, so vec = sum(coef * row) + remainder and the
        remainder vanishes on every pivot column.
        """
        lane = LANES[self.backend]
        v = lane.vector(vec)
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            coef = v[p]
            coeffs.append(coef)
            if not lane.is_zero(coef):
                v = lane.sub_multiple(v, coef, row)
        return coeffs, v

    def contains(self, vec) -> bool:
        """Membership test: the remainder of the reduction is zero."""
        lane = LANES[self.backend]
        v = lane.vector(vec)
        _, rest = self.reduce(v)
        bound = DEFAULT_TOL * lane.scale(v)
        return all(lane.is_zero(x, bound) for x in rest)

    def basis_vectors(self):
        return list(self.rows)


def rowspace(rows, ncols, backend=EXACT) -> Subspace:
    """Canonicalize a spanning set of row vectors into a Subspace; on the
    float backend a writeable complex128 array of rows is reduced in place,
    as in :func:`nullspace`."""
    basis, pivots = LANES[backend].rref(rows, ncols)
    return Subspace(ncols, basis, pivots, backend)


def trivial_space(ambient, backend=EXACT) -> Subspace:
    return rowspace([], ambient, backend)


def full_space(ambient, backend=EXACT) -> Subspace:
    return nullspace([], ambient, backend)


def nullspace(rows, ncols, backend=EXACT) -> Subspace:
    """Kernel {v : rows . v = 0} as a canonical Subspace of dimension ncols.

    On the float backend a writeable complex128 array of rows is eliminated
    in place (see :func:`rref_float`); its row space, and so the kernel, is
    unchanged, but its entries are not.
    """
    lane = LANES[backend]
    red, pivots = lane.rref(rows, ncols)
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
    return rowspace(basis, ncols, backend)


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    if a.backend != b.backend:
        raise AmbientMismatch(f"backend {a.backend} vs {b.backend}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return rowspace(list(a.rows) + list(b.rows), a.ambient, a.backend)


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on the subspace, via the kernel of its basis."""
    return nullspace(s.rows, s.ambient, s.backend)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator systems."""
    _check_compatible(a, b)
    stacked = list(annihilator(a).rows) + list(annihilator(b).rows)
    return nullspace(stacked, a.ambient, a.backend)


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
