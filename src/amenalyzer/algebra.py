"""Structure-constant model of a finite-dimensional associative algebra.

An algebra of dimension n is a tensor ``sc`` with ``sc[i][j][k]`` the
coefficient of basis vector k in the product of basis vectors i and j.
All structure constants are exact scalars.  Constructors give the nonzero
terms as a {(i, j, k): c} dict; readers go through the cached view of the
nonzeros, ``FiniteAlgebra.nz``, or its complex128 array ``complex_sc``, so
the dense tensor is scanned once per algebra.  Values are immutable and
hashable, so analyses can be cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import repeat

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EXACT,
    LANES,
    Subspace,
    _gaussian_items,
    nullspace,
    rowspace,
)
from .scalars import MAX_MAGNITUDE, ONE, ZERO, QQi, gaussian_integers, parse_part, pair_str, parse_pair


class AlgebraFormatError(ValueError):
    """Raised when an algebra file or description cannot be accepted."""


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str
    dim: int
    sc: tuple  # sc[i][j][k] : QQi
    labels: tuple
    unit: tuple | None = None
    idempotent_span: tuple | None = None
    weight: tuple | None = None
    declared_characters: tuple | None = None

    def multiply(self, x, y):
        """Bilinear product of coordinate vectors of ``QQi`` values via the
        structure tensor: :meth:`pair_product` of their Gaussian integers,
        made ``QQi`` once per entry."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise AlgebraFormatError(
                f"{self.name}: vectors of length {len(x)},{len(y)} in dimension {n}"
            )
        dx, px = gaussian_integers(x)
        dy, py = gaussian_integers(y)
        e = dx * dy * self.integer_nz[0]
        return [
            QQi(Fraction(re, e), Fraction(im, e)) if re or im else ZERO
            for re, im in self.pair_product(px, py)
        ]

    def pair_product(self, x, y):
        """The product of two coordinate vectors of Gaussian integers, lists
        of (re, im), read off ``integer_nz``: the list of its n entries as
        (re, im), over D times the denominators of x and y, D that of
        ``integer_nz``.  Only the products of nonzero entries are formed."""
        re, im = [0] * self.dim, [0] * self.dim
        for (xr, xi), plane in zip(x, self.integer_nz[1]):
            if not (xr or xi):
                continue
            for (yr, yi), terms in zip(y, plane):
                if not terms or not (yr or yi):
                    continue
                pr = xr * yr - xi * yi
                pi = xr * yi + xi * yr
                for k, (cr, ci) in terms:
                    re[k] += pr * cr - pi * ci
                    im[k] += pr * ci + pi * cr
        return list(zip(re, im))

    def basis_vector(self, i):
        return [ONE if j == i else ZERO for j in range(self.dim)]

    def basis_product(self, i, j):
        return list(self.sc[i][j])

    def is_commutative(self) -> bool:
        n = self.dim
        nz = self.nz
        return all(nz[i][j] == nz[j][i] for i in range(n) for j in range(i + 1, n))

    def __str__(self):
        return f"{self.name} (dim {self.dim})"

    @cached_property
    def nz(self):
        """The nonzero structure constants: ``nz[i][j]`` is the tuple of
        (k, c) with c = sc[i][j][k] nonzero, k ascending, so that
        e_i e_j = sum of c e_k.  The constructors fill zeros with the
        ``ZERO`` object, which is tested by identity first."""
        return tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c is not ZERO and c) for row in plane)
            for plane in self.sc
        )

    @cached_property
    def integer_nz(self):
        """``nz`` on Gaussian integers over one denominator: (D, planes),
        ``planes[i][j]`` the tuple of (k, (re, im)) with c = (re + im i) / D
        for each (k, c) of ``nz[i][j]``, D the least common denominator of
        every part."""
        return self.pair_nz(gaussian_integers)

    def pair_nz(self, pairs):
        """``nz`` with its constants read as pairs by ``pairs``, which maps
        values to (D, [(re, im), ...]) as a lane's ``pairs`` does: (D,
        planes), ``planes[i][j]`` the tuple of (k, (re, im)) for each (k, c)
        of ``nz[i][j]``."""
        d, values = pairs(c for plane in self.nz for terms in plane for _, c in terms)
        values = iter(values)
        return d, tuple(
            tuple(tuple((k, next(values)) for k, _ in terms) for terms in plane) for plane in self.nz
        )

    @cached_property
    def complex_sc(self):
        """The structure tensor as a read-only (n, n, n) complex128 array."""
        n = self.dim
        out = np.zeros((n, n, n), dtype=np.complex128)
        for i, j, k, c in _terms(self):
            out[i, j, k] = complex(c)
        out.setflags(write=False)
        return out

    @cached_property
    def character_reduction(self):
        """(C, P2, P1): C = (A / <[A, A]>) / rad, the commutative semisimple
        quotient with the characters of A, and P1, P2 the complex128
        projections of the two quotients; None when C is zero.  Exact, so
        one algebra's analyses on both lanes read one reduction."""
        b_alg, proj1 = quotient_map(self, ideal_closure(self, commutator_span(self)))
        if b_alg is None:
            return None
        c_alg, proj2 = quotient_map(b_alg, radical(b_alg))
        if c_alg is None:
            return None
        projections = []
        for proj in (proj2, proj1):
            p = np.array([[complex(x) for x in row] for row in proj], dtype=np.complex128)
            p.setflags(write=False)
            projections.append(p)
        return (c_alg, *projections)

    @cached_property
    def unit_solution(self):
        """:func:`find_unit` of the algebra, solved once per algebra: the
        coordinates of its unit, or None."""
        return find_unit(self)

    @cached_property
    def _hash(self):
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __hash__(self):
        # the dataclass hash of the same fields, computed once: hashing the
        # n^3 structure constants dominates every cache lookup otherwise
        return self._hash

    def __getstate__(self):
        # a pickle carries the fields only: string hashes are salted per
        # process, and the views are rebuilt on demand
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _terms(a: FiniteAlgebra):
    """(i, j, k, c) for every nonzero structure constant, in index order."""
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            for k, c in terms:
                yield i, j, k, c


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    where: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(f"[{i.kind}] at {i.where}: {i.message}" for i in self.issues)


def _combination(terms):
    """sum of coef * v over (coef, v) terms, v a list of (column, value)
    nonzeros, as a {column: value} dict of the nonzero sums; coefficients
    and values are Gaussian integers (re, im)."""
    out = {}
    for (cr, ci), v in terms:
        for k, (xr, xi) in v:
            re = cr * xr - ci * xi
            im = cr * xi + ci * xr
            y = out.get(k)
            out[k] = (re, im) if y is None else (y[0] + re, y[1] + im)
    return {k: x for k, x in out.items() if x[0] or x[1]}


def _associator_triples(n, nz):
    """The triples (i, j, l), in ascending order, at which (e_i e_j) e_l
    differs from e_i (e_j e_l), for the Gaussian-integer planes ``nz`` of
    ``integer_nz`` (both sides scaled by D^2).

    (e_i e_j) e_l - e_i (e_j e_l) = sum_k c_ijk e_k e_l - sum_m c_jlm e_i e_m,
    so a triple gets a term only along a nonzero path: a constant c_ijk with
    e_k e_l != 0, or c_jlm with e_i e_m != 0.  Each nonzero product e_k e_l
    is packed once into one integer P (Kronecker substitution): the real
    part of column t at bit W t, its imaginary part at bit W (n + t).  With
    I the packing of i e_k e_l, a path with constant c adds re(c) P +
    im(c) I to its triple's packed difference.  A column of the difference
    is a sum of at most 2n products of two parts, each part at most
    ``top``, so each of its parts is at most 4 n top^2 in modulus and below
    2^(W - 1) for W one bit more than the bit length of 4 n top^2; a packed
    integer with digits that small is 0 exactly when every digit is.
    """
    top = max((abs(x) for plane in nz for terms in plane for _, c in terms for x in c), default=0)
    width = (4 * n * top * top).bit_length() + 1
    imag = width * n
    by_row = [[] for _ in range(n)]  # by_row[k]: (l, P, I) for each e_k e_l != 0
    by_col = [[] for _ in range(n)]  # by_col[m]: (i, P, I) for each e_i e_m != 0
    for k, plane in enumerate(nz):
        for l, terms in enumerate(plane):
            if terms:
                packed = sum((a << width * t) + (b << imag + width * t) for t, (a, b) in terms)
                rotated = sum((-b << width * t) + (a << imag + width * t) for t, (a, b) in terms)
                by_row[k].append((l, packed, rotated))
                by_col[l].append((k, packed, rotated))
    # the packed difference of triple (i, j, l) under the key (i n + j) n + l
    diff = {}
    for i, plane in enumerate(nz):
        for j, terms in enumerate(plane):
            for k, (cr, ci) in terms:
                for l, packed, rotated in by_row[k]:
                    key = (i * n + j) * n + l
                    diff[key] = diff.get(key, 0) + cr * packed + ci * rotated
    for j, plane in enumerate(nz):
        for l, terms in enumerate(plane):
            for m, (cr, ci) in terms:
                for i, packed, rotated in by_col[m]:
                    key = (i * n + j) * n + l
                    diff[key] = diff.get(key, 0) - cr * packed - ci * rotated
    keys = sorted(key for key, x in diff.items() if x)
    return [(key // (n * n), key // n % n, key % n) for key in keys]


def validate(a: FiniteAlgebra) -> ValidationReport:
    """Check associativity, unit identities, and weight constraints.

    Returns a report listing every violated associativity triple (i, j, l)
    together with any unit or weight violations; empty report iff valid.
    """
    n = a.dim
    # the constants as Gaussian integers over one denominator D
    d, nz = a.integer_nz
    issues = [
        ValidationIssue("associativity", (i, j, l), f"(e{i}*e{j})*e{l} != e{i}*(e{j}*e{l})")
        for i, j, l in _associator_triples(n, nz)
    ]
    if a.unit is not None:
        if len(a.unit) != n:
            raise AlgebraFormatError(f"{a.name}: vectors of length {len(a.unit)},{n} in dimension {n}")
        # u e_j = sum_i u_i c_ij and e_j u = sum_i u_i c_ji; with the unit over
        # its own denominator d_u, both are compared to e_j scaled by D d_u
        du, ints = gaussian_integers(a.unit)
        u = [(i, x) for i, x in enumerate(ints) if x[0] or x[1]]
        for j in range(n):
            ej = {j: (d * du, 0)}
            if _combination((x, nz[i][j]) for i, x in u) != ej:
                issues.append(
                    ValidationIssue("unit", (j,), f"u*e{j} != e{j}")
                )
            if _combination((x, nz[j][i]) for i, x in u) != ej:
                issues.append(
                    ValidationIssue("unit", (j,), f"e{j}*u != e{j}")
                )
    if a.weight is not None:
        if len(a.weight) != n:
            issues.append(
                ValidationIssue("weight", (), "weight length != dimension")
            )
        else:
            for i, w in enumerate(a.weight):
                if w < 1:
                    issues.append(
                        ValidationIssue("weight", (i,), f"weight {w} < 1")
                    )
            table = recover_cayley_table(a)
            if table is not None:
                for x in range(n):
                    for y in range(n):
                        if a.weight[table[x][y]] > a.weight[x] * a.weight[y]:
                            issues.append(
                                ValidationIssue(
                                    "weight",
                                    (x, y),
                                    "weight not submultiplicative on the product table",
                                )
                            )
            if a.unit is not None:
                support = [i for i, x in enumerate(a.unit) if not x.is_zero()]
                if len(support) == 1 and a.unit[support[0]] == ONE:
                    if a.weight[support[0]] != 1:
                        issues.append(
                            ValidationIssue(
                                "weight", (support[0],), "unit element must have weight 1"
                            )
                        )
    if a.idempotent_span is not None:
        issues += idempotent_span_issues(a)
    return ValidationReport(tuple(issues))


def idempotent_span_issues(a: FiniteAlgebra) -> list:
    """The issues of a declared idempotent span: each vector that is not
    idempotent, then vectors that do not span the algebra.

    Each vector v is read once as Gaussian integers p over its own
    denominator E; with the constants c / D of ``integer_nz``, v v = v
    reads sum_ij p_i p_j c_ij = E D p.  The span is the rank of the p."""
    n = a.dim
    d, nz = a.integer_nz
    issues, rows = [], []
    for idx, v in enumerate(a.idempotent_span):
        if len(v) != n:
            raise AlgebraFormatError(f"{a.name}: vectors of length {len(v)},{n} in dimension {n}")
        e, ints = gaussian_integers(v)
        p = [(i, x) for i, x in enumerate(ints) if x[0] or x[1]]
        square = _combination(
            ((xr * yr - xi * yi, xr * yi + xi * yr), nz[i][j]) for i, (xr, xi) in p for j, (yr, yi) in p
        )
        if square != {i: (e * d * xr, e * d * xi) for i, (xr, xi) in p}:
            issues.append(ValidationIssue("idempotent", (idx,), "declared vector is not idempotent"))
        rows.append(dict(p))
    if rowspace(rows, n, EXACT).dim != n:
        issues.append(ValidationIssue("idempotent", (), "declared idempotents do not span the algebra"))
    return issues


# ---------------------------------------------------------------------------
# predicates and invariant subspaces


def product_span(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Span of all products of basis vectors, one row per pair (i, j), on
    the Gaussian integers of ``integer_nz``."""
    d, nz = a.integer_nz
    rows = [dict(terms) for plane in nz for terms in plane]
    return rowspace(LANES[backend].pair_system(rows, repeat(d)), a.dim, backend)


def find_unit(a: FiniteAlgebra):
    """Solve the two-sided unit system; returns coordinates or None.

    u e_j = e_j and e_j u = e_j read, at each coordinate k, sum_i u_i c_ij^k
    = [j = k] and sum_i u_i c_ji^k = [j = k]: one dict row per equation,
    read off ``nz``, with the right-hand side in column n.  The system is
    inconsistent when n is a pivot; otherwise the free coordinates are set
    to zero, so the answer is deterministic.
    """
    n = a.dim
    eqs = {}
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            for k, c in terms:
                eqs.setdefault((j, k, 0), {})[i] = c  # u_i e_i e_j at k
                eqs.setdefault((i, k, 1), {})[j] = c  # e_i u_j e_j at k
    for j in range(n):
        for side in (0, 1):
            eqs.setdefault((j, j, side), {})[n] = ONE
    s = rowspace(list(eqs.values()), n + 1, EXACT)
    if n in s.pivots:
        return None
    x = [ZERO] * n
    for row, p in zip(s.basis, s.pivots):
        x[p] = row.get(n, ZERO)
    return tuple(x)


def is_unital(a: FiniteAlgebra):
    if a.unit is not None:
        return True, tuple(a.unit)
    u = a.unit_solution
    return (u is not None), u


# ---------------------------------------------------------------------------
# constructors


def _dense(n, terms):
    """The sc tuple of a {(i, j, k): c} dict of terms; every other entry is ZERO."""
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), x in terms.items():
        c[i][j][k] = x
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def check_bound(a: FiniteAlgebra) -> FiniteAlgebra:
    """Return the algebra, or refuse it when a part of its constants, unit,
    idempotent span or declared characters is beyond the reader's bound.

    For an algebra that was not read from a file; the quotients and
    subalgebras an analysis builds are exact and are not held to it.
    """
    vectors = [a.unit or (), *(a.idempotent_span or ()), *(a.declared_characters or ())]
    parts = [c for plane in a.nz for terms in plane for _, c in terms]
    parts += [x for v in vectors for x in v]
    if any(max(abs(c.re), abs(c.im)) > MAX_MAGNITUDE for c in parts):
        raise AlgebraFormatError(f"{a.name}: a part is beyond +-1e150")
    return a


def check_float_spread(a: FiniteAlgebra):
    """Refuse the algebra for the float lane when its smallest nonzero
    structure-constant modulus is at most :data:`DEFAULT_TOL` times its
    largest: pivots that small fall under the float lane's rank threshold,
    and its dims would be wrong.  Moduli are compared exactly."""
    squares = [c.re * c.re + c.im * c.im for _, _, _, c in _terms(a)]
    if squares and min(squares) <= Fraction(DEFAULT_TOL) ** 2 * max(squares):
        lo, hi = (float(x) ** 0.5 for x in (min(squares), max(squares)))
        raise AlgebraFormatError(
            f"{a.name}: nonzero structure constants span moduli {lo:.3g} to {hi:.3g}, "
            f"a ratio at or below the float tolerance {DEFAULT_TOL:g}; "
            "the float lane cannot rank its systems, use --backend exact"
        )


def _make(name, n, terms, labels, unit=None, **kw):
    return FiniteAlgebra(
        name=name,
        dim=n,
        sc=_dense(n, terms),
        labels=tuple(labels),
        unit=tuple(unit) if unit is not None else None,
        **kw,
    )


def zero_algebra(k: int, name=None) -> FiniteAlgebra:
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    return _make(name or f"Zero{k}", k, {}, [f"z{i}" for i in range(k)])


def pointwise_algebra(k: int, name=None) -> FiniteAlgebra:
    """Coordinatewise multiplication on k points: e_i * e_j = delta_ij e_i."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    unit = [ONE] * k
    return _make(
        name or f"Pointwise{k}",
        k,
        {(i, i, i): ONE for i in range(k)},
        [f"e{i}" for i in range(k)],
        unit=unit,
        idempotent_span=tuple(
            tuple(ONE if j == i else ZERO for j in range(k)) for i in range(k)
        ),
    )


def truncated_polynomial(k: int, name=None) -> FiniteAlgebra:
    """Polynomials in one variable truncated at degree k (x^k = 0)."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    terms = {(i, j, i + j): ONE for i in range(k) for j in range(k - i)}
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    unit = [ONE] + [ZERO] * (k - 1)
    return _make(name or f"TruncPoly{k}", k, terms, labels, unit=unit)


def matrix_algebra(k: int, name=None) -> FiniteAlgebra:
    """Full k-by-k matrix algebra on the matrix-unit basis, row-major."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    n = k * k
    terms = {
        (p * k + q, q * k + s, p * k + s): ONE
        for p in range(k)
        for q in range(k)
        for s in range(k)
    }
    labels = [f"E{p}{q}" for p in range(k) for q in range(k)]
    unit = [ONE if p == q else ZERO for p in range(k) for q in range(k)]
    return _make(name or f"M{k}", n, terms, labels, unit=unit)


def upper_triangular(k: int, name=None) -> FiniteAlgebra:
    """Upper-triangular k-by-k matrices on matrix units E_pq with p <= q."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    pairs = [(p, q) for p in range(k) for q in range(p, k)]
    index = {pq: i for i, pq in enumerate(pairs)}
    n = len(pairs)
    terms = {
        (i, j, index[(p, s)]): ONE
        for (p, q), i in index.items()
        for (r, s), j in index.items()
        if q == r
    }
    labels = [f"E{p}{q}" for p, q in pairs]
    unit = [ONE if p == q else ZERO for p, q in pairs]
    return _make(name or f"UpperTri{k}", n, terms, labels, unit=unit)


def cayley_identity(table):
    """The index of the two-sided identity of a Cayley table, or None."""
    m = len(table)
    for e in range(m):
        if all(table[e][x] == x and table[x][e] == x for x in range(m)):
            return e
    return None


def semigroup_algebra(table, weight=None, identity=None, name=None) -> FiniteAlgebra:
    """Convolution algebra of a finite semigroup given by its Cayley table.

    ``table[x][y]`` is the index of the product of elements x and y; the
    table must be associative.  ``weight`` attaches a weight per element
    (norm metadata only): at least 1, 1 at the identity, and
    submultiplicative.  Both rules are :func:`validate`'s, and the algebra
    built is refused with its first issue.  ``identity`` asserts which
    element is the two-sided identity; when omitted it is auto-detected.
    """
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise AlgebraFormatError(f"Cayley table must be a list of rows, got {table!r}")
    m = len(table)
    if m < 1:
        raise AlgebraFormatError("semigroup must have at least one element")
    for x, row in enumerate(table):
        if len(row) != m:
            raise AlgebraFormatError(f"Cayley table row {x} has length {len(row)}")
        for y, v in enumerate(row):
            if not _is_index(v):
                raise AlgebraFormatError(f"Cayley table entry ({x},{y}) = {v!r} is not an integer")
            if not (0 <= v < m):
                raise AlgebraFormatError(f"Cayley table entry ({x},{y}) = {v} out of range")
    detected = cayley_identity(table)
    if identity is not None and identity != detected:
        raise AlgebraFormatError(
            f"element {identity} is not a two-sided identity (found {detected})"
        )
    ident = identity if identity is not None else detected
    unit = None
    if ident is not None:
        unit = [ONE if i == ident else ZERO for i in range(m)]
    w = None
    if weight is not None:
        if not isinstance(weight, (list, tuple)) or len(weight) != m:
            raise AlgebraFormatError(f"weight must be a list of {m} entries, got {weight!r}")
        try:
            w = tuple(map(_parse_weight, weight))
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"weight: {exc}") from exc
    a = _make(
        name or f"Semigroup{m}",
        m,
        {(x, y, table[x][y]): ONE for x in range(m) for y in range(m)},
        [f"s{i}" for i in range(m)],
        unit=unit,
        weight=w,
    )
    issues = validate(a).issues
    if issues:
        first = issues[0]
        broken = "is not associative" if first.kind == "associativity" else f"breaks a {first.kind} rule"
        raise AlgebraFormatError(f"semigroup {broken} at {first.where}: {first.message}")
    return a


def recover_cayley_table(a: FiniteAlgebra):
    """Recover the Cayley table when every basis product is a basis vector.

    Returns the table, or None when the structure constants are not of
    0/1 permutation type.
    """
    table = []
    for plane in a.nz:
        row = []
        for terms in plane:
            if len(terms) != 1 or terms[0][1] != ONE:
                return None
            row.append(terms[0][0])
        table.append(row)
    return table


def unitize(a: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Adjoin a two-sided unit as a new last basis vector."""
    n = a.dim
    m = n + 1
    terms = {(i, j, k): c for i, j, k, c in _terms(a)}
    for i in range(m):
        terms[i, n, i] = ONE
        terms[n, i, i] = ONE
    labels = list(a.labels) + ["1#"]
    unit = [ZERO] * n + [ONE]
    return _make(name or f"{a.name}Sharp", m, terms, labels, unit=unit)


def tensor_product(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Algebra tensor product; index (i, p) flattens to i * dim2 + p."""
    n1, n2 = a1.dim, a2.dim
    n = n1 * n2
    terms2 = list(_terms(a2))
    terms = {
        (i * n2 + p, j * n2 + q, k * n2 + r): c1 * c2
        for i, j, k, c1 in _terms(a1)
        for p, q, r, c2 in terms2
    }
    labels = [f"{l1}(x){l2}" for l1 in a1.labels for l2 in a2.labels]
    unit = None
    ok1, u1 = is_unital(a1)
    ok2, u2 = is_unital(a2)
    if ok1 and ok2:
        unit = [u1[i] * u2[p] for i in range(n1) for p in range(n2)]
    return check_bound(_make(name or f"Tensor({a1.name},{a2.name})", n, terms, labels, unit=unit))


def direct_sum(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    n1, n2 = a1.dim, a2.dim
    n = n1 + n2
    terms = {(i, j, k): c for i, j, k, c in _terms(a1)}
    terms.update(((n1 + i, n1 + j, n1 + k), c) for i, j, k, c in _terms(a2))
    labels = [f"L.{x}" for x in a1.labels] + [f"R.{x}" for x in a2.labels]
    unit = None
    ok1, u1 = is_unital(a1)
    ok2, u2 = is_unital(a2)
    if ok1 and ok2:
        unit = list(u1) + list(u2)
    return _make(name or f"DirectSum({a1.name},{a2.name})", n, terms, labels, unit=unit)


# ---------------------------------------------------------------------------
# radical, ideals, quotients


def radical(a: FiniteAlgebra, backend=EXACT) -> Subspace:
    """Jacobson radical by the trace-form criterion on the unitization.

    v lies in the radical iff trace of left multiplication by v*b vanishes
    on the unitization for every basis vector b of the unitization; valid
    in characteristic zero.  The trace of left multiplication by e_s is
    tau_s = sum_t sc#[s][t][t], so the entry for e_k and b_j is
    sum_s sc#[k][j][s] tau_s.  Both are read off the Gaussian integers of
    ``integer_nz``, over D and D^2: e_s 1# = e_s adds no diagonal term, so
    tau_s is the trace on A itself, and the row of b = 1# is tau.  Each
    row, its zeros dropped, is then taken over its largest entry
    (:func:`_over_largest`).
    """
    n = a.dim
    _, nz = a.integer_nz
    tau = _combination(
        ((1, 0), [(s, c)]) for s, plane in enumerate(nz) for t, terms in enumerate(plane) for k, c in terms if k == t
    )
    rows = [_combination((tau[s], [(k, c)]) for k in range(n) for s, c in nz[k][j] if s in tau) for j in range(n)]
    rows.append(tau)
    dens, rows = zip(*map(_over_largest, rows))
    return nullspace(LANES[backend].pair_system(list(rows), dens), n, backend)


def _over_largest(row):
    """(|m|^2, the row times the conjugate of m): a {column: (re, im)} row
    of nonzero Gaussian integers divided by its entry m of largest modulus,
    so that entry is one; the first such entry when moduli tie.

    The entries of a row share one denominator, which cancels.  The kernel
    is unchanged, and the exact lane takes the row up to scale.  On the
    float lane the division matters: the entries of the trace-form rows are
    products of two constants, so their moduli span the square of the
    constants' spread, and one large row would otherwise set a pivot
    threshold that drops the true pivot of a small one."""
    if not row:
        return 1, row
    mr, mi = max(row.values(), key=lambda x: x[0] * x[0] + x[1] * x[1])
    return mr * mr + mi * mi, {k: (a * mr + b * mi, b * mr - a * mi) for k, (a, b) in row.items()}


def commutator_span(a: FiniteAlgebra) -> Subspace:
    """Span of the commutators e_i e_j - e_j e_i, on the Gaussian integers
    of ``integer_nz``."""
    n = a.dim
    _, nz = a.integer_nz
    rows = [_combination((((1, 0), nz[i][j]), ((-1, 0), nz[j][i]))) for i in range(n) for j in range(i + 1, n)]
    return rowspace(rows, n, EXACT)


def ideal_closure(a: FiniteAlgebra, s: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the subspace.

    Each round adds e_i v and v e_i, read off ``integer_nz``, for every
    basis vector e_i and every row v the last round added: the rows at the
    new pivots and the span before them span the new space, so the products
    of the older rows already lie in it.  Each row of a space is read once
    as Gaussian integers over its own denominator.
    """
    _, nz = a.integer_nz
    n = a.dim
    current = s
    fresh = basis = [list(_gaussian_items(row)) for row in s.basis]
    while True:
        rows = [dict(v) for v in basis]
        for v in fresh:
            for i in range(n):
                rows.append(_combination((x, nz[i][j]) for j, x in v))
                rows.append(_combination((x, nz[j][i]) for j, x in v))
        bigger = rowspace(rows, n, EXACT)
        if bigger.dim == current.dim:
            return bigger
        old = set(current.pivots)
        basis = [list(_gaussian_items(row)) for row in bigger.basis]
        fresh = [v for v, p in zip(basis, bigger.pivots) if p not in old]
        current = bigger


def quotient_map(a: FiniteAlgebra, ideal: Subspace):
    """Quotient algebra by a two-sided ideal, with its projection matrix.

    Returns (quotient algebra or None when the ideal is everything,
    projection rows P with P[t][i] the t-th quotient coordinate of e_i).
    The quotient basis is the set of classes of basis vectors at the
    non-pivot columns of the ideal's RREF basis.
    """
    n = a.dim
    pivots = set(ideal.pivots)
    free = [i for i in range(n) if i not in pivots]
    m = len(free)

    def project(v):
        _, w = ideal.reduce(v)
        return [w[f] for f in free]

    proj_rows = [project({i: ONE}) for i in range(n)]
    proj = [[proj_rows[i][t] for i in range(n)] for t in range(m)]
    if m == 0:
        return None, proj
    terms = {}
    for p in range(m):
        for q in range(m):
            cls = project(dict(a.nz[free[p]][free[q]]))
            terms.update(((p, q, t), x) for t, x in enumerate(cls) if x)
    quotient = _make(f"{a.name}/I", m, terms, [f"q{t}" for t in range(m)])
    return quotient, proj


def subalgebra_on(a: FiniteAlgebra, s: Subspace, name=None):
    """The algebra structure induced on a multiplicatively closed subspace.

    Returns None when the subspace is not closed under the product.
    """
    basis = [list(v) for v in s.basis_vectors()]
    m = len(basis)
    if m == 0:
        return None
    terms = {}
    for p, u in enumerate(basis):
        for q, v in enumerate(basis):
            expanded, rest = s.reduce(a.multiply(u, v))
            if any(rest):
                return None
            terms.update(((p, q, t), x) for t, x in enumerate(expanded) if x)
    return _make(name or f"{a.name}|sub", m, terms, [f"b{t}" for t in range(m)])


# ---------------------------------------------------------------------------
# JSON wire format


def to_json_dict(a: FiniteAlgebra) -> dict:
    out = {
        "name": a.name,
        "dim": a.dim,
        "labels": list(a.labels),
        "sc": [[i, j, k, str(c.re), str(c.im)] for i, j, k, c in _terms(a)],
    }
    if a.unit is not None:
        out["unit"] = [pair_str(x) for x in a.unit]
    if a.idempotent_span is not None:
        out["idempotent_span"] = [[pair_str(x) for x in v] for v in a.idempotent_span]
    if a.weight is not None:
        out["weight"] = [str(w) for w in a.weight]
    if a.declared_characters is not None:
        out["characters"] = [[pair_str(x) for x in v] for v in a.declared_characters]
    return out


def _is_index(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_weight(w):
    """A weight; a float is read at its decimal string, so 1.1 is 11/10."""
    return parse_part(str(w) if isinstance(w, float) else w)


def _list(raw, where):
    if not isinstance(raw, list):
        raise AlgebraFormatError(f"{where}: expected a list, got {raw!r}")
    return raw


def _parse_vector(raw, n, where):
    if len(_list(raw, where)) != n:
        raise AlgebraFormatError(f"{where}: expected {n} coordinates, got {len(raw)}")
    out = []
    for idx, entry in enumerate(raw):
        try:
            out.append(parse_pair(entry if isinstance(entry, (list, tuple)) else (entry, 0)))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"{where}[{idx}]: {exc}") from exc
    return tuple(out)


def from_json_dict(data: dict) -> FiniteAlgebra:
    if not isinstance(data, dict):
        raise AlgebraFormatError("top level must be a JSON object")
    for key in ("name", "dim", "labels", "sc"):
        if key not in data:
            raise AlgebraFormatError(f"missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise AlgebraFormatError(f"name must be a string, got {name!r}")
    n = data["dim"]
    if not _is_index(n) or n < 1:
        raise AlgebraFormatError(f"dim must be a positive integer, got {n!r}")
    labels = _list(data["labels"], "labels")
    if len(labels) != n:
        raise AlgebraFormatError(f"expected {n} labels, got {len(labels)}")
    terms = {}
    for pos, entry in enumerate(_list(data["sc"], "sc")):
        if len(_list(entry, f"sc[{pos}]")) != 5:
            raise AlgebraFormatError(f"sc[{pos}]: expected [i, j, k, re, im]")
        i, j, k, re, im = entry
        for idx in (i, j, k):
            if not _is_index(idx) or not (0 <= idx < n):
                raise AlgebraFormatError(f"sc[{pos}]: index {idx!r} out of range 0..{n - 1}")
        if (i, j, k) in terms:
            raise AlgebraFormatError(f"sc[{pos}]: duplicate key ({i},{j},{k})")
        try:
            terms[i, j, k] = parse_pair([re, im])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"sc[{pos}]: {exc}") from exc
    unit = None
    if "unit" in data and data["unit"] is not None:
        unit = _parse_vector(data["unit"], n, "unit")
    idem = None
    if "idempotent_span" in data and data["idempotent_span"] is not None:
        idem = tuple(
            _parse_vector(v, n, f"idempotent_span[{t}]")
            for t, v in enumerate(_list(data["idempotent_span"], "idempotent_span"))
        )
    weight = None
    if "weight" in data and data["weight"] is not None:
        raw = _list(data["weight"], "weight")
        if len(raw) != n:
            raise AlgebraFormatError(f"weight: expected {n} entries, got {len(raw)}")
        try:
            weight = tuple(map(_parse_weight, raw))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"weight: {exc}") from exc
        if any(w <= 0 for w in weight):
            raise AlgebraFormatError("weight entries must be positive")
    chars = None
    if "characters" in data and data["characters"] is not None:
        chars = tuple(
            _parse_vector(v, n, f"characters[{t}]")
            for t, v in enumerate(_list(data["characters"], "characters"))
        )
    return _make(
        name,
        n,
        terms,
        labels,
        unit=unit,
        idempotent_span=idem,
        weight=weight,
        declared_characters=chars,
    )


def load_algebra(path) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise AlgebraFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal over Python's digit limit, or nesting too deep
        raise AlgebraFormatError(f"{path}: unreadable JSON: {exc}") from exc
    try:
        return from_json_dict(data)
    except AlgebraFormatError as exc:
        raise AlgebraFormatError(f"{path}: {exc}") from exc


def dump_algebra(a: FiniteAlgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")
