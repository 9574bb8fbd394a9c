"""Structure-constant model of a finite-dimensional associative algebra.

An algebra of dimension n is a tensor ``sc`` with ``sc[i][j][k]`` the
coefficient of basis vector k in the product of basis vectors i and j.
All structure constants are exact scalars; the float backend converts on
demand.  Values are immutable and hashable, so analyses can be cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .linalg import (
    EXACT,
    DEFAULT_TOL,
    Subspace,
    matvec_exact,
    nullspace,
    rowspace,
    solve_exact,
)
from .scalars import ONE, ZERO, QQi, pair_str, parse_pair, qq


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
        """Bilinear product of coordinate vectors via the structure tensor."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise AlgebraFormatError(
                f"{self.name}: vectors of length {len(x)},{len(y)} in dimension {n}"
            )
        out = [ZERO] * n
        for i in range(n):
            xi = x[i]
            if xi.is_zero():
                continue
            row = self.sc[i]
            for j in range(n):
                yj = y[j]
                if yj.is_zero():
                    continue
                coef = xi * yj
                for k, c in enumerate(row[j]):
                    if not c.is_zero():
                        out[k] = out[k] + coef * c
        return out

    def basis_vector(self, i):
        return [ONE if j == i else ZERO for j in range(self.dim)]

    def basis_product(self, i, j):
        return list(self.sc[i][j])

    def is_commutative(self) -> bool:
        n = self.dim
        return all(
            self.sc[i][j] == self.sc[j][i] for i in range(n) for j in range(i + 1, n)
        )

    def __str__(self):
        return f"{self.name} (dim {self.dim})"


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


def validate(a: FiniteAlgebra) -> ValidationReport:
    """Check associativity, unit identities, and weight constraints.

    Returns a report listing every violated associativity triple (i, j, l)
    together with any unit or weight violations; empty report iff valid.
    """
    issues = []
    n = a.dim
    for i in range(n):
        for j in range(n):
            for l in range(n):
                lhs = a.multiply(a.basis_product(i, j), a.basis_vector(l))
                rhs = a.multiply(a.basis_vector(i), a.basis_product(j, l))
                if lhs != rhs:
                    issues.append(
                        ValidationIssue(
                            "associativity",
                            (i, j, l),
                            f"(e{i}*e{j})*e{l} != e{i}*(e{j}*e{l})",
                        )
                    )
    if a.unit is not None:
        u = list(a.unit)
        for j in range(n):
            ej = a.basis_vector(j)
            if a.multiply(u, ej) != ej:
                issues.append(
                    ValidationIssue("unit", (j,), f"u*e{j} != e{j}")
                )
            if a.multiply(ej, u) != ej:
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
        for idx, v in enumerate(a.idempotent_span):
            if a.multiply(list(v), list(v)) != list(v):
                issues.append(
                    ValidationIssue("idempotent", (idx,), "declared vector is not idempotent")
                )
        span = rowspace(list(a.idempotent_span), n, EXACT)
        if span.dim != n:
            issues.append(
                ValidationIssue(
                    "idempotent", (), "declared idempotents do not span the algebra"
                )
            )
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# predicates and invariant subspaces


def product_span(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Span of all products of basis vectors."""
    rows = [a.basis_product(i, j) for i in range(a.dim) for j in range(a.dim)]
    return rowspace(rows, a.dim, backend, tol)


def is_essential(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> bool:
    return product_span(a, backend, tol).dim == a.dim


def find_unit(a: FiniteAlgebra):
    """Solve the two-sided unit system; returns coordinates or None."""
    n = a.dim
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append([a.sc[i][j][k] for i in range(n)])
            rhs.append(ONE if j == k else ZERO)
            rows.append([a.sc[j][i][k] for i in range(n)])
            rhs.append(ONE if j == k else ZERO)
    sol = solve_exact(rows, rhs)
    return tuple(sol) if sol is not None else None


def is_unital(a: FiniteAlgebra):
    if a.unit is not None:
        return True, tuple(a.unit)
    u = find_unit(a)
    return (u is not None), u


def with_unit_filled(a: FiniteAlgebra) -> FiniteAlgebra:
    if a.unit is not None:
        return a
    u = find_unit(a)
    return replace(a, unit=u) if u is not None else a


# ---------------------------------------------------------------------------
# constructors


def _zero_tensor(n):
    return [[[ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _freeze_tensor(c):
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def _make(name, n, c, labels, unit=None, **kw):
    return FiniteAlgebra(
        name=name,
        dim=n,
        sc=_freeze_tensor(c),
        labels=tuple(labels),
        unit=tuple(unit) if unit is not None else None,
        **kw,
    )


def zero_algebra(k: int, name=None) -> FiniteAlgebra:
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    return _make(name or f"Zero{k}", k, _zero_tensor(k), [f"z{i}" for i in range(k)])


def pointwise_algebra(k: int, name=None) -> FiniteAlgebra:
    """Coordinatewise multiplication on k points: e_i * e_j = delta_ij e_i."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    c = _zero_tensor(k)
    for i in range(k):
        c[i][i][i] = ONE
    unit = [ONE] * k
    return _make(
        name or f"Pointwise{k}",
        k,
        c,
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
    c = _zero_tensor(k)
    for i in range(k):
        for j in range(k):
            if i + j < k:
                c[i][j][i + j] = ONE
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    unit = [ONE] + [ZERO] * (k - 1)
    return _make(name or f"TruncPoly{k}", k, c, labels, unit=unit)


def matrix_algebra(k: int, name=None) -> FiniteAlgebra:
    """Full k-by-k matrix algebra on the matrix-unit basis, row-major."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    n = k * k
    c = _zero_tensor(n)
    for p in range(k):
        for q in range(k):
            for r in range(k):
                for s in range(k):
                    if q == r:
                        c[p * k + q][r * k + s][p * k + s] = ONE
    labels = [f"E{p}{q}" for p in range(k) for q in range(k)]
    unit = [ONE if p == q else ZERO for p in range(k) for q in range(k)]
    return _make(name or f"M{k}", n, c, labels, unit=unit)


def upper_triangular(k: int, name=None) -> FiniteAlgebra:
    """Upper-triangular k-by-k matrices on matrix units E_pq with p <= q."""
    if k < 1:
        raise AlgebraFormatError("dimension must be >= 1")
    pairs = [(p, q) for p in range(k) for q in range(p, k)]
    index = {pq: i for i, pq in enumerate(pairs)}
    n = len(pairs)
    c = _zero_tensor(n)
    for (p, q), i in index.items():
        for (r, s), j in index.items():
            if q == r:
                c[i][j][index[(p, s)]] = ONE
    labels = [f"E{p}{q}" for p, q in pairs]
    unit = [ONE if p == q else ZERO for p, q in pairs]
    return _make(name or f"UpperTri{k}", n, c, labels, unit=unit)


def semigroup_algebra(table, weight=None, identity=None, name=None) -> FiniteAlgebra:
    """Convolution algebra of a finite semigroup given by its Cayley table.

    ``table[x][y]`` is the index of the product of elements x and y; the
    table must be associative.  ``weight`` attaches a positive weight per
    element (norm metadata only).  ``identity`` asserts which element is the
    two-sided identity; when omitted it is auto-detected.
    """
    m = len(table)
    if m < 1:
        raise AlgebraFormatError("semigroup must have at least one element")
    for x, row in enumerate(table):
        if len(row) != m:
            raise AlgebraFormatError(f"Cayley table row {x} has length {len(row)}")
        for y, v in enumerate(row):
            if not (0 <= v < m):
                raise AlgebraFormatError(f"Cayley table entry ({x},{y}) = {v} out of range")
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise AlgebraFormatError(
                        f"Cayley table is not associative at ({x},{y},{z})"
                    )
    detected = None
    for e in range(m):
        if all(table[e][x] == x and table[x][e] == x for x in range(m)):
            detected = e
            break
    if identity is not None and identity != detected:
        raise AlgebraFormatError(
            f"element {identity} is not a two-sided identity (found {detected})"
        )
    ident = identity if identity is not None else detected
    c = _zero_tensor(m)
    for x in range(m):
        for y in range(m):
            c[x][y][table[x][y]] = ONE
    unit = None
    if ident is not None:
        unit = [ONE if i == ident else ZERO for i in range(m)]
    w = None
    if weight is not None:
        if len(weight) != m:
            raise AlgebraFormatError("weight length must match semigroup size")
        w = tuple(Fraction(x) for x in weight)
        if any(x < 1 for x in w):
            raise AlgebraFormatError("weights must be >= 1")
        if ident is not None and w[ident] != 1:
            raise AlgebraFormatError("identity element must have weight 1")
        for x in range(m):
            for y in range(m):
                if w[table[x][y]] > w[x] * w[y]:
                    raise AlgebraFormatError(
                        f"weight not submultiplicative at ({x},{y})"
                    )
    return _make(
        name or f"Semigroup{m}",
        m,
        c,
        [f"s{i}" for i in range(m)],
        unit=unit,
        weight=w,
    )


def recover_cayley_table(a: FiniteAlgebra):
    """Recover the Cayley table when every basis product is a basis vector.

    Returns the table, or None when the structure constants are not of
    0/1 permutation type.
    """
    n = a.dim
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            hits = [k for k in range(n) if not a.sc[i][j][k].is_zero()]
            if len(hits) != 1 or a.sc[i][j][hits[0]] != ONE:
                return None
            row.append(hits[0])
        table.append(row)
    return table


def unitize(a: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Adjoin a two-sided unit as a new last basis vector."""
    n = a.dim
    m = n + 1
    c = _zero_tensor(m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = a.sc[i][j][k]
    for i in range(m):
        c[i][n][i] = ONE
        c[n][i][i] = ONE
    c[n][n][n] = ONE
    labels = list(a.labels) + ["1#"]
    unit = [ZERO] * n + [ONE]
    return _make(name or f"{a.name}Sharp", m, c, labels, unit=unit)


def tensor_product(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Algebra tensor product; index (i, p) flattens to i * dim2 + p."""
    n1, n2 = a1.dim, a2.dim
    n = n1 * n2
    c = _zero_tensor(n)
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                c1 = a1.sc[i][j][k]
                if c1.is_zero():
                    continue
                for p in range(n2):
                    for q in range(n2):
                        for r in range(n2):
                            c2 = a2.sc[p][q][r]
                            if not c2.is_zero():
                                c[i * n2 + p][j * n2 + q][k * n2 + r] = c1 * c2
    labels = [f"{l1}(x){l2}" for l1 in a1.labels for l2 in a2.labels]
    unit = None
    ok1, u1 = is_unital(a1)
    ok2, u2 = is_unital(a2)
    if ok1 and ok2:
        unit = [u1[i] * u2[p] for i in range(n1) for p in range(n2)]
    return _make(name or f"Tensor({a1.name},{a2.name})", n, c, labels, unit=unit)


def direct_sum(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    n1, n2 = a1.dim, a2.dim
    n = n1 + n2
    c = _zero_tensor(n)
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                c[i][j][k] = a1.sc[i][j][k]
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                c[n1 + i][n1 + j][n1 + k] = a2.sc[i][j][k]
    labels = [f"L.{x}" for x in a1.labels] + [f"R.{x}" for x in a2.labels]
    unit = None
    ok1, u1 = is_unital(a1)
    ok2, u2 = is_unital(a2)
    if ok1 and ok2:
        unit = list(u1) + list(u2)
    return _make(name or f"DirectSum({a1.name},{a2.name})", n, c, labels, unit=unit)


# ---------------------------------------------------------------------------
# radical, ideals, quotients


def radical(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> Subspace:
    """Jacobson radical by the trace-form criterion on the unitization.

    v lies in the radical iff trace of left multiplication by v*b vanishes
    on the unitization for every basis vector b of the unitization; valid
    in characteristic zero.  The trace of left multiplication by e_s is
    tau_s = sum_t sc#[s][t][t], so the entry for e_k and b_j is
    sum_s sc#[k][j][s] tau_s.
    """
    sharp = unitize(a)
    m = sharp.dim
    tau = [sum((sharp.sc[s][t][t] for t in range(m)), ZERO) for s in range(m)]
    rows = [matvec_exact([sharp.sc[k][j] for k in range(a.dim)], tau) for j in range(m)]
    return nullspace(rows, a.dim, backend, tol)


def is_semisimple(a: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL) -> bool:
    return radical(a, backend, tol).dim == 0


def commutator_span(a: FiniteAlgebra) -> Subspace:
    rows = []
    n = a.dim
    for i in range(n):
        for j in range(i + 1, n):
            rows.append(
                [x - y for x, y in zip(a.basis_product(i, j), a.basis_product(j, i))]
            )
    return rowspace(rows, n, EXACT)


def ideal_closure(a: FiniteAlgebra, s: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the subspace."""
    current = s
    n = a.dim
    while True:
        rows = list(current.rows)
        for v in current.basis_vectors():
            for i in range(n):
                ei = a.basis_vector(i)
                rows.append(a.multiply(ei, list(v)))
                rows.append(a.multiply(list(v), ei))
        bigger = rowspace(rows, n, EXACT)
        if bigger.dim == current.dim:
            return bigger
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
        w = list(v)
        for row, p in zip(ideal.rows, ideal.pivots):
            coef = w[p]
            if not coef.is_zero():
                w = [x - coef * y for x, y in zip(w, row)]
        return [w[f] for f in free]

    proj_rows = [project(a.basis_vector(i)) for i in range(n)]
    proj = [[proj_rows[i][t] for i in range(n)] for t in range(m)]
    if m == 0:
        return None, proj
    c = _zero_tensor(m)
    for p in range(m):
        for q in range(m):
            prod = a.basis_product(free[p], free[q])
            cls = project(prod)
            for t in range(m):
                c[p][q][t] = cls[t]
    quotient = _make(
        f"{a.name}/I", m, c, [f"q{t}" for t in range(m)]
    )
    return quotient, proj


def subalgebra_on(a: FiniteAlgebra, s: Subspace, name=None):
    """The algebra structure induced on a multiplicatively closed subspace.

    Returns None when the subspace is not closed under the product.
    """
    basis = [list(v) for v in s.basis_vectors()]
    m = len(basis)
    if m == 0:
        return None
    coords = []
    for u in basis:
        row_coords = []
        for v in basis:
            prod = a.multiply(u, v)
            expanded = _coords_in_rref_basis(prod, s)
            if expanded is None:
                return None
            row_coords.append(expanded)
        coords.append(row_coords)
    c = [[[coords[p][q][t] for t in range(m)] for q in range(m)] for p in range(m)]
    return _make(name or f"{a.name}|sub", m, c, [f"b{t}" for t in range(m)])


def _coords_in_rref_basis(v, s: Subspace):
    w = list(v)
    coeffs = []
    for row, p in zip(s.rows, s.pivots):
        coef = w[p]
        coeffs.append(coef)
        if not coef.is_zero():
            w = [x - coef * y for x, y in zip(w, row)]
    if any(not x.is_zero() for x in w):
        return None
    return coeffs


# ---------------------------------------------------------------------------
# JSON wire format


def to_json_dict(a: FiniteAlgebra) -> dict:
    sc_entries = []
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = a.sc[i][j][k]
                if not c.is_zero():
                    sc_entries.append([i, j, k, str(c.re), str(c.im)])
    out = {
        "name": a.name,
        "dim": a.dim,
        "labels": list(a.labels),
        "sc": sc_entries,
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


def _parse_vector(raw, n, where):
    if len(raw) != n:
        raise AlgebraFormatError(f"{where}: expected {n} coordinates, got {len(raw)}")
    out = []
    for idx, entry in enumerate(raw):
        try:
            out.append(parse_pair(entry) if isinstance(entry, (list, tuple)) else qq(entry))
        except (ValueError, TypeError) as exc:
            raise AlgebraFormatError(f"{where}[{idx}]: {exc}") from exc
    return tuple(out)


def from_json_dict(data: dict) -> FiniteAlgebra:
    if not isinstance(data, dict):
        raise AlgebraFormatError("top level must be a JSON object")
    for key in ("name", "dim", "labels", "sc"):
        if key not in data:
            raise AlgebraFormatError(f"missing required key {key!r}")
    name = data["name"]
    n = data["dim"]
    if not isinstance(n, int) or n < 1:
        raise AlgebraFormatError(f"dim must be a positive integer, got {n!r}")
    labels = data["labels"]
    if len(labels) != n:
        raise AlgebraFormatError(f"expected {n} labels, got {len(labels)}")
    c = _zero_tensor(n)
    seen = set()
    for pos, entry in enumerate(data["sc"]):
        if len(entry) != 5:
            raise AlgebraFormatError(f"sc[{pos}]: expected [i, j, k, re, im]")
        i, j, k, re, im = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or not (0 <= idx < n):
                raise AlgebraFormatError(f"sc[{pos}]: index {idx!r} out of range 0..{n - 1}")
        if (i, j, k) in seen:
            raise AlgebraFormatError(f"sc[{pos}]: duplicate key ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            c[i][j][k] = parse_pair([re, im])
        except (ValueError, TypeError) as exc:
            raise AlgebraFormatError(f"sc[{pos}]: {exc}") from exc
    unit = None
    if "unit" in data and data["unit"] is not None:
        unit = _parse_vector(data["unit"], n, "unit")
    idem = None
    if "idempotent_span" in data and data["idempotent_span"] is not None:
        idem = tuple(
            _parse_vector(v, n, f"idempotent_span[{t}]")
            for t, v in enumerate(data["idempotent_span"])
        )
    weight = None
    if "weight" in data and data["weight"] is not None:
        raw = data["weight"]
        if len(raw) != n:
            raise AlgebraFormatError(f"weight: expected {n} entries, got {len(raw)}")
        try:
            weight = tuple(Fraction(str(w)) for w in raw)
        except (ValueError, TypeError) as exc:
            raise AlgebraFormatError(f"weight: {exc}") from exc
        if any(w <= 0 for w in weight):
            raise AlgebraFormatError("weight entries must be positive")
    chars = None
    if "characters" in data and data["characters"] is not None:
        chars = tuple(
            _parse_vector(v, n, f"characters[{t}]")
            for t, v in enumerate(data["characters"])
        )
    return FiniteAlgebra(
        name=name,
        dim=n,
        sc=_freeze_tensor(c),
        labels=tuple(labels),
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
    try:
        return from_json_dict(data)
    except AlgebraFormatError as exc:
        raise AlgebraFormatError(f"{path}: {exc}") from exc


def dump_algebra(a: FiniteAlgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(a), fh, indent=2, sort_keys=True)
        fh.write("\n")
