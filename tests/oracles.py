"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's exact elimination path: constraint
matrices are built by numerically evaluating the defining identities on
basis vectors (via the algebra's own multiply), and dimensions come from
numpy's SVD-based rank.  Agreement between these oracles and the engines
is therefore a genuine two-route check.  The remaining oracles are
references for rewritten package code: :func:`reference_rref_exact`, a
dense Gauss-Jordan elimination, for the sparse ``rref_exact``;
:func:`reference_rref_inplace`, the float Gauss-Jordan kernel updating
whole rows, for the restricted update of ``_kernels.rref_inplace``;
:func:`reference_radical_rows`, the trace form read off whole
left-multiplication matrices, for the trace-vector ``radical``; and
:func:`reference_validate`, associativity and the declared unit tested by
``multiply`` on dense vectors, for the sparse tests of ``validate``;
:func:`reference_ideal_product_span`, the products of basis vectors by
``multiply``, for the products read off ``nz``;
:func:`reference_reduce` and :func:`reference_reduce_float`, the
reduction of a dense vector by whole dense rows, for the sparse
``Subspace.reduce`` of each lane; and :func:`matvec_exact`,
dense exact products of rows with a vector.  :func:`change_basis`
rewrites an algebra on another basis, for invariance tests.

The ``qqi_*`` functions are the system builders the package had before
its builders read the Gaussian integers of ``FiniteAlgebra.integer_nz``:
the same rows, in the same order and with the same columns, built in
``QQi`` arithmetic off ``nz`` (or in complex arithmetic, for a float
subspace), for tests that the integer rows span the same space and that
the float lane reads them to the same bits.  The tensor-square builders
among them expand elementary tensors whose products come from
:func:`qqi_multiply`, the product of ``QQi`` vectors ``multiply`` was
before it computed on Gaussian integers; the semigroup ones read the
product table.
"""

from __future__ import annotations

import numpy as np

from amenalyzer.algebra import FiniteAlgebra, ValidationIssue, recover_cayley_table, unitize
from amenalyzer.linalg import EXACT, LANES, rowspace
from amenalyzer.scalars import ONE, ZERO


def _vec(a, i):
    v = np.zeros(a.dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def mul_float(a, x, y):
    """Float product via the structure tensor, evaluated directly."""
    n = a.dim
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                c = a.sc[i][j][k]
                if not c.is_zero():
                    out[k] += x[i] * y[j] * complex(c)
    return out


def derivation_constraint_matrix(a):
    """Rows indexed by basis triples, columns by matrix units, evaluated
    numerically from the identity D(xy) = D(x).y + x.D(y)."""
    n = a.dim
    rows = []
    for i in range(n):
        ei = _vec(a, i)
        for j in range(n):
            ej = _vec(a, j)
            eij = mul_float(a, ei, ej)
            for l in range(n):
                el = _vec(a, l)
                ejl = mul_float(a, ej, el)
                eli = mul_float(a, el, ei)
                row = np.zeros(n * n, dtype=np.complex128)
                for p in range(n):
                    for q in range(n):
                        # value of the constraint at M = matrix unit E_pq
                        row[p * n + q] = (
                            eij[p] * el[q] - ei[p] * ejl[q] - ej[p] * eli[q]
                        )
                rows.append(row)
    return np.array(rows)


def oracle_derivation_dim(a) -> int:
    mat = derivation_constraint_matrix(a)
    rank = np.linalg.matrix_rank(mat, tol=1e-8)
    return a.dim * a.dim - int(rank)


def oracle_inner_dim(a) -> int:
    n = a.dim
    rows = []
    for k in range(n):
        row = np.zeros(n * n, dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                prod1 = mul_float(a, _vec(a, i), _vec(a, j))
                prod2 = mul_float(a, _vec(a, j), _vec(a, i))
                row[i * n + j] = prod1[k] - prod2[k]
        rows.append(row)
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
    return int(rank)


def oracle_cyclic_dim(a) -> int:
    n = a.dim
    deriv = derivation_constraint_matrix(a)
    anti = []
    for i in range(n):
        for j in range(i, n):
            row = np.zeros(n * n, dtype=np.complex128)
            row[i * n + j] += 1.0
            row[j * n + i] += 1.0
            anti.append(row)
    stacked = np.vstack([deriv, np.array(anti)])
    rank = np.linalg.matrix_rank(stacked, tol=1e-8)
    return n * n - int(rank)


def oracle_point_derivation_dim(a, phi_values) -> int:
    """phi_values: complex vector of character values (or zeros)."""
    n = a.dim
    phi = np.asarray(phi_values, dtype=np.complex128)
    rows = []
    for i in range(n):
        for j in range(n):
            prod = mul_float(a, _vec(a, i), _vec(a, j))
            row = np.zeros(n, dtype=np.complex128)
            for t in range(n):
                # value of the constraint at d = coordinate projection t
                row[t] = prod[t] - (1.0 if i == t else 0.0) * phi[j] - phi[i] * (
                    1.0 if j == t else 0.0
                )
            rows.append(row)
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
    return n - int(rank)


def oracle_product_span_dim(a) -> int:
    n = a.dim
    rows = [
        mul_float(a, _vec(a, i), _vec(a, j)) for i in range(n) for j in range(n)
    ]
    return int(np.linalg.matrix_rank(np.array(rows), tol=1e-8))


def reference_rref_exact(rows):
    """Dense exact Gauss-Jordan reduction over whole QQi rows.

    Returns (tuple of nonzero RREF rows, tuple of pivot columns).  The pivot
    in each step is the first nonzero entry of the column; zero and
    duplicate rows are eliminated like any others.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        prow = None
        for i in range(r, nrows):
            if not work[i][col].is_zero():
                prow = i
                break
        if prow is None:
            continue
        if prow != r:
            work[r], work[prow] = work[prow], work[r]
        piv = work[r][col]
        if piv != ONE:
            inv = piv.inverse()
            work[r] = [x * inv for x in work[r]]
        rrow = work[r]
        for i in range(nrows):
            if i == r:
                continue
            f = work[i][col]
            if f.is_zero():
                continue
            row = work[i]
            work[i] = [a - f * b for a, b in zip(row, rrow)]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reference_rref_inplace(a, tol_abs):
    """Float Gauss-Jordan with partial pivoting, each step updating the
    whole matrix.

    Same contract as ``_kernels.rref_inplace``: reduces the complex128
    array ``a`` in place and returns (rank, tuple of pivot columns).  The
    pivot row is scaled whole and its outer product with the pivot column
    is subtracted from every row, zero factors included.
    """
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        col_abs = np.abs(a[r:, col])
        p = r + int(np.argmax(col_abs))
        if abs(a[p, col]) <= tol_abs:
            a[r:, col] = 0.0
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] / a[r, col]
        a[r, col] = 1.0
        factors = a[:, col].copy()
        factors[r] = 0.0
        a -= np.outer(factors, a[r])
        a[:, col] = 0.0
        a[r, col] = 1.0
        pivots.append(col)
        r += 1
    return r, tuple(pivots)


def reference_validate(a):
    """The associativity and unit issues of ``validate``, in its order.

    Both sides of every triple, and u e_j and e_j u for a declared unit u,
    are evaluated with ``multiply`` on dense coordinate vectors and
    compared entry by entry.
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
                issues.append(ValidationIssue("unit", (j,), f"u*e{j} != e{j}"))
            if a.multiply(ej, u) != ej:
                issues.append(ValidationIssue("unit", (j,), f"e{j}*u != e{j}"))
    return tuple(issues)


def reference_radical_rows(a):
    """The trace-form system of ``radical``, one left-multiplication matrix
    per entry.

    Row j, column k is the trace of left multiplication by e_k b_j on the
    unitization, for every basis vector b_j of the unitization; the
    matrix of left multiplication is built column by column with
    ``multiply``.
    """
    sharp = unitize(a)
    m = sharp.dim
    rows = []
    for j in range(m):
        bj = sharp.basis_vector(j)
        row = []
        for k in range(a.dim):
            prod = sharp.multiply(sharp.basis_vector(k), bj)
            cols = [sharp.multiply(prod, sharp.basis_vector(t)) for t in range(m)]
            tr = ZERO
            for t in range(m):
                tr = tr + cols[t][t]
            row.append(tr)
        rows.append(row)
    return rows


def reference_ideal_product_span(a, s):
    """The canonical RREF (rows, pivots) of the span of the products u v of
    the basis vectors of an exact subspace, each product by ``multiply``
    and the span by :func:`reference_rref_exact`."""
    vecs = s.basis_vectors()
    return reference_rref_exact([a.multiply(u, v) for u in vecs for v in vecs])


def reference_reduce(s, vec):
    """(coefficients, remainder) of a dense QQi vector against the dense
    RREF rows of an exact subspace: each row is subtracted, times the
    vector's entry at its pivot, from the whole vector."""
    v = list(vec)
    coeffs = []
    for row, p in zip(s.rows, s.pivots):
        coef = v[p]
        coeffs.append(coef)
        if not coef.is_zero():
            v = [x - coef * y for x, y in zip(v, row)]
    return coeffs, v


def reference_reduce_float(s, vec):
    """(coefficients, remainder) of a vector against the dense complex128
    RREF rows of a float subspace: each row is subtracted, times the
    vector's entry at its pivot, from the whole complex128 vector."""
    v = np.array(vec, dtype=np.complex128)
    coeffs = []
    for row, p in zip(s.rows, s.pivots):
        coef = v[p]
        coeffs.append(coef)
        if not abs(coef) <= 0.0:
            v = v - coef * row
    return coeffs, v


def matvec_exact(rows, v):
    """The exact products of dense QQi rows with the vector v."""
    out = []
    for row in rows:
        acc = ZERO
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return out


def _row_times(v, m):
    """The row vector v times the matrix m."""
    out = [ZERO] * len(m[0])
    for x, row in zip(v, m):
        if not x.is_zero():
            out = [acc + x * y for acc, y in zip(out, row)]
    return tuple(out)


def change_basis(a, p):
    """The algebra on the basis f_r = sum_i p[r][i] e_i, or None when the
    square QQi matrix p is singular.

    With q = p^-1, coordinates change as x' = x q, so the constants become
    sc'[r][s] = (sum_ij p[r][i] p[s][j] e_i e_j) q.  The unit and declared
    idempotents change as coordinates; a weight, which belongs to its basis,
    and declared characters are dropped.  The inverse comes from
    :func:`reference_rref_exact`, not from the package.
    """
    n = a.dim
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(p)]
    red, pivots = reference_rref_exact(aug)
    if pivots != tuple(range(n)):
        return None
    q = [row[n:] for row in red]
    sc = tuple(
        tuple(
            _row_times(a.multiply(list(p[r]), list(p[s])), q)
            for s in range(n)
        )
        for r in range(n)
    )
    return FiniteAlgebra(
        name=f"{a.name}~P",
        dim=n,
        sc=sc,
        labels=tuple(f"f{i}" for i in range(n)),
        unit=None if a.unit is None else _row_times(a.unit, q),
        idempotent_span=(
            None if a.idempotent_span is None
            else tuple(_row_times(v, q) for v in a.idempotent_span)
        ),
    )


# ---------------------------------------------------------------------------
# the QQi system builders


def qqi_derivation_rows(a):
    """One {column: QQi} row per basis triple (i, j, l): the pairing of
    D(e_i e_j) against e_l minus those of D(e_i) against e_j e_l and of
    D(e_j) against e_l e_i; terms that cancel leave no entry."""
    n = a.dim
    nz = a.nz
    neg = [[tuple((m, -c) for m, c in terms) for terms in plane] for plane in nz]
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
                            x = x + c
                            if x:
                                row[col] = x
                            else:
                                del row[col]
                rows.append(row)
    return rows


def qqi_inner_rows(a):
    """Row k holds c_ij^k at (i, j) and -c_ij^k at (j, i), summed."""
    n = a.dim
    rows = [{} for _ in range(n)]
    for i, plane in enumerate(a.nz):
        for j, terms in enumerate(plane):
            for k, c in terms:
                row = rows[k]
                row[i * n + j] = row.get(i * n + j, ZERO) + c
                row[j * n + i] = row.get(j * n + i, ZERO) - c
    return rows


def qqi_product_rows(a):
    """e_i e_j as a dict row, one per pair (i, j)."""
    return [dict(terms) for plane in a.nz for terms in plane]


def _unit_scaled(row):
    """The nonzeros of the dict row divided by the one of largest modulus."""
    row = {k: x for k, x in row.items() if x}
    if not row:
        return row
    inv = max(row.values(), key=lambda x: x.re * x.re + x.im * x.im).inverse()
    return {k: x * inv for k, x in row.items()}


def qqi_radical_rows(a):
    """The trace-form rows of ``radical`` read off ``nz``, each divided by
    its entry of largest modulus: row j holds sum_s c_kj^s tau_s at k, and
    the last row is tau."""
    n = a.dim
    nz = a.nz
    tau = [
        sum((c for t, terms in enumerate(plane) for k, c in terms if k == t), ZERO)
        for plane in nz
    ]
    rows = [
        {k: sum((c * tau[s] for s, c in nz[k][j]), ZERO) for k in range(n) if nz[k][j]}
        for j in range(n)
    ]
    rows.append(dict(enumerate(tau)))
    return [_unit_scaled(row) for row in rows]


def qqi_commutator_rows(a):
    """e_i e_j - e_j e_i as a dict row, one per pair i < j."""
    n = a.dim
    nz = a.nz
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = dict(nz[i][j])
            for k, c in nz[j][i]:
                row[k] = row.get(k, ZERO) - c
            rows.append(row)
    return rows


def qqi_ideal_closure(a, s):
    """The ideal generated by an exact subspace: each round adds e_i v and
    v e_i for the rows v the last round added, in QQi arithmetic."""
    nz = a.nz
    n = a.dim
    current, fresh = s, s.basis
    while True:
        rows = list(current.basis)
        for v in fresh:
            for i in range(n):
                left, right = {}, {}
                for j, x in v.items():
                    for row, products in ((left, nz[i][j]), (right, nz[j][i])):
                        for k, c in products:
                            row[k] = row[k] + x * c if k in row else x * c
                rows += (left, right)
        bigger = rowspace(rows, n, EXACT)
        if bigger.dim == current.dim:
            return bigger
        old = set(current.pivots)
        fresh = [v for v, p in zip(bigger.basis, bigger.pivots) if p not in old]
        current = bigger


def qqi_ideal_product_rows(a, s):
    """The product u v of every pair of basis rows of a subspace, in the
    arithmetic of its lane: QQi, or complex with each constant complex(c)."""
    lane = LANES[s.backend]
    vecs = [list(row.items()) for row in s.basis]
    rows = []
    for u in vecs:
        for v in vecs:
            row = {}
            for i, x in u:
                plane = a.nz[i]
                for j, y in v:
                    if plane[j]:
                        xy = x * y
                        for k, c in plane[j]:
                            term = xy * lane.coerce(c)
                            row[k] = row[k] + term if k in row else term
            rows.append(row)
    return rows


def qqi_idempotent_span_issues(a):
    """The idempotent issues of ``validate``, each square by ``multiply``
    and the span by the rank of the vectors."""
    issues = [
        ValidationIssue("idempotent", (idx,), "declared vector is not idempotent")
        for idx, v in enumerate(a.idempotent_span)
        if a.multiply(list(v), list(v)) != list(v)
    ]
    if rowspace(list(a.idempotent_span), a.dim, EXACT).dim != a.dim:
        issues.append(ValidationIssue("idempotent", (), "declared idempotents do not span the algebra"))
    return issues


def qqi_multiply(a, x, y):
    """The product of two ``QQi`` coordinate vectors, summed term by term
    in ``QQi`` arithmetic off ``nz``."""
    out = [ZERO] * a.dim
    for xi, plane in zip(x, a.nz):
        if xi.is_zero():
            continue
        for yj, terms in zip(y, plane):
            if not terms or yj.is_zero():
                continue
            coef = xi * yj
            for k, c in terms:
                out[k] = out[k] + coef * c
    return out


def _qqi_basis_products(a):
    """The basis vectors and every product e_i e_j by :func:`qqi_multiply`,
    each as the list of its nonzero (index, value) terms."""
    basis = [a.basis_vector(i) for i in range(a.dim)]
    prod = [
        [[(k, c) for k, c in enumerate(qqi_multiply(a, x, y)) if not c.is_zero()] for y in basis]
        for x in basis
    ]
    return [[(i, ONE)] for i in range(a.dim)], prod


def _qqi_add_elementary(row, u, v, n, subtract=False):
    """Add (or subtract) the coefficients of p(u tensor v) against the
    P[a][b] to the dict row; a coefficient of one is not multiplied."""
    for s, ua in u:
        for t, vb in v:
            k = s * n + t
            term = vb if ua is ONE else ua if vb is ONE else ua * vb
            if subtract:
                term = -term
            x = row.get(k)
            row[k] = term if x is None else x + term


def qqi_quasi_additive_rows(a):
    """One row per basis triple (i, j, l): p(e_i e_j tensor e_l) minus
    p(e_i tensor e_j e_l) and p(e_j tensor e_l e_i), expanded."""
    n = a.dim
    basis, prod = _qqi_basis_products(a)
    rows = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = {}
                _qqi_add_elementary(row, prod[i][j], basis[l], n)
                _qqi_add_elementary(row, basis[i], prod[j][l], n, subtract=True)
                _qqi_add_elementary(row, basis[j], prod[l][i], n, subtract=True)
                rows.append(row)
    return rows


def qqi_inner_quasi_rows(a):
    """Row k holds the coefficient of e_k in e_i e_j - e_j e_i at (i, j)."""
    n = a.dim
    _, prod = _qqi_basis_products(a)
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, c in prod[i][j]:
                rows[k][i * n + j] = rows[k].get(i * n + j, ZERO) + c
            for k, c in prod[j][i]:
                rows[k][i * n + j] = rows[k].get(i * n + j, ZERO) - c
    return rows


def qqi_semigroup_rows(a):
    """q(xy, z) - q(x, yz) - q(y, zx), one row per triple of elements."""
    table = recover_cayley_table(a)
    n = a.dim
    rows = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = {table[x][y] * n + z: ONE}
                for k in (x * n + table[y][z], y * n + table[z][x]):
                    row[k] = row.get(k, ZERO) - ONE
                rows.append(row)
    return rows


def qqi_inner_q_rows(a):
    """Row t holds +1 at (x, y) for xy = t and -1 for yx = t, summed."""
    table = recover_cayley_table(a)
    n = a.dim
    rows = [{} for _ in range(n)]
    for x in range(n):
        for y in range(n):
            row = rows[table[x][y]]
            row[x * n + y] = row.get(x * n + y, ZERO) + ONE
            row = rows[table[y][x]]
            row[x * n + y] = row.get(x * n + y, ZERO) - ONE
    return rows
