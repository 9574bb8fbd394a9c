"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's exact elimination path: constraint
matrices are built by numerically evaluating the defining identities on
basis vectors (via the algebra's own multiply), and dimensions come from
numpy's SVD-based rank.  Agreement between these oracles and the engines
is therefore a genuine two-route check.  The exact oracles are
references for rewritten package code: :func:`reference_rref_exact`, a
dense Gauss-Jordan elimination, for the sparse ``rref_exact``, and
:func:`reference_radical_rows`, the trace form read off whole
left-multiplication matrices, for the trace-vector ``radical``.
"""

from __future__ import annotations

import numpy as np

from amenalyzer.algebra import unitize
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
