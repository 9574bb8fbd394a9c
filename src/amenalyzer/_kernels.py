"""Float-backend elimination kernels.

The hot loop of the float backend is Gauss-Jordan elimination with partial
pivoting on complex128 matrices.  By default it is compiled with numba;
setting the environment variable ``AMENALYZER_NO_NUMBA=1`` (or a failed
numba import) selects a pure-numpy implementation with identical pivoting
semantics.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("AMENALYZER_NO_NUMBA", "").strip() not in ("", "0")

try:
    if _DISABLED:
        raise ImportError("numba disabled by AMENALYZER_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False


def _rref_numpy(a, tol_abs):
    """Row-reduce ``a`` in place; returns (rank, pivot column list).

    Pivot choice: the first entry of largest modulus at or below the
    current row.  Entries with modulus <= tol_abs are treated as zero.
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
    return r, pivots


if HAVE_NUMBA:

    @njit(cache=True)
    def _rref_numba(a, tol_abs):  # pragma: no cover - measured via wrapper
        nrows, ncols = a.shape
        pivots = np.empty(min(nrows, ncols), dtype=np.int64)
        r = 0
        for col in range(ncols):
            if r >= nrows:
                break
            best = r
            best_abs = abs(a[r, col])
            for i in range(r + 1, nrows):
                v = abs(a[i, col])
                if v > best_abs:
                    best = i
                    best_abs = v
            if best_abs <= tol_abs:
                for i in range(r, nrows):
                    a[i, col] = 0.0
                continue
            if best != r:
                for j in range(ncols):
                    tmp = a[r, j]
                    a[r, j] = a[best, j]
                    a[best, j] = tmp
            piv = a[r, col]
            for j in range(ncols):
                a[r, j] = a[r, j] / piv
            a[r, col] = 1.0
            for i in range(nrows):
                if i == r:
                    continue
                f = a[i, col]
                if f != 0:
                    for j in range(ncols):
                        a[i, j] = a[i, j] - f * a[r, j]
                    a[i, col] = 0.0
            pivots[r] = col
            r += 1
        return r, pivots[:r]


def rref_inplace(a: np.ndarray, tol_abs: float):
    """Reduce a complex128 matrix to RREF in place.

    Returns (rank, tuple of pivot columns).  Dispatches to the numba kernel
    unless it is unavailable or disabled.
    """
    if a.size == 0:
        return 0, ()
    if HAVE_NUMBA:
        rank, piv = _rref_numba(a, tol_abs)
        return rank, tuple(int(p) for p in piv)
    rank, piv = _rref_numpy(a, tol_abs)
    return rank, tuple(piv)


def kernel_backend() -> str:
    return "numba" if HAVE_NUMBA else "numpy"
