"""Float-backend elimination kernel.

The hot loop of the float backend is Gauss-Jordan elimination with partial
pivoting on complex128 matrices, written with numpy row operations.  It is
the package's one float elimination routine.  ``kernel_backend()`` names it
so that benchmark records say which kernel produced their float timings.
"""

from __future__ import annotations

import numpy as np


def rref_inplace(a: np.ndarray, tol_abs: float):
    """Reduce a complex128 matrix to RREF in place.

    Returns (rank, tuple of pivot columns).  Pivot choice: the first entry
    of largest modulus at or below the current row.  Entries with modulus
    <= tol_abs are treated as zero.
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


def kernel_backend() -> str:
    return "numpy"
