"""Float-backend elimination kernel.

The hot loop of the float backend is Gauss-Jordan elimination with partial
pivoting on float64 or complex128 matrices, written with numpy row
operations.  It is the package's one float elimination routine.
``kernel_backend()`` names it so that benchmark records say which kernel
produced their float timings.

Each pivot step updates only the entries it can change.  Every column left
of the current one is exactly zero in the rows not yet pivoted: each step
zeroes its own column, and a column skipped as zero is zeroed from the
current row down.  So the pivot row is exactly zero left of its pivot, and
a row with an exactly zero entry in the pivot column is left as it is.  The
values are those of a whole-matrix update; only the sign of zeros differs.

A float64 pivot row is scaled by the reciprocal of its pivot, not divided
by it.  numpy divides a complex number by a complex p with zero imaginary
part as re * (1 / p), so with that one line every step gives on a real
matrix the bits the complex128 elimination of the same matrix gives, up to
the sign of zeros: a modulus of re + 0j is |re|, and a product or a
difference of such numbers has the real part the float64 operation gives.
"""

from __future__ import annotations

import numpy as np


def rref_inplace(a: np.ndarray, tol_abs: float):
    """Reduce a float64 or complex128 matrix to RREF in place, in its dtype.

    Returns (rank, tuple of pivot columns).  Pivot choice: the first entry
    of largest modulus at or below the current row.  Entries with modulus
    <= tol_abs are treated as zero.

    Invariant: when column ``col`` is pivoted in row ``r``, rows r and
    below are exactly zero left of ``col``.  So the step scales
    ``a[r, col:]`` and subtracts multiples of it from ``a[nz, col:]`` only,
    ``nz`` being the rows with a nonzero entry in ``col``.  Zeros may come
    out as -0.0; the caller clears their sign.
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
        prow = a[r, col:]
        if a.dtype == np.float64:
            prow *= 1.0 / prow[0]  # the complex128 quotient's bits; see the module docstring
        else:
            prow /= prow[0]
        prow[0] = 1.0
        factors = a[:, col].copy()
        factors[r] = 0.0
        nz = np.flatnonzero(factors)
        a[nz, col:] -= np.outer(factors[nz], prow)
        a[nz, col] = 0.0
        pivots.append(col)
        r += 1
    return r, tuple(pivots)


def kernel_backend() -> str:
    return "numpy"
