"""Field-generic linear algebra on two scalar backends.

Everything downstream reduces to row-reduced echelon forms, kernels, and a
small lattice of subspaces of coordinate space.  This module is the one
place that knows the two backends, or lanes:

* ``exact``  - values are :class:`~amenalyzer.scalars.QQi` (complex numbers
  with rational parts); arithmetic never rounds, so RREF is a syntactically
  canonical form and subspace equality is entry equality.
  :func:`_exact_pivot_rows` eliminates the dict rows of one block as they
  come and drops zero values and repeated rows itself.  Its one form of a
  row is Gaussian integers: {column: (re, im)} Python-int pairs, (0, 0)
  being zero, the row taken up to a nonzero scale, since scaling a row
  leaves its row space unchanged.  The system builders hand their rows over
  in that form; a {column: QQi} row from any other caller is cleared of its
  denominators there, once.  The core works fraction-free on those
  integers, each row over one positive integer; the lane converts back to
  ``QQi`` only at the end, into the {column: QQi} dicts of the RREF rows'
  nonzeros.  A block with enough nonzeros, :data:`_MODULAR_NONZEROS` in all
  and :data:`_MODULAR_DENSITY` a row, such as the one block of the
  derivation system in a dense basis, is eliminated modulo the word-size
  primes of :data:`_PRIMES` instead (:func:`_modular_rref`): its RREF is
  read back from the residues and accepted only when an exact check
  proves it, and the core on all rows is its fallback.  So each block has
  one exact routine, and no prime decides a rank, a pivot or an entry.
  :func:`rref_exact` is the same elimination, of dense rows, with dense
  rows out.
* ``float``  - each block is eliminated as a numpy complex128 array; rank
  decisions use the one fixed tolerance :data:`DEFAULT_TOL` (``1e-9``),
  relative to the largest row norm.  A block is eliminated in float64 when
  every value of its system is real, half the bytes of complex128, to the
  same bits; its RREF rows come out as {column: complex} dicts of their
  nonzeros either way.
  :func:`rref_float` is the dense elimination of a copy of a whole array,
  the reference the block routine is tested against.

Each lane is an ops object in :data:`LANES` holding its zero and one, scalar
coercion, a zero test (``QQi.is_zero()`` exact, ``abs(x) <= bound`` float),
its vector and matrix containers, its elimination and its dense form of a
basis.  :func:`nullspace`,
:func:`rowspace` and :meth:`Subspace.contains` take ``QQi`` input on either
backend, or complex input on the float one, and convert it to the lane of
their backend; every algorithm above them is written once.

The system builders compute on pairs (re, im) over a positive integer
denominator, one row at a time, and hand each lane its own form of them:
a lane reads values as pairs (``pairs``) and takes a system of pair rows
(``pair_system``).  On the exact lane the pairs are Gaussian integers, and
the rows go to the door as they are, whatever their denominators.  On the
float lane the pairs of exact data are Gaussian integers too, and a row
over D becomes {column: complex(re / D, im / D)}: int true division rounds
correctly, so each value has the bits ``complex(QQi)`` gives the same
number.  Float data, such as a float subspace's rows, is read as the parts
of ``complex(x)`` over 1, and arithmetic on those pairs rounds as complex
arithmetic does.

Every system reaches its lane's elimination by one door, :func:`_blocks`.
A system is a list of rows, each a {column: value} dict of its nonzeros,
as the system builders hand them over, or a dense row; or it is a 2-d
array.  Each row is read as the dict of its nonzeros, and the system is
split into its independent blocks: two columns are linked when one row
holds both, and each connected component is eliminated on its own, with
the lane's one routine: as its dict rows on the exact lane, as an array of
the block's width only on the float lane.  The RREF of the whole is the
union of the blocks' RREF rows, merged in pivot order, so no system is
ever dense in full; in a basis of matrix units, monomials or semigroup
elements the derivation system falls into hundreds of blocks.  No routine
here changes a caller's rows or array, but the float lane's
``pair_system``, which converts a builder's own rows in place.

Subspaces are always stored by their RREF basis, one row per basis vector,
in one form on both lanes: the {column: value} dict of the row's nonzeros,
pivot first, with ``QQi`` values on the exact lane and Python ``complex``
values on the float lane.  One routine reduces a vector against those rows
and tests membership on either lane; the lanes differ only in their
arithmetic and their zero test.  The dense rows, QQi tuples or a read-only
complex128 array, are made only when a caller reads ``Subspace.rows``.
"""

from __future__ import annotations

import errno
import math
import mmap
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from . import _kernels
from .scalars import ONE, ZERO, QQi, gaussian_integers

DEFAULT_TOL = 1e-9  # the float lane's one tolerance; every float zero test reads it
_SCALE_BLOCK = 1 << 13  # entries of a row block in matrix_scale: 64 KiB of float64
_OWN_PAGES = 1 << 20  # bytes from which system_zeros maps a system on pages of its own
# Which exact blocks _modular_rref eliminates, by the nonzeros of their
# distinct primitive rows: at least _MODULAR_NONZEROS in all and
# _MODULAR_DENSITY a row on average; the others go to the core.  Both routes
# were timed on every block of one pass of ladder-exact, two seeds of
# dense-gauss, one exact crosscheck, exact TruncPoly36, TruncPoly64, M6, M8
# and Pointwise64, and dense TruncPoly8, M3, TruncPoly10 and Pointwise10
# (best of three, Python 3.11, numpy 2.4, 2 vCPUs).  Density: below 2.75 a
# row the core was 10-25% faster on the sparse full-rank blocks of
# TruncPoly36 and TruncPoly64 (17 to 59 columns, 1.9 to 2.7 a row;
# TruncPoly64's 1049 x 59: 2.9 against 3.3 ms) and on M8's 176 x 16 blocks,
# which a rule on width alone sent the other way; from 2.8 a row their
# rank-deficient blocks were 2-5x faster modular (TruncPoly36's 256 x 32:
# 9.3 -> 2.9 ms, TruncPoly64's 992 x 63: 74 -> 14 ms), and dense-gauss's 16-
# and 25-column blocks (7 to 12 a row) 3-12x (125 x 25: 31 -> 2.5 ms).
# Size: the modular route costs 0.12 ms or more, so on the 522 blocks below
# 250 nonzeros it gained 0.5 ms at most and took 155 against 46 ms in all
# (ladder-exact's 69 x 15 at 2.8 a row: 0.82 against 0.47 ms); above it
# dense narrow blocks gained too (dense TruncPoly10's 55 x 10: 3.4 -> 0.45
# ms).  On every input the rule's total was within 1.2 ms of the faster
# route's, block by block, but on dense M3 (64.1 against 59.9 ms, from one
# 8 x 72 block).
_MODULAR_NONZEROS = 250
_MODULAR_DENSITY = 2.75
# The primes of _modular_rref, the five largest p = 1 (mod 4) below 2^31,
# each with a square root s of -1 mod p, the image of i
_PRIMES = (
    (2147483629, 1518275076),
    (2147483549, 895500278),
    (2147483497, 415680079),
    (2147483489, 625866212),
    (2147483477, 833330490),
)

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
    """Exact reduced row echelon form of equal-length ``QQi`` rows.

    ``rows`` is any iterable of dense rows; it is the exact lane's own
    elimination, :func:`_rref_exact_blocks`, with ``ncols`` the length of a
    row.  Returns (tuple of nonzero RREF rows, tuple of pivot columns), the
    rows as dense tuples in pivot order.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    basis, pivots = _rref_exact_blocks(rows, ncols)
    return _ExactLane.dense(basis, ncols), pivots


def _nonzero(x) -> bool:
    """Whether a value of an exact row, a ``QQi`` or a Gaussian-integer
    pair (re, im), is nonzero."""
    return bool(x[0] or x[1]) if type(x) is tuple else bool(x)


def _gaussian_items(row):
    """The (column, (re, im)) Gaussian-integer items of a nonempty exact
    row: a row of integer pairs as it is, a row of ``QQi`` values cleared
    of its denominators."""
    if type(next(iter(row.values()))) is tuple:
        return row.items()
    return zip(row, gaussian_integers(row.values())[1])


def _exact_pivot_rows(group, cols):
    """The fully reduced pivot rows of one block of dict rows on the
    columns ``cols``, computed over Z[i]: a dict {pivot column: (N, tail)},
    the RREF row being (N at the pivot, tail) / N, N a positive integer and
    the tail {column: (re, im)} of Gaussian integers.

    The rows are Gaussian-integer pairs, or ``QQi`` values, which are
    cleared of denominators (:func:`_gaussian_items`); a pair is zero when
    both parts are, so (0, 0) is zero here as ``ZERO`` is.  A row
    whose one entry is nonzero puts its column's unit vector in the span:
    that column becomes a pivot with an empty tail, and is dropped from
    every other row.  Each other row has its zero values dropped and is
    divided by its integer content; a row equal to an earlier one is then
    skipped.  The rows given are left as they are.

    The rows left take one of two routes, chosen by :func:`_goes_modular`
    from their number and nonzeros: :func:`_modular_rref`, which
    builds the RREF from residues modulo word-size primes and proves it
    exactly, or the fraction-free core :func:`_fraction_free_rref`, which
    is also the modular route's only fallback.  Either way the result is
    the RREF of all the rows.
    """
    units = {c for row in group if len(row) == 1 for c, x in row.items() if _nonzero(x)}
    seen = set()
    vecs = []
    for row in group:
        if len(row) == 1:
            continue
        vec = {c: v for c, v in _gaussian_items(row) if (v[0] or v[1]) and c not in units}
        if not vec:
            continue
        _, vec = _primitive(0, vec)
        # the primitive row is canonical, and its items hash as ints in any order
        key = frozenset(vec.items())
        if key not in seen:
            seen.add(key)
            vecs.append(vec)
    pivot_rows = _modular_rref(vecs) if _goes_modular(vecs) else _fraction_free_rref(vecs)
    pivot_rows.update((c, (1, {})) for c in units)
    return pivot_rows


def _goes_modular(vecs):
    """Whether the distinct primitive rows ``vecs`` of a block are
    eliminated by :func:`_modular_rref`: when they hold at least
    :data:`_MODULAR_NONZEROS` nonzeros, :data:`_MODULAR_DENSITY` a row on
    average."""
    nonzeros = sum(map(len, vecs))
    return nonzeros >= max(_MODULAR_NONZEROS, _MODULAR_DENSITY * len(vecs))


def _modular_rref(vecs):
    """The RREF of the primitive {column: (re, im)} rows ``vecs``, as
    :func:`_fraction_free_rref` gives it, built from residues modulo the
    primes of :data:`_PRIMES` and proved exactly; ``vecs`` is left as it is.

    Each prime p = 1 (mod 4) has a square root s of -1, and the ring maps
    Z[i] -> F_p sending i to s and to -s.  Under the first map of the first
    prime, one Gauss-Jordan elimination of all rows (:func:`_rref_mod`)
    picks the rows that take a pivot: a nonzero minor mod p is nonzero over
    Z[i], so those r rows are independent over Q(i), and r, the rank mod p,
    is at most the rank.  When their pivots fill the block, its RREF is the
    identity.  Otherwise, prime by prime, the RREF of the r chosen rows is
    taken under both maps, and a value x of Q(i) whose images are x+ and x-
    has real part (x+ + x-) / 2 and imaginary part (x+ - x-) / (2s) mod p.
    An image whose pivots are not those of the first one is dropped with
    its prime.  The parts are combined by the Chinese remainder theorem and
    each row is read back as fractions over one denominator
    (:func:`_reconstructed`), which gives a candidate R with one row per
    pivot, r rows.

    R is accepted only when it is proved exactly.  It must be in RREF shape
    (:func:`_in_rref_shape`): 1 at its pivot, 0 at every other pivot and
    nothing left of its pivot, which the span check alone does not see: a
    row with an entry left of its pivot can span the right space.  And
    every row of the block must lie in its span (:func:`_all_in_span`).
    When R fails, the next prime is added: R was read back from too few
    primes, or, with odds of order 1/p, the first prime was unlucky and the
    chosen rows do not span the block, which no prime mends.  An accepted R
    holds every row of the block A in its span, so rank(A) <= rank(R) = r =
    rank of A mod p <= rank(A): the row spaces are equal, and R, in RREF
    shape, is the RREF of A, which is unique.  No prime decides a rank, a
    pivot or an entry.  A block left unproved after the last prime goes to
    the core on all its rows.
    """
    cols = sorted(set().union(*vecs))
    where = dict(zip(cols, range(len(cols))))
    at_row, at_col, parts = [], [], []
    for r, vec in enumerate(vecs):
        at_row += repeat(r, len(vec))
        at_col += map(where.__getitem__, vec)
        parts += chain.from_iterable(vec.values())
    entries = np.array(at_row, dtype=np.intp), np.array(at_col, dtype=np.intp), _int_array(parts).reshape(-1, 2)
    (p, s), *_ = _PRIMES
    chosen, pivots, first = _rref_mod(_image(len(vecs), len(cols), entries, p, s), p)
    if len(pivots) == len(cols):
        return {c: (1, {}) for c in cols}
    # the entries of the chosen rows, renumbered in order
    at_chosen = np.full(len(vecs), -1, dtype=np.intp)
    at_chosen[chosen] = range(len(chosen))
    keep = at_chosen[entries[0]] >= 0
    entries = at_chosen[entries[0][keep]], entries[1][keep], entries[2][keep]
    free = sorted(set(range(len(cols))).difference(pivots))
    acc, m = [], 1
    for k, (p, s) in enumerate(_PRIMES):
        images = [first] if k == 0 else []
        for t in (s, p - s)[len(images) :]:
            _, got, red = _rref_mod(_image(len(chosen), len(cols), entries, p, t), p)
            images.append(red if got == pivots else None)
        if any(red is None for red in images):
            continue
        plus, minus = (red[:, free] for red in images)
        re = (plus + minus) * ((p + 1) // 2) % p
        im = (plus - minus) % p * pow(2 * s, -1, p) % p
        values = np.stack([re, im], axis=-1).ravel().tolist()
        if m == 1:
            acc = values
        else:
            inv = pow(m, -1, p)
            acc = [x + m * ((y - x) * inv % p) for x, y in zip(acc, values)]
        m *= p
        candidate = _reconstructed(acc, m, [cols[c] for c in pivots], [cols[c] for c in free])
        if candidate is not None and _in_rref_shape(candidate) and _all_in_span(vecs, candidate):
            return candidate
    return _fraction_free_rref(vecs)


def _int_array(values):
    """The Python ints ``values`` as an int64 array, or as an object array
    when one is outside the int64 range."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _image(nrows, ncols, entries, p, s):
    """The int64 array of the rows' images in F_p, with i mapped to s:
    ``entries`` is (row indices, column indices, (re, im) parts) of the
    nonzeros.  Each part is reduced mod p in its own dtype, a Python int
    when it is outside int64; residues are below 2^31, so re + im * s is
    below 2^63."""
    at_row, at_col, parts = entries
    res = (parts % p).astype(np.int64)
    a = np.zeros((nrows, ncols), dtype=np.int64)
    a[at_row, at_col] = (res[:, 0] + res[:, 1] * s) % p
    return a


def _rref_mod(a, p):
    """Gauss-Jordan elimination of the int64 array ``a`` of residues mod p,
    which it changes: (the rows that take a pivot, the pivot columns, the
    RREF rows mod p as an array).

    Column by column, the first row left with a nonzero entry becomes the
    pivot row, scaled to 1 there, and the column is cleared from every
    other row, the pivot rows found so far included.  A row that takes a
    pivot is then cleared, so it takes no other; a row left is zero left of
    the column.  Residues are below 2^31, so every product is below 2^62
    and no step overflows.
    """
    nrows, width = a.shape
    red = np.zeros((min(nrows, width), width), dtype=np.int64)
    chosen, pivots = [], []
    for j in range(width):
        hits = np.flatnonzero(a[:, j])
        if not hits.size:
            continue
        k, r = hits[0], len(pivots)
        row = red[r, j:]
        row[...] = a[k, j:] * pow(int(a[k, j]), -1, p) % p
        a[k, j:] = 0
        hits = hits[1:]
        a[hits, j:] = (a[hits, j:] - a[hits, j, None] * row) % p
        above = np.flatnonzero(red[:r, j])
        red[above, j:] = (red[above, j:] - red[above, j, None] * row) % p
        chosen.append(int(k))
        pivots.append(j)
    return chosen, pivots, red[: len(pivots)]


def _reconstructed(acc, m, pivots, free):
    """The candidate pivot rows {pivot: (N, tail)} read back from the
    residues ``acc`` mod m: row k holds, free column by free column, the
    real and then the imaginary part of its entry, and every part is read
    as a fraction whose numerator and denominator are at most sqrt(m / 2)
    (Wang's rational reconstruction, :func:`_rational`), over one
    denominator N per row.  Each part x is first multiplied by the row's
    denominator d so far; when d * x is not a small number mod m it is
    reconstructed, and d grows by the new denominator.  None when a part
    has no such fraction.
    """
    bound = math.isqrt(m // 2)
    step = 2 * len(free)
    out = {}
    for k, pivot in enumerate(pivots):
        d, nums = 1, []
        for x in acc[k * step : (k + 1) * step]:
            y = x * d % m
            if y > m - bound - 1:
                y -= m
            elif y > bound:
                got = _rational(y, m, bound)
                if got is None:
                    return None
                y, e = got
                d *= e
                if d > bound:
                    return None
                nums = [z * e for z in nums]
            nums.append(y)
        out[pivot] = (d, {c: (a, b) for c, a, b in zip(free, nums[::2], nums[1::2]) if a or b})
    return out


def _rational(x, m, bound):
    """(n, d) with n = d * x (mod m), |n| <= bound and 0 < d <= bound, n and
    d coprime, from the extended Euclidean algorithm on (m, x); None when
    there is none."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _in_rref_shape(pivot_rows):
    """Whether the pivot rows {pivot: (N, tail)} are in RREF shape: N
    positive, so the row is 1 at its pivot, and every tail entry nonzero,
    right of its own pivot and at no other pivot.  An entry left of a
    pivot is what :func:`_all_in_span` cannot see: the span of (1, 1) is
    also the span of the row with pivot 1 and a 1 left of it."""
    return all(
        n > 0 and all(c > p and c not in pivot_rows and (a or b) for c, (a, b) in tail.items())
        for p, (n, tail) in pivot_rows.items()
    )


def _all_in_span(vecs, pivot_rows):
    """Whether every {column: (re, im)} row v of the list ``vecs`` is the
    combination sum of v[p] * row_p of the rows (N at p, tail) / N of
    ``pivot_rows``, decided exactly: for rows in RREF shape, whether it
    lies in their span.  No pivot rows span only the zero row.

    An RREF row is 1 at its pivot and 0 at every other pivot, so that sum
    is the only combination a row v of the span can be.  With L the lcm of
    the N and T_p = tail_p * (L / N_p), the sum equals v iff, at every
    column c of a tail, sum of v[p] * T_p[c] is L * v[c] when c is not a
    pivot and 0 when it is, and v has no other nonzero outside the pivots.

    Each side is compared at all columns at once, as one integer per part
    (Kronecker substitution): the column of slot k is the digit at 2^(B*k),
    so each T_p is packed once and a row costs one product per nonzero, not
    one per nonzero and column.  B is chosen so that every digit, L * v[c]
    on one side and a sum of at most len(pivot_rows) products v[p] * T_p[c]
    on the other, is below 2^(B - 1) in absolute value; two integers whose
    digits are that small are equal exactly when every digit is, so the
    comparison is exact.
    """
    lcm = math.lcm(*(n for n, _ in pivot_rows.values()))
    scaled = {p: (lcm // n, tail) for p, (n, tail) in pivot_rows.items()}
    top_t = max((m * max(map(abs, chain.from_iterable(tail.values())), default=0) for m, tail in scaled.values()), default=0)
    top_v = max(map(abs, chain.from_iterable(chain.from_iterable(map(dict.values, vecs)))), default=0)
    bits = max(lcm * top_v, 2 * len(scaled) * top_v * top_t).bit_length() + 1
    shift = {c: bits * k for k, c in enumerate(sorted(set().union(*(tail for _, tail in scaled.values()))))}
    packed = {
        p: (sum(m * a << shift[c] for c, (a, _) in tail.items()), sum(m * b << shift[c] for c, (_, b) in tail.items()))
        for p, (m, tail) in scaled.items()
    }
    for vec in vecs:
        xr = xi = yr = yi = 0
        for c, (a, b) in vec.items():
            pivot = packed.get(c)
            if pivot is not None:
                tr, ti = pivot
                xr += a * tr - b * ti
                xi += a * ti + b * tr
            elif c in shift:
                yr += a << shift[c]
                yi += b << shift[c]
            elif a or b:
                return False
        if xr != lcm * yr or xi != lcm * yi:
            return False
    return True


def _fraction_free_rref(vecs):
    """The fraction-free core of :func:`_exact_pivot_rows`: the fully
    reduced pivot rows {pivot column: (N, tail)} of the primitive
    {column: (re, im)} rows ``vecs``, which it changes.

    Each row is reduced by the pivot row of its leading column until it
    vanishes or leads in a new column.  There it is multiplied by the
    conjugate of its leading entry and becomes that column's pivot row.  A
    row with leading entry f is reduced as N * row - f * tail, and
    back-substitution over the pivot columns, last to first, does the same
    in every row above, each result again divided by its content.  The RREF
    of a row space is unique, so the result is canonical whatever the row
    order or elimination order.
    """
    pivot_rows = {}
    for vec in vecs:
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
    return pivot_rows


def rref_float(arr):
    """Dense float RREF with partial pivoting; see :mod:`amenalyzer._kernels`.

    ``arr`` is a 2-d array, or a list of equal-length rows.  Returns (2-d
    complex128 array of nonzero rows, tuple of pivot columns).
    The pivot threshold is :data:`DEFAULT_TOL` times the largest row norm
    of the input.

    The input is copied into :func:`system_zeros` and left as it is; a
    float64 copy is eliminated in float64, to the bits of complex128.  The
    lanes eliminate each block of a system with the same kernel; this
    eliminates the whole array, the reference the blocks are tested against.
    """
    src = np.asarray(arr)
    if src.dtype != np.float64:
        src = np.asarray(arr, dtype=np.complex128)
    a = system_zeros(src.shape, src.dtype)
    a[...] = src
    return _rref_at(a, DEFAULT_TOL * matrix_scale(a))


def _rref_at(a, tol_abs):
    """The elimination of a writeable, C-contiguous float64 or complex128
    array, in place, at the pivot threshold ``tol_abs``: the whole copy in
    :func:`rref_float`, and each block of a system at the threshold of the
    whole system.

    The rows come out with 1.0 at each pivot, so their entries are ratios
    to a pivot whatever the input's scale: entries of modulus at most
    :data:`DEFAULT_TOL`, not ``tol_abs``, are cleared to zero."""
    rank, pivots = _kernels.rref_inplace(a, tol_abs)
    out = a[:rank]
    out[np.abs(out) <= DEFAULT_TOL] = 0.0
    # the kernel may leave -0.0 parts; adding +0.0 makes every zero positive
    out += 0.0
    return np.asarray(out, dtype=np.complex128), pivots


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
    return _scale_of(top)


def _scale_of(top) -> float:
    """The row-norm scale of a system whose largest squared row norm is
    ``top``: its square root, floored at 1.  An infinite ``top`` raises
    ``OverflowError``."""
    if not math.isfinite(top):
        raise OverflowError(f"a float system's squared row norm is {top}; the float lane cannot rank it")
    return max(1.0, math.sqrt(top))


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


def _dict_rows(rows):
    """The rows of a system as {column: value} dicts of their nonzeros.

    A dict row is taken as it is; a dense row is read entry by entry,
    testing identity with ``ZERO`` first, since assembled rows share that
    object.  A 2-d array's nonzeros are read in one ``np.nonzero`` call,
    and its values become Python scalars.
    """
    if getattr(rows, "ndim", None) == 2:
        at_row, at_col = np.nonzero(rows)
        cols, values = at_col.tolist(), rows[at_row, at_col].tolist()
        cuts = np.searchsorted(at_row, np.arange(len(rows) + 1)).tolist()
        return [dict(zip(cols[s:e], values[s:e])) for s, e in zip(cuts, cuts[1:])]
    return (
        row if type(row) is dict else {c: x for c, x in enumerate(row) if x is not ZERO and x}
        for row in rows
    )


def _blocks(rows, ncols):
    """The independent blocks of a system: a list of (columns ascending,
    the nonempty rows on them in input order, as :func:`_dict_rows`).

    Two columns are linked when one row holds both, and a union-find pass
    over the nonzeros gives the connected components of that graph.  The
    system is block-diagonal after a permutation, so its RREF is the union
    of the blocks' RREF rows.  Columns no row touches are in no block.
    """
    rows = [row for row in _dict_rows(rows) if row]
    # every tree's root is its smallest column, so parent[c] <= c, and one
    # pass in column order then points every column at its root
    parent = list(range(ncols))
    for row in rows:
        if len(row) == 1:
            continue
        r = None
        for c in row:
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            if r is None:
                r = c
            elif c < r:
                parent[r] = r = c
            elif c > r:
                parent[c] = r
    block_rows, block_cols = defaultdict(list), defaultdict(list)
    for c in sorted(set().union(*rows)):
        parent[c] = r = parent[parent[c]]
        block_cols[r].append(c)
    for row in rows:
        block_rows[parent[next(iter(row))]].append(row)
    return [(block_cols[r], group) for r, group in block_rows.items()]


def _rref_exact_blocks(rows, ncols):
    """The exact lane's elimination: :func:`_exact_pivot_rows` of each
    block of a system, the pivot rows of all blocks then made ``QQi`` rows
    in pivot order, once.  Returns (tuple of rows, tuple of pivot columns),
    each row the {column: QQi} dict of its nonzeros in column order, so its
    pivot, whose value is ``ONE``, comes first."""
    pivot_rows = {}
    for cols, group in _blocks(rows, ncols):
        pivot_rows.update(_exact_pivot_rows(group, cols))
    pivots = sorted(pivot_rows)
    out = []
    for p in pivots:
        n, tail = pivot_rows[p]
        row = {p: ONE}
        for c in sorted(tail):
            a, b = tail[c]
            row[c] = QQi(Fraction(a, n), Fraction(b, n))
        out.append(row)
    return tuple(out), tuple(pivots)


def _rref_float_blocks(rows, ncols):
    """:func:`rref_float` of a system, one block at a time: the float
    lane's elimination.

    Each value object is converted with ``complex`` once.  Every block is
    an array of its own width from :func:`system_zeros`, filled by one
    fancy-index assignment: float64 when every imaginary part of the system
    is 0.0, half the bytes, eliminated to the bits of complex128.  All
    blocks are eliminated at the whole system's pivot threshold,
    :data:`DEFAULT_TOL` times its largest row norm, so each rank decision
    compares against the bound :func:`rref_float` would set for the whole
    array, up to the order in which a row's squares are summed.  Returns
    (tuple of rows, tuple of pivot columns), each row the {column: complex}
    dict of its nonzeros in column order, pivot first, as on the exact lane;
    no array wider than a block is made.
    """
    blocks, starts, at_row, at_col, objs = [], [], [], [], []
    for cols, group in _blocks(rows, ncols):
        blocks.append((cols, len(starts), len(starts) + len(group)))
        where = dict(zip(cols, range(len(cols))))
        for r, row in enumerate(group):
            starts.append(len(objs))
            at_row += repeat(r, len(row))  # the row within its block
            at_col += map(where.__getitem__, row)
            objs += row.values()
    starts.append(len(objs))  # row r holds the entries starts[r] to starts[r + 1]
    ids = list(map(id, objs))
    memo = {i: complex(x) for i, x in dict(zip(ids, objs)).items()}
    values = np.asarray(list(map(memo.__getitem__, ids)), dtype=np.complex128)
    if not values.imag.any():
        values = values.real
    moduli = np.abs(values)
    with np.errstate(over="ignore"):
        top = np.add.reduceat(moduli**2, starts[:-1]).max() if objs else 0.0
    tol_abs = DEFAULT_TOL * _scale_of(top)
    passes = (moduli > tol_abs).tobytes()  # one byte per entry, read by one-column blocks
    del moduli
    at_row, at_col = np.array(at_row, dtype=np.intp), np.array(at_col, dtype=np.intp)
    found = {}
    for cols, first, end in blocks:
        start, stop = starts[first], starts[end]
        if len(cols) == 1:
            # one column: its RREF is the unit row when a modulus passes the threshold
            if any(passes[start:stop]):
                found[cols[0]] = {cols[0]: _FloatLane.one}
            continue
        arr = system_zeros((end - first, len(cols)), values.dtype)
        arr[at_row[start:stop], at_col[start:stop]] = values[start:stop]
        red, pivots = _rref_at(arr, tol_abs)
        for row, p in zip(_dict_rows(red), pivots):
            found[cols[p]] = {cols[c]: x for c, x in row.items()}
    pivots = sorted(found)
    return tuple(map(found.__getitem__, pivots)), tuple(pivots)


def _densified(row, ncols, zero=ZERO):
    """A {column: value} dict row as a dense list of length ``ncols``."""
    dense = [zero] * ncols
    for c, x in row.items():
        dense[c] = x
    return dense


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
    def rows_equal(r1, r2, bound) -> bool:
        return r1 == r2

    @staticmethod
    def dense(basis, ncols):
        """The dict rows as dense tuples of length ``ncols``."""
        return tuple(tuple(_densified(row, ncols)) for row in basis)

    rref = staticmethod(_rref_exact_blocks)

    @staticmethod
    def pairs(values):
        """The values as (D, [(re, im), ...]), Gaussian integers over their
        least common denominator D."""
        return gaussian_integers(values)

    @staticmethod
    def pair_system(rows, denominators):
        """{column: (re, im)} rows of Gaussian integers, row r over
        ``denominators[r]``, as the door takes them: the rows themselves,
        since a row's denominator only scales it."""
        return rows


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
    def rows_equal(r1, r2, bound) -> bool:
        diff = np.abs(np.asarray(r1) - np.asarray(r2))
        return bool(diff.max() <= bound) if diff.size else True

    @staticmethod
    def dense(basis, ncols):
        """The dict rows as a read-only complex128 array of ``ncols`` columns."""
        out = np.zeros((len(basis), ncols), dtype=np.complex128)
        for r, row in enumerate(basis):
            out[r, list(row)] = list(row.values())
        out.setflags(write=False)
        return out

    rref = staticmethod(_rref_float_blocks)

    @staticmethod
    def pairs(values):
        """The values as (1, [(re, im), ...]), the parts of ``complex(x)``:
        arithmetic on the pairs then rounds as complex arithmetic does."""
        return 1, [(z.real, z.imag) for z in map(complex, values)]

    @staticmethod
    def pair_system(rows, denominators):
        """A builder's own list of {column: (re, im)} rows, row r over
        ``denominators[r]``, with each value replaced in place by
        complex(re / D, im / D), so no second copy of the system is made.
        On Gaussian integers each part is one correctly rounded int true
        division, the bits ``complex(QQi)`` gives the same number; a float
        pair over 1 keeps its bits.  One complex is made per pair object
        and run of rows over one denominator, so rows that share a
        constant share its value; every pair is alive until its row is
        converted, so no two of them share an id."""
        memo, last = {}, None
        for row, d in zip(rows, denominators):
            if d != last:
                memo, last = {}, d
            for c, x in row.items():
                z = memo.get(id(x))
                if z is None:
                    z = memo[id(x)] = complex(x[0] / d, x[1] / d)
                row[c] = z
        return rows


LANES = {EXACT: _ExactLane, FLOAT: _FloatLane}


def lane_of(*parts):
    """The lane of a computation on ``parts``: backend names, vectors or matrices.

    Float when any part is ``FLOAT`` or a numpy array, so exact arithmetic
    runs only on exact data; exact otherwise.
    """
    if any(isinstance(p, np.ndarray) or p == FLOAT for p in parts):
        return _FloatLane
    return _ExactLane


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of coordinate space in canonical RREF form.

    ``basis`` holds the RREF rows, one per basis vector, on either lane as
    a tuple of {column: value} dicts of their nonzeros in column order,
    pivot first, its value the lane's one; the values are ``QQi`` on the
    exact lane and Python ``complex`` on the float lane.  The rows are
    shared and never changed.  ``rows`` is the same rows as dense vectors,
    made on first use: tuples of ``QQi`` on the exact lane, a read-only
    complex128 array on the float lane.  Two subspaces are compared as sets
    with :func:`subspace_equal`; ``==`` is identity.
    """

    ambient: int
    basis: tuple
    pivots: tuple
    backend: str

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def rows(self):
        return LANES[self.backend].dense(self.basis, self.ambient)

    def _entries(self, vec):
        """A dense vector or a {column: value} dict as the dict of its
        nonzeros, each value converted to the lane of the subspace."""
        coerce = LANES[self.backend].coerce
        if type(vec) is dict:
            return {c: coerce(x) for c, x in vec.items() if x}
        if len(vec) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(vec)} in ambient {self.ambient}")
        return {c: coerce(x) for c, x in enumerate(vec) if x}

    @cached_property
    def _row_at(self):
        """The index in ``basis`` of each pivot column's row."""
        return {p: r for r, p in enumerate(self.pivots)}

    def _remainder(self, v):
        """(coefficients, remainder) of the dict ``v`` of a vector's
        nonzeros, which it changes into the remainder's.  An RREF row is
        zero at every other pivot, so the coefficient of a row is the
        vector's entry at its pivot, and only the rows whose pivot entry is
        nonzero are subtracted, in pivot order; each visits only its own
        nonzeros.  The pivot of a row, first in its dict, is one, so the
        subtraction clears the vector's pivot entry, which is popped
        instead.  An entry that cancels to an exact zero is dropped."""
        row_at = self._row_at
        coeffs = [LANES[self.backend].zero] * len(self.basis)
        for p in sorted(c for c in v if c in row_at):
            r = row_at[p]
            coef = coeffs[r] = v.pop(p)
            for c, x in islice(self.basis[r].items(), 1, None):
                y = v.get(c)
                y = -(coef * x) if y is None else y - coef * x
                if y:
                    v[c] = y
                else:
                    del v[c]
        return coeffs, v

    def reduce(self, vec):
        """Reduce a vector against the RREF basis: (coefficients, remainder).

        One coefficient per basis row, read at its pivot as the rows are
        subtracted in order, so vec = sum(coef * row) + remainder and the
        remainder vanishes on every pivot column.  ``vec`` is a dense vector
        or a {column: value} dict of its nonzeros; the remainder is a dense
        vector of the lane.
        """
        lane = LANES[self.backend]
        coeffs, rest = self._remainder(self._entries(vec))
        return coeffs, lane.vector(_densified(rest, self.ambient, lane.zero))

    def contains(self, vec) -> bool:
        """Membership test: every entry of the remainder is zero by the
        lane's zero test; on the float lane within :data:`DEFAULT_TOL` times
        the largest modulus of the vector, floored at 1."""
        lane = LANES[self.backend]
        v = self._entries(vec)
        bound = DEFAULT_TOL * lane.scale(list(v.values()))
        return all(lane.is_zero(x, bound) for x in self._remainder(v)[1].values())

    def basis_vectors(self):
        return list(self.rows)


def rowspace(rows, ncols, backend=EXACT) -> Subspace:
    """Canonicalize a spanning set of row vectors into a Subspace."""
    basis, pivots = LANES[backend].rref(rows, ncols)
    return Subspace(ncols, basis, pivots, backend)


def nullspace(rows, ncols, backend=EXACT) -> Subspace:
    """Kernel {v : rows . v = 0} as a canonical Subspace of dimension ncols.

    Each free column f gives the dict row {f: one, p: -coef}, one entry per
    pivot row p with a nonzero coef in column f.  A kernel vector lies on
    its free column's block, so the vectors are canonicalized block by
    block too.
    """
    lane = LANES[backend]
    red, pivots = lane.rref(rows, ncols)
    kernel = {f: {} for f in range(ncols)}
    for p, row in zip(pivots, red):
        # a pivot column is zero in every other row, so the row's other
        # nonzeros are in free columns right of p
        del kernel[p]
        for f, coef in row.items():
            if f != p:
                kernel[f][p] = -coef
    for f, v in kernel.items():
        v[f] = lane.one
    return rowspace(list(kernel.values()), ncols, backend)


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    if a.backend != b.backend:
        raise AmbientMismatch(f"backend {a.backend} vs {b.backend}")


def annihilator(s: Subspace) -> Subspace:
    """Functionals vanishing on the subspace, via the kernel of its basis."""
    return nullspace(s.basis, s.ambient, s.backend)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked annihilator systems."""
    _check_compatible(a, b)
    stacked = list(annihilator(a).basis) + list(annihilator(b).basis)
    return nullspace(stacked, a.ambient, a.backend)


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    """True when every basis vector of ``a`` lies in ``b``."""
    _check_compatible(a, b)
    return all(b.contains(v) for v in a.basis)


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Dimension equality plus mutual containment (never dimension alone)."""
    return a.dim == b.dim and subspace_leq(a, b) and subspace_leq(b, a)
