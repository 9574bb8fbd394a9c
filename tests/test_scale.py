"""Desk-scale checks beyond the corpus (dimensions up to sixteen)."""

import mmap
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

from amenalyzer import linalg
from amenalyzer.algebra import (
    matrix_algebra,
    pointwise_algebra,
    truncated_polynomial,
    upper_triangular,
)
from amenalyzer.characters import find_characters
from amenalyzer.classify import Analysis
from amenalyzer.derivations import derivation_space
from amenalyzer.linalg import FLOAT
from amenalyzer.quasiadd import quasi_additive_space
from amenalyzer.scalars import QQi

from oracles import change_basis, oracle_derivation_dim, oracle_inner_dim


def test_matrix_algebra_3_dims_and_flags():
    a = matrix_algebra(3)  # dimension 9, constraint system 729 x 81
    d = Analysis(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (8, 8, 8)
    assert oracle_derivation_dim(a) == oracle_inner_dim(a) == 8
    assert d.weakly_amenable and d.cyclically_amenable and d.cyclically_weakly_amenable
    assert find_characters(a).characters == ()


def _dense_basis(a):
    """``a`` on a seeded basis with entries in {-1, 0, 1} + i{-1, 0, 1}, as
    in perfbench's dense-gauss: every structure constant a Gaussian
    rational, and the derivation system one block."""
    rng = random.Random(f"scale:{a.name}")
    entries = [QQi(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1) if re or im]
    while True:
        b = change_basis(a, [[rng.choice(entries) for _ in range(a.dim)] for _ in range(a.dim)])
        if b is not None:
            return b


@pytest.mark.parametrize("a", [truncated_polynomial(10), matrix_algebra(3)], ids=lambda a: a.name)
def test_exact_dims_in_a_dense_basis(a):
    # the derivation system (1000 x 100 or 729 x 81) is one dense block,
    # eliminated modulo primes and proved exactly, with no fallback to the core
    b = _dense_basis(a)
    core = []
    real = linalg._fraction_free_rref
    with mock.patch.object(linalg, "_fraction_free_rref", lambda vecs: core.append(len(vecs)) or real(vecs)):
        d = Analysis(b)
        dims = (d.z.dim, d.inner.dim, d.zc.dim)
    assert max(core, default=0) < a.dim * a.dim
    assert dims[:2] == (oracle_derivation_dim(b), oracle_inner_dim(b))
    # the dims do not depend on the basis
    base = Analysis(a)
    assert dims == (base.z.dim, base.inner.dim, base.zc.dim)


def test_upper_triangular_4_is_weakly_amenable():
    a = upper_triangular(4)  # dimension 10, constraint system 1000 x 100
    d = Analysis(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (6, 6, 6)
    assert d.weakly_amenable


def test_pointwise_12_fully_amenable():
    a = pointwise_algebra(12)
    d = Analysis(a)
    assert (d.z.dim, d.inner.dim, d.zc.dim) == (0, 0, 0)
    assert d.characters.certified and len(d.characters.characters) == 12
    assert d.point_amenable and d.zero_point_amenable


def test_matrix_algebra_3_float_agrees():
    a = matrix_algebra(3)
    de = Analysis(a)
    df = Analysis(a, FLOAT)
    assert (de.z.dim, de.inner.dim, de.zc.dim) == (df.z.dim, df.inner.dim, df.zc.dim)


@pytest.mark.parametrize("a", [truncated_polynomial(16), matrix_algebra(4)], ids=lambda a: a.name)
def test_exact_dims_at_dimension_16(a):
    # constraint system 4096 x 256, eliminated exactly
    d = Analysis(a)
    assert d.z.dim == oracle_derivation_dim(a)
    assert d.inner.dim == oracle_inner_dim(a)


@pytest.mark.parametrize(
    "solve, a",
    [
        (derivation_space, matrix_algebra(4)),
        (derivation_space, truncated_polynomial(16)),
        (quasi_additive_space, matrix_algebra(4)),
    ],
    ids=["Z-M4", "Z-TruncPoly16", "QA-M4"],
)
def test_exact_n3_system_is_never_dense_in_full(solve, a):
    # the 4096 x 256 system held dense is 8 MiB of references alone; emitted
    # as its nonzeros and expanded one row at a time, the solve peaks near 2 MiB
    a.nz  # the algebra's cached view, not part of the system
    tracemalloc.start()
    try:
        space = solve(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 15
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


# A child's ru_maxrss starts at the peak RSS of the process that started it,
# and pytest's passes 100 MB when the whole suite runs, above every figure
# measured below.  Started through a bare interpreter, the measuring process
# starts from that interpreter's peak of about 14 MB instead.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"


def _run_measured(code):
    return subprocess.run([sys.executable, "-c", _LAUNCH, code], capture_output=True, text=True, env=os.environ.copy())


# Small blocks that outlive each call, allocated by a 1 ms timer while the
# float systems are live, as a timing probe or any other code in the same
# process may do.  From the malloc heap, the holes the freed systems leave
# are split by them and later systems are placed past them: peak RSS grew by
# 7 to 24 MB over these twenty rounds.  Systems on pages of their own do not
# leave holes.
_CHURN = """
import resource, signal
from amenalyzer.algebra import matrix_algebra, upper_triangular
from amenalyzer.derivations import derivation_space
from amenalyzer.linalg import FLOAT

kept = []
signal.signal(signal.SIGALRM, lambda signum, frame: kept.append([0.5] * 100))
signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
algebras = [upper_triangular(5), matrix_algebra(4)]
peaks = []
for _ in range(20):
    for a in algebras:
        derivation_space(a, FLOAT)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
signal.setitimer(signal.ITIMER_REAL, 0, 0)
print((peaks[-1] - peaks[0]) / 1024)
"""


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="large systems are mapped on Linux only")
def test_float_peak_memory_does_not_grow_with_unrelated_small_blocks():
    proc = _run_measured(_CHURN)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 4, f"peak RSS grew by {float(proc.stdout):.1f} MB"


# One float derivation_space of M4 in a fresh process.  Its whole system
# would be 4096 x 256 float64, 8 MiB, and eliminated whole in place it
# raised peak RSS by about 9.6 MiB.  Split into its 157 blocks, the largest
# 64 rows x 16 columns, it rises by about 2.2 MiB, mostly the dict rows and
# the RREF rows, so the bound is half the whole system.
_ONE_SYSTEM = """
import resource
from amenalyzer.algebra import matrix_algebra
from amenalyzer.derivations import derivation_space
from amenalyzer.linalg import FLOAT

a = matrix_algebra(4)
a.complex_sc
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert derivation_space(a, FLOAT).dim == 15
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024, a.dim**5 * 8)
"""


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="large systems are mapped on Linux only")
def test_float_derivation_system_is_held_once():
    proc = _run_measured(_ONE_SYSTEM)
    assert proc.returncode == 0, proc.stderr
    rise, system = map(int, proc.stdout.split())
    assert rise < system / 2, f"peak RSS rose by {rise / 2**20:.1f} MiB for a {system / 2**20:.0f} MiB system"
