"""Workload definitions, seeded input generation and correctness oracles.

Every workload drives the command line the way a user does.  Ladder and
dense-gauss inputs are algebra files generated here from the package's
own constructors; crosscheck-corpus runs the built-in corpus suite.  The
seed changes only the random change-of-basis matrices of dense-gauss, so
the ladders are the same algebras on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from amenalyzer import corpus
from amenalyzer.algebra import (
    FiniteAlgebra,
    direct_sum,
    dump_algebra,
    matrix_algebra,
    pointwise_algebra,
    tensor_product,
    truncated_polynomial,
    unitize,
    upper_triangular,
    zero_algebra,
)
from amenalyzer.linalg import rref_exact
from amenalyzer.scalars import ONE, ZERO, QQi

FLAG_KEYS = (
    "weakly_amenable",
    "cyclically_amenable",
    "cyclically_weakly_amenable",
    "point_amenable",
    "zero_point_amenable",
)
LADDER_DIMS = ("Z", "Inn", "Zc", "t_rank", "quasi_additive", "radical")
GAUSS_DIMS = LADDER_DIMS + ("n", "product_span", "zero_point_space")
CROSSCHECK_CASES = 420  # 21 checks x 20 corpus algebras
SPARSE_DENSITY = 0.25  # "sparse": at most this share of the n^3 constants is nonzero


def _row(dims, flags):
    return {"dims": dict(zip(LADDER_DIMS, dims)), "flags": dict(zip(FLAG_KEYS, flags))}


# Frozen once from exact runs; test_perfbench.py re-derives every entry from
# the SVD oracles in tests/oracles.py and from closed forms.
#            (Z, Inn, Zc, t_rank, quasi_additive, radical), (WA, CA, CWA, PA, 0-PA)
LADDER_ORACLE = {
    "M3": _row((8, 8, 8, 0, 8, 0), (True, True, True, True, True)),
    "UpperTri4": _row((6, 6, 6, 0, 6, 6), (True, True, True, True, True)),
    "TruncPoly10": _row((9, 0, 0, 9, 9, 9), (False, True, False, False, False)),
    "Pointwise12": _row((0, 0, 0, 0, 0, 0), (True, True, True, True, True)),
    "S3": _row((3, 3, 3, 0, 3, 0), (True, True, True, True, True)),
    "Zero8Sharp": _row((36, 0, 28, 8, 36, 8), (False, False, False, False, False)),
    "M2+TruncPoly3": _row((5, 3, 3, 2, 5, 2), (False, True, False, False, False)),
    "UpperTri5": _row((10, 10, 10, 0, 10, 10), (True, True, True, True, True)),
    "M4": _row((15, 15, 15, 0, 15, 0), (True, True, True, True, True)),
    "TruncPoly12": _row((11, 0, 0, 11, 11, 11), (False, True, False, False, False)),
    "S3xTruncPoly2": _row((9, 6, 6, 3, 9, 6), (False, True, False, False, False)),
}


def _gauss_row(dims, pd_dims, flags):
    return {
        "dims": dict(zip(GAUSS_DIMS, dims)),
        "flags": dict(zip(FLAG_KEYS, flags)),
        "pd_dims": list(pd_dims),
    }


# Untransformed dense-gauss bases, frozen once from exact runs.  A change of
# basis must leave all of it unchanged, whatever the seed.
#   (Z, Inn, Zc, t_rank, quasi_additive, radical, n, product_span, zero_point_space),
#   sorted point-derivation dims, (WA, CA, CWA, PA, 0-PA)
GAUSS_ORACLE = {
    "TruncPoly4": _gauss_row((3, 0, 0, 3, 3, 3, 4, 4, 0), (1,), (False, True, False, False, False)),
    "TruncPoly5": _gauss_row((4, 0, 0, 4, 4, 4, 5, 5, 0), (1,), (False, True, False, False, False)),
    "M2": _gauss_row((3, 3, 3, 0, 3, 0, 4, 4, 0), (), (True, True, True, True, True)),
    "TensorTP2TP2": _gauss_row((4, 0, 1, 3, 4, 3, 4, 4, 0), (2,), (False, False, False, False, False)),
    "Z3": _gauss_row((0, 0, 0, 0, 0, 0, 3, 3, 0), (0, 0, 0), (True, True, True, True, True)),
    "EFSharp": _gauss_row((1, 0, 0, 1, 1, 1, 3, 3, 0), (0, 1), (False, True, False, False, False)),
    "Pointwise5": _gauss_row((0, 0, 0, 0, 0, 0, 5, 5, 0), (0, 0, 0, 0, 0), (True, True, True, True, True)),
    "M2+C1": _gauss_row((3, 3, 3, 0, 3, 0, 5, 5, 0), (0,), (True, True, True, True, True)),
}


def ladder_exact():
    return [
        matrix_algebra(3),
        upper_triangular(4),
        truncated_polynomial(10),
        pointwise_algebra(12),
        corpus.get("S3"),
        unitize(zero_algebra(8), name="Zero8Sharp"),
        direct_sum(matrix_algebra(2), truncated_polynomial(3), name="M2+TruncPoly3"),
    ]


def ladder_float():
    return [
        upper_triangular(5),
        matrix_algebra(4),
        truncated_polynomial(12),
        tensor_product(corpus.get("S3"), truncated_polynomial(2), name="S3xTruncPoly2"),
    ]


def gauss_bases():
    return [
        corpus.get("TruncPoly4"),
        truncated_polynomial(5),
        corpus.get("M2"),
        corpus.get("TensorTP2TP2"),
        corpus.get("Z3"),
        corpus.get("EFSharp"),
        pointwise_algebra(5),
        direct_sum(corpus.get("M2"), corpus.get("C1"), name="M2+C1"),
    ]


# ---------------------------------------------------------------------------
# change of basis


# zero is left out so that every structure constant of the result is nonzero
_ENTRIES = [QQi(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1) if re or im]


def _inverse(p):
    n = len(p)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(p)]
    red, pivots = rref_exact(aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return [list(row[n:]) for row in red]


def random_basis(n, rng):
    """Invertible n x n matrix with nonzero entries in {-1,0,1} + i{-1,0,1}, and its inverse."""
    while True:
        p = [[rng.choice(_ENTRIES) for _ in range(n)] for _ in range(n)]
        q = _inverse(p)
        if q is not None:
            return p, q


def _row_times(v, q):
    n = len(q)
    out = [ZERO] * n
    for k, x in enumerate(v):
        if x.is_zero():
            continue
        for c in range(n):
            if not q[k][c].is_zero():
                out[c] = out[c] + x * q[k][c]
    return tuple(out)


def change_basis(a: FiniteAlgebra, p, q, name) -> FiniteAlgebra:
    """The same algebra on the basis f_a = sum_i p[a][i] e_i, with q = p^-1.

    Coordinates change as x' = x q, so the structure constants become
    sc'[a][b][c] = sum_{i,j,k} p[a][i] p[b][j] sc[i][j][k] q[k][c].
    """
    n = a.dim
    # t[a][b][k] = sum_{i,j} p[a][i] p[b][j] sc[i][j][k]
    left = [[[ZERO] * n for _ in range(n)] for _ in range(n)]  # left[a][j][k]
    for x in range(n):
        for i in range(n):
            pxi = p[x][i]
            if pxi.is_zero():
                continue
            for j in range(n):
                for k, c in enumerate(a.sc[i][j]):
                    if not c.is_zero():
                        left[x][j][k] = left[x][j][k] + pxi * c
    sc = []
    for x in range(n):
        plane = []
        for y in range(n):
            t = [ZERO] * n
            for j in range(n):
                pyj = p[y][j]
                if pyj.is_zero():
                    continue
                for k in range(n):
                    c = left[x][j][k]
                    if not c.is_zero():
                        t[k] = t[k] + pyj * c
            plane.append(_row_times(t, q))
        sc.append(tuple(plane))
    return FiniteAlgebra(
        name=name,
        dim=n,
        sc=tuple(sc),
        labels=tuple(f"f{i}" for i in range(n)),
        unit=_row_times(a.unit, q) if a.unit is not None else None,
        idempotent_span=(
            tuple(_row_times(v, q) for v in a.idempotent_span)
            if a.idempotent_span is not None
            else None
        ),
    )


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Item:
    """One command-line call and what its output must show."""

    key: str
    argv: tuple
    expect: dict


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json says why each was chosen."""

    name: str
    short: tuple  # inputs (or crosscheck ids) kept by the reduced self-check list

    def algebras(self, seed):
        if self.name == "ladder-exact":
            return ladder_exact()
        if self.name == "ladder-float":
            return ladder_float()
        if self.name == "dense-gauss":
            out = []
            for base in gauss_bases():
                rng = random.Random(f"dense-gauss:{seed}:{base.name}")
                p, q = random_basis(base.dim, rng)
                out.append(change_basis(base, p, q, f"{base.name}~P"))
            return out
        return list(corpus.corpus().values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder-exact", ("S3", "M2+TruncPoly3")),
        Workload("ladder-float", ("TruncPoly12",)),
        Workload("crosscheck-corpus", ("P2.1", "T4.1")),
        Workload("dense-gauss", ("Z3~P", "M2+C1~P")),
    )
}


def build_items(workload: Workload, seed: int, outdir: str, short=False):
    """Write the workload's input files and return its calls in pass order.

    Returns (items, digest) where digest is the sha256 of every generated
    file, in order, so identical seeds can be shown to give identical bytes.
    """
    digest = hashlib.sha256()
    items = []
    if workload.name == "crosscheck-corpus":
        only = ["--only", ",".join(workload.short)] if short else []
        for backend in ("exact", "float"):
            argv = ("crosscheck", "--json", "--backend", backend, *only)
            cases = len(workload.short) * len(corpus.corpus()) if short else CROSSCHECK_CASES
            items.append(Item(f"crosscheck-{backend}", argv, {"cases": cases}))
        return items, digest.hexdigest()
    os.makedirs(outdir, exist_ok=True)
    backend = "float" if workload.name == "ladder-float" else "exact"
    extra = ("--witnesses",) if workload.name.startswith("ladder") else ()
    for idx, a in enumerate(workload.algebras(seed)):
        if short and a.name not in workload.short:
            continue
        path = os.path.join(outdir, f"{workload.name}-{idx:02d}.json")
        dump_algebra(a, path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
        if workload.name == "dense-gauss":
            expect = GAUSS_ORACLE[a.name[: -len("~P")]]
        else:
            expect = LADDER_ORACLE[a.name]
        argv = ("classify", path, "--json", "--backend", backend, *extra)
        items.append(Item(a.name, argv, expect))
    return items, digest.hexdigest()


# ---------------------------------------------------------------------------
# correctness


def report_summary(report: dict, dims=LADDER_DIMS) -> dict:
    out = {
        "dims": {k: report["dims"][k] for k in dims},
        "flags": {k: report["flags"][k] for k in FLAG_KEYS},
    }
    if dims is GAUSS_DIMS:
        out["pd_dims"] = sorted(e["dim"] for e in report["dims"]["point_derivations"])
    return out


def check_output(workload: Workload, item: Item, rc: int, stdout: str):
    """None when the call's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if workload.name == "crosscheck-corpus":
        if len(data["results"]) != item.expect["cases"]:
            return f"{len(data['results'])} results, expected {item.expect['cases']}"
        if data["summary"]["fail"]:
            return f"{data['summary']['fail']} failed checks"
        return None
    dims = GAUSS_DIMS if workload.name == "dense-gauss" else LADDER_DIMS
    got = report_summary(data, dims)
    if got != item.expect:
        return f"report {got} differs from oracle {item.expect}"
    return None


def crosscheck_counts(stdout: str) -> dict:
    data = json.loads(stdout)
    return {f"crosscheck.{data['backend']}.{k}": v for k, v in data["summary"].items()}


# ---------------------------------------------------------------------------
# per-input shape record


def shape_record(a: FiniteAlgebra) -> dict:
    n = a.dim
    nnz = 0
    real = True
    for plane in a.sc:
        for row in plane:
            for c in row:
                if not c.is_zero():
                    nnz += 1
                    real = real and not c.im
    density = nnz / n**3
    return {
        "name": a.name,
        "n": n,
        "system": [n**3, n**2],
        "nnz": nnz,
        "density": round(density, 6),
        "real_only": real,
        "sparse": density <= SPARSE_DENSITY,
    }


def shape_summary(records) -> dict:
    total = len(records)
    return {
        "inputs": records,
        "real_only_share": sum(r["real_only"] for r in records) / total,
        "sparse_share": sum(r["sparse"] for r in records) / total,
    }
