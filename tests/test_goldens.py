"""Byte-level golden files for the classify JSON schema and the constructors.

Regenerate after an intentional schema change with:

    for n in C1 Czero1 Czero1Sharp Czero2 Czero2Sharp EF EFSharp M2 \
            Pointwise2 Pointwise3 Pointwise4 S3 TensorTP2TP2 TruncPoly2 \
            TruncPoly3 TruncPoly4 UpperTri2 Z2 Z2w; do
        python3 -m amenalyzer.cli classify builtin:$n --json --witnesses \
            > tests/goldens/classify_$n.json
    done

for three algebras in a dense basis, whose every structure constant is a
nonzero Gaussian rational, so each system is one block of rows with
denominators:

    for n in M2C1 TruncPoly5 TruncPoly8; do
        python3 -m amenalyzer.cli classify tests/goldens/dense_$n.algebra.json \
            --json --witnesses > tests/goldens/classify_dense_$n.json
    done

(their inputs are M2 + C1, TruncPoly5 and TruncPoly8 put through
``perfbench/workloads.change_basis`` with the matrix
``random_basis(a.dim, random.Random(f"golden:{name}"))``, name "M2+C1",
"TruncPoly5" or "TruncPoly8", and written by ``dump_algebra``; the
derivation system of TruncPoly8, one block of 288 distinct rows on 64
columns, is eliminated modulo primes and its RREF read back from two of
them), for the algebras the
constructors build (the wire form of each):

    PYTHONPATH=src python3 tests/test_goldens.py

and ``quasiadd --json`` of every corpus algebra on both lanes, gathered
into one file keyed by lane and name (``quasiadd.json``), which holds the
float lane's ``weighted_norms`` of Z2w, read off the quasi-additive basis
rows:

    PYTHONPATH=src python3 tests/test_goldens.py

and, for the cross-check suite:

    python3 -m amenalyzer.cli crosscheck --json > tests/goldens/crosscheck.json

Only algebras whose full report content is exact-rational are pinned, so
the files are stable across BLAS/LAPACK builds: every corpus member but Z3,
whose characters are irrational and printed as floats.  The cross-check output
holds verdicts and reasons, no computed values, so the float backend must
print the same file apart from its ``"backend"`` line.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from amenalyzer import cli, corpus
from amenalyzer.algebra import (
    commutator_span,
    direct_sum,
    ideal_closure,
    matrix_algebra,
    pointwise_algebra,
    quotient_map,
    radical,
    subalgebra_on,
    tensor_product,
    to_json_dict,
    truncated_polynomial,
    unitize,
    upper_triangular,
    zero_algebra,
)
from amenalyzer.linalg import EXACT, rowspace
from amenalyzer.scalars import ONE, ZERO

GOLDEN_DIR = Path(__file__).parent / "goldens"
NAMES = [n for n in corpus.corpus_names() if n != "Z3"]


def golden_algebras():
    """Every constructor's output: the corpus, the benchmark ladders and a
    quotient and a subalgebra, keyed by name."""
    out = dict(corpus.corpus())
    s3 = corpus.get("S3")
    ut3 = upper_triangular(3)
    m2 = corpus.get("M2")
    diagonal = rowspace([[ONE, ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO, ONE]], 4, EXACT)
    for a in (
        matrix_algebra(4),
        upper_triangular(5),
        truncated_polynomial(12),
        pointwise_algebra(12),
        unitize(zero_algebra(8), name="Zero8Sharp"),
        direct_sum(matrix_algebra(2), truncated_polynomial(3), name="M2+TruncPoly3"),
        tensor_product(s3, truncated_polynomial(2), name="S3xTruncPoly2"),
        quotient_map(ut3, radical(ut3))[0],
        quotient_map(s3, ideal_closure(s3, commutator_span(s3)))[0],
        subalgebra_on(m2, diagonal, name="M2|diag"),
    ):
        out[a.name] = a
    return out


def _algebras_text():
    wire = {name: to_json_dict(a) for name, a in golden_algebras().items()}
    return json.dumps(wire, indent=1, sort_keys=True) + "\n"


def test_constructors_match_golden():
    assert _algebras_text() == (GOLDEN_DIR / "algebras.json").read_text()


def _quasiadd_text():
    """``quasiadd --json`` of every corpus algebra on both lanes, in
    process, as one document keyed by lane and then name."""
    out = {}
    for backend in ("exact", "float"):
        for name in corpus.corpus_names():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["quasiadd", f"builtin:{name}", "--json", "--backend", backend])
            assert rc == 0, (backend, name)
            out.setdefault(backend, {})[name] = json.loads(buf.getvalue())
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_quasiadd_matches_golden():
    assert _quasiadd_text() == (GOLDEN_DIR / "quasiadd.json").read_text()


@pytest.mark.parametrize("name", NAMES)
def test_classify_matches_golden(name):
    proc = subprocess.run(
        [sys.executable, "-m", "amenalyzer.cli", "classify", f"builtin:{name}", "--json", "--witnesses"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN_DIR / f"classify_{name}.json").read_text()
    assert proc.stdout == golden


@pytest.mark.parametrize("name", ["M2C1", "TruncPoly5", "TruncPoly8"])
def test_classify_of_a_dense_basis_matches_golden(name):
    path = GOLDEN_DIR / f"dense_{name}.algebra.json"
    proc = subprocess.run(
        [sys.executable, "-m", "amenalyzer.cli", "classify", str(path), "--json", "--witnesses"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / f"classify_dense_{name}.json").read_text()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_crosscheck_matches_golden(backend):
    proc = subprocess.run(
        [sys.executable, "-m", "amenalyzer.cli", "crosscheck", "--json", "--backend", backend],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN_DIR / "crosscheck.json").read_text()
    backend_line = '  "backend": "exact",\n'
    assert golden.count(backend_line) == 1
    expected = golden.replace(backend_line, f'  "backend": "{backend}",\n')
    assert proc.stdout == expected


if __name__ == "__main__":
    (GOLDEN_DIR / "algebras.json").write_text(_algebras_text())
    (GOLDEN_DIR / "quasiadd.json").write_text(_quasiadd_text())
