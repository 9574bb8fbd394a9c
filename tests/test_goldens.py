"""Byte-level golden files for the classify JSON schema.

Regenerate after an intentional schema change with:

    for n in M2 TruncPoly2 Z2w EF; do
        python3 -m amenalyzer.cli classify builtin:$n --json --witnesses \
            > tests/goldens/classify_$n.json
    done

Only algebras whose full report content is exact-rational are pinned, so
the files are stable across BLAS/LAPACK builds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
NAMES = ["EF", "M2", "TruncPoly2", "Z2w"]


@pytest.mark.parametrize("name", NAMES)
def test_classify_matches_golden(name):
    env = os.environ.copy()
    env.pop("AMENALYZER_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "amenalyzer.cli", "classify", f"builtin:{name}", "--json", "--witnesses"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN_DIR / f"classify_{name}.json").read_text()
    assert proc.stdout == golden
