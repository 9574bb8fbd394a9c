"""Tests of the benchmark's own inputs, oracles and tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from amenalyzer import cli, linalg  # noqa: E402
from amenalyzer.linalg import FLOAT  # noqa: E402
from oracles import oracle_cyclic_dim, oracle_derivation_dim, oracle_inner_dim  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

GENERATED = ("ladder-exact", "ladder-float", "dense-gauss")


def _classify(path, backend="exact"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["classify", path, "--json", "--backend", backend])
    assert rc == 0
    return json.loads(out.getvalue())


def _files(tmp_path, workload, seed, sub):
    items, digest = W.build_items(W.WORKLOADS[workload], seed, str(tmp_path / sub))
    return [item.argv[1] for item in items], digest


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first, d1 = _files(tmp_path, workload, 3, "a")
    second, d2 = _files(tmp_path, workload, 3, "b")
    assert d1 == d2
    for p, q in zip(first, second):
        with open(p, "rb") as f1, open(q, "rb") as f2:
            assert f1.read() == f2.read()


def test_seed_changes_only_the_dense_gauss_bases(tmp_path):
    assert _files(tmp_path, "dense-gauss", 3, "a")[1] != _files(tmp_path, "dense-gauss", 4, "b")[1]
    assert _files(tmp_path, "ladder-exact", 3, "c")[1] == _files(tmp_path, "ladder-exact", 4, "d")[1]
    p3, _ = W.random_basis(4, random.Random("dense-gauss:3:TruncPoly4"))
    p4, _ = W.random_basis(4, random.Random("dense-gauss:4:TruncPoly4"))
    assert p3 != p4


@pytest.mark.parametrize("workload", GENERATED)
def test_generated_algebras_validate(tmp_path, workload):
    paths, _ = _files(tmp_path, workload, 5, "v")
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", path]) == 0, path


def test_basis_change_has_nonzero_complex_entries_and_inverse():
    rng = random.Random(11)
    for n in (3, 4, 5):
        p, q = W.random_basis(n, rng)
        assert all(not x.is_zero() for row in p for x in row)
        prod = [[sum((p[i][k] * q[k][j] for k in range(n)), W.ZERO) for j in range(n)] for i in range(n)]
        assert prod == [[W.ONE if i == j else W.ZERO for j in range(n)] for i in range(n)]


def test_ladder_oracle_closed_forms():
    for name, row in W.LADDER_ORACLE.items():
        d, f = row["dims"], row["flags"]
        assert d["quasi_additive"] == d["Z"], name
        assert d["t_rank"] == d["Z"] - d["Zc"], name
        assert f["weakly_amenable"] == (d["Z"] == d["Inn"]), name
        assert f["cyclically_amenable"] == (d["Zc"] == d["Inn"]), name
        assert f["cyclically_weakly_amenable"] == (d["Z"] == d["Zc"]), name
    for k in (3, 4):
        assert W.LADDER_ORACLE[f"M{k}"]["dims"]["Z"] == k * k - 1
        assert W.LADDER_ORACLE[f"M{k}"]["dims"]["Inn"] == k * k - 1
    assert set(W.LADDER_ORACLE["Pointwise12"]["dims"].values()) == {0}
    for k in (10, 12):
        d = W.LADDER_ORACLE[f"TruncPoly{k}"]["dims"]
        assert (d["Z"], d["Inn"], d["radical"]) == (k - 1, 0, k - 1)
    for k in (4, 5):
        assert W.LADDER_ORACLE[f"UpperTri{k}"]["dims"]["radical"] == k * (k - 1) // 2
    assert W.LADDER_ORACLE["Zero8Sharp"]["dims"]["Z"] == 8 * 9 // 2


def test_ladder_oracle_matches_svd_ranks():
    for a in W.ladder_exact() + W.ladder_float():
        d = W.LADDER_ORACLE[a.name]["dims"]
        got = (oracle_derivation_dim(a), oracle_inner_dim(a), oracle_cyclic_dim(a))
        assert got == (d["Z"], d["Inn"], d["Zc"]), a.name


def test_exact_and_float_agree_on_small_ladder_members(tmp_path):
    for a in W.ladder_exact():
        if a.dim > 9:
            continue
        path = str(tmp_path / "a.json")
        W.dump_algebra(a, path)
        for backend in ("exact", FLOAT):
            summary = W.report_summary(_classify(path, backend))
            assert summary == W.LADDER_ORACLE[a.name], (a.name, backend)


def test_gauss_oracle_matches_untransformed_bases(tmp_path):
    for a in W.gauss_bases():
        path = str(tmp_path / "b.json")
        W.dump_algebra(a, path)
        expect = W.GAUSS_ORACLE[a.name]
        assert W.report_summary(_classify(path), W.GAUSS_DIMS) == expect, a.name
        d = expect["dims"]
        assert (oracle_derivation_dim(a), oracle_inner_dim(a)) == (d["Z"], d["Inn"]), a.name


def test_change_of_basis_keeps_the_report_and_the_check_catches_a_change(tmp_path):
    workload = W.WORKLOADS["dense-gauss"]
    items, _ = W.build_items(workload, 1, str(tmp_path), short=True)
    assert [i.key for i in items] == list(workload.short)
    for item in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(item.argv))
        assert W.check_output(workload, item, rc, out.getvalue()) is None
        report = json.loads(out.getvalue())
        report["flags"]["point_amenable"] = not report["flags"]["point_amenable"]
        assert W.check_output(workload, item, 0, json.dumps(report)) is not None


def test_rebinding_reaches_imported_names_and_restores_them():
    from amenalyzer import derivations

    original = linalg.nullspace
    tracer = tracing.SpanTracer()
    with tracer.rebinding():
        assert derivations.nullspace is linalg.nullspace is not original
        derivations.antisymmetric_space(2)
    assert derivations.nullspace is linalg.nullspace is original
    totals = tracer.totals()
    outer = totals["derivations.antisymmetric_space"]
    inner = totals["linalg.nullspace"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["s"] >= inner["s"] > 0
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])


def test_speed_probe_takes_its_loops_out_and_scales_by_their_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # probes at t=1.0 and t=1.5 ran at half the reference speed, one at t=3.0 at full speed
    probe.starts = [1.0, 1.5, 3.0]
    probe.samples = [(2 * ref, 2 * ref), (2 * ref, 2 * ref), (ref, ref)]
    wall, cpu = probe.normalise(0.9, 1.0, 0.8)
    assert wall == pytest.approx((1.0 - 4 * ref) * 0.5)
    assert cpu == pytest.approx((0.8 - 4 * ref) * 0.5)
    # a call holding no probe takes its speed from the probes either side
    wall, _ = probe.normalise(2.0, 0.1, 0.1)
    assert wall == pytest.approx(0.1 * 0.75)


def test_speed_probe_samples_from_start_to_stop():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speed.PERIOD_S:
            sum(range(1000))
    finally:
        probe.stop()
    count = len(probe.samples)
    assert count >= 2
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.samples) == count
    wall, cpu = probe.normalise(start, 4 * speed.PERIOD_S, 4 * speed.PERIOD_S)
    assert wall > 0 and cpu > 0


def test_benchmark_json_names_metrics_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer_units = dict(tracing.LAYER_METRICS)
    for m in spec["per_layer"]:
        assert layer_units[m["name"]] == m["unit"], m["name"]
    e2e = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "max_item_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
