"""End-to-end CLI behaviour: exit codes, JSON output, and determinism."""

import json
import os
import subprocess
import sys

from amenalyzer import cli

CLI = [sys.executable, "-m", "amenalyzer.cli"]


def run_cli(args, env_extra=None, check=False):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(CLI + args, capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed: {proc.stderr}")
    return proc


def test_validate_builtin_ok():
    proc = run_cli(["validate", "builtin:M2"])
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_validate_unknown_builtin_exit_2():
    proc = run_cli(["validate", "builtin:NoSuchThing"])
    assert proc.returncode == 2
    assert "unknown builtin" in proc.stderr


def test_validate_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(["validate", str(bad)])
    assert proc.returncode == 2
    assert "line" in proc.stderr  # location-bearing message


def test_validate_non_associative_exit_2(tmp_path):
    bad = tmp_path / "nonassoc.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "labels": ["a", "b"],
                "sc": [[0, 0, 1, "1", "0"], [1, 0, 0, "1", "0"]],
            }
        )
    )
    proc = run_cli(["validate", str(bad)])
    assert proc.returncode == 2
    assert "associativity" in proc.stdout


def test_classify_czero1_flags():
    proc = run_cli(["classify", "builtin:Czero1", "--json"], check=True)
    report = json.loads(proc.stdout)
    flags = report["flags"]
    assert flags["weakly_amenable"] is False
    assert flags["cyclically_amenable"] is True
    assert flags["cyclically_weakly_amenable"] is False
    assert flags["point_amenable"] is True  # no characters, vacuous
    assert flags["zero_point_amenable"] is False
    assert report["dims"]["Z"] == 1
    assert report["dims"]["Inn"] == 0
    assert report["dims"]["Zc"] == 0


def test_classify_m2_flags_and_dims():
    proc = run_cli(["classify", "builtin:M2", "--json"], check=True)
    report = json.loads(proc.stdout)
    assert report["flags"]["weakly_amenable"] is True
    assert report["flags"]["cyclically_amenable"] is True
    assert report["flags"]["cyclically_weakly_amenable"] is True
    assert report["dims"]["Z"] == report["dims"]["Inn"] == report["dims"]["Zc"] == 3


def test_classify_text_output_mentions_flags():
    proc = run_cli(["classify", "builtin:TruncPoly2"], check=True)
    assert "WA=no" in proc.stdout
    assert "CA=yes" in proc.stdout


def test_classify_witnesses_included_on_request():
    proc = run_cli(["classify", "builtin:TruncPoly2", "--json", "--witnesses"], check=True)
    report = json.loads(proc.stdout)
    assert "weakly_amenable" in report["witnesses"]


def test_characters_and_derivations_and_quasiadd_subcommands():
    proc = run_cli(["characters", "builtin:Pointwise2", "--json"], check=True)
    data = json.loads(proc.stdout)
    assert data["certified"] and len(data["characters"]) == 2

    proc = run_cli(["derivations", "builtin:M2", "--json"], check=True)
    data = json.loads(proc.stdout)
    assert data["dims"] == {"Z": 3, "Inn": 3, "Zc": 3, "t_rank": 0}

    proc = run_cli(["quasiadd", "builtin:S3", "--json"], check=True)
    data = json.loads(proc.stdout)
    assert data["dims"]["quasi_additive"] == 3
    assert data["semigroup"]["cd"] == 3


def test_construct_roundtrip_matches_in_memory(tmp_path):
    out = tmp_path / "tensor.json"
    run_cli(
        ["construct", "tensor", "builtin:TruncPoly2", "builtin:TruncPoly2", "-o", str(out)],
        check=True,
    )
    from_file = run_cli(["classify", str(out), "--json"], check=True).stdout
    builtin = run_cli(["classify", "builtin:TensorTP2TP2", "--json"], check=True).stdout
    a = json.loads(from_file)
    b = json.loads(builtin)
    a.pop("name")
    b.pop("name")
    assert a == b


def test_construct_semigroup_with_weight(tmp_path):
    out = tmp_path / "z2w.json"
    run_cli(
        ["construct", "semigroup", "[[0,1],[1,0]]", "[1,2]", "-o", str(out)],
        check=True,
    )
    data = json.loads(out.read_text())
    assert data["weight"] == ["1", "2"]


def test_construct_bad_params_exit_1(tmp_path):
    proc = run_cli(["construct", "matrix", "notanumber", "-o", str(tmp_path / "x.json")])
    assert proc.returncode == 1


def test_corpus_list():
    proc = run_cli(["corpus", "list"], check=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) >= 16
    assert any(l.startswith("M2\t") for l in lines)


def test_classify_deterministic_bytes():
    a = run_cli(["classify", "builtin:Z3", "--json"], check=True).stdout
    b = run_cli(["classify", "builtin:Z3", "--json"], check=True).stdout
    assert a == b


def test_seed_env_override():
    default = json.loads(run_cli(["classify", "builtin:C1", "--json"], check=True).stdout)
    assert default["seed"] == 1729
    env = json.loads(
        run_cli(
            ["classify", "builtin:C1", "--json"], env_extra={"AMENALYZER_SEED": "99"}, check=True
        ).stdout
    )
    assert env["seed"] == 99
    flag = json.loads(
        run_cli(
            ["classify", "builtin:C1", "--json", "--seed", "7"],
            env_extra={"AMENALYZER_SEED": "99"},
            check=True,
        ).stdout
    )
    assert flag["seed"] == 7


def test_classify_float_backend_matches_exact_dims():
    ex = json.loads(run_cli(["classify", "builtin:S3", "--json"], check=True).stdout)
    fl = json.loads(
        run_cli(
            ["classify", "builtin:S3", "--json", "--backend", "float", "--tol", "1e-9"],
            check=True,
        ).stdout
    )
    assert ex["dims"]["Z"] == fl["dims"]["Z"]
    assert ex["flags"] == fl["flags"]
    assert fl["backend"] == "float"


def test_classify_invalid_algebra_exit_2(tmp_path):
    bad = tmp_path / "nonassoc.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "labels": ["a", "b"],
                "sc": [[0, 0, 1, "1", "0"], [1, 0, 0, "1", "0"]],
            }
        )
    )
    proc = run_cli(["classify", str(bad), "--json"])
    assert proc.returncode == 2
    assert "failed validation" in proc.stderr


def test_crosscheck_only_subset():
    proc = run_cli(["crosscheck", "--only", "T4.1,T4.2", "--json"], check=True)
    data = json.loads(proc.stdout)
    assert {r["theorem"] for r in data["results"]} == {"T4.1", "T4.2"}
    assert data["summary"]["fail"] == 0


def test_crosscheck_unknown_id_exit_1():
    proc = run_cli(["crosscheck", "--only", "T9.9"])
    assert proc.returncode == 1


def test_usage_error_exit_1():
    proc = run_cli(["classify"])  # missing target
    assert proc.returncode == 1
    proc = run_cli(["nonsense"])
    assert proc.returncode == 1


def test_crosscheck_failure_maps_to_exit_3(monkeypatch, capsys):
    def fake_run(only=None, backend="exact", tol=1e-9, seed=None):
        return {
            "schema": 1,
            "results": [
                {"theorem": "T4.1", "algebra": "X", "status": "fail", "detail": "boom"}
            ],
            "summary": {"pass": 0, "fail": 1, "skip": 0, "open": 0},
        }

    monkeypatch.setattr(cli, "run_crosscheck", fake_run)
    rc = cli.main(["crosscheck"])
    assert rc == 3
    assert "fail" in capsys.readouterr().out
