"""End-to-end CLI behaviour: exit codes, JSON output, and determinism."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer import cli
from amenalyzer.algebra import (
    commutator_span,
    from_json_dict,
    ideal_closure,
    matrix_algebra,
    pointwise_algebra,
    quotient_map,
    to_json_dict,
    truncated_polynomial,
    upper_triangular,
    zero_algebra,
)

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


def test_construct_tensor_refuses_a_product_beyond_the_reader_bound(tmp_path):
    # each factor is within the reader's bound, but the product 1e200 is not
    big = tmp_path / "big.json"
    doc = {"name": "big", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, "1e100", "0"]]}
    big.write_text(json.dumps(doc))
    out = tmp_path / "t.json"
    proc = run_cli(["construct", "tensor", str(big), str(big), "-o", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("bad parameters for construct tensor: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_classify_accepts_a_file_whose_quotient_exceeds_the_reader_bound(tmp_path):
    # every part is within the bound; the commutator quotient, an exact
    # intermediate of the character search, holds 1e200 and is not refused
    doc = {
        "name": "Big5", "dim": 5, "labels": [f"e{i}" for i in range(5)],
        "sc": [[2, 3, 0, "1", "0"], [3, 2, 1, "1e100", "0"], [4, 4, 0, "1e100", "0"]],
    }
    a = from_json_dict(doc)
    quotient, _ = quotient_map(a, ideal_closure(a, commutator_span(a)))
    assert max(abs(c.re) for plane in quotient.nz for terms in plane for _, c in terms) == 10**200
    path = tmp_path / "big5.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["classify", str(path), "--json", "--witnesses"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["dims"] == {
        "Inn": 1, "Z": 9, "Zc": 3, "n": 5, "point_derivations": [], "product_span": 2,
        "quasi_additive": 9, "radical": 5, "t_rank": 6, "zero_point_space": 3,
    }
    assert report["flags"] == {
        "conditional": False, "cyclically_amenable": False,
        "cyclically_weakly_amenable": False, "point_amenable": True,
        "weakly_amenable": False, "zero_point_amenable": False,
    }


def test_float_classify_refuses_constants_spanning_too_many_orders(tmp_path):
    # float read Z 10 and t_rank 7 for this file, where exact reads 9 and 6
    doc = {
        "name": "Big5", "dim": 5, "labels": [f"e{i}" for i in range(5)],
        "sc": [[2, 3, 0, "1", "0"], [3, 2, 1, "1e100", "0"], [4, 4, 0, "1e100", "0"]],
    }
    path = tmp_path / "big5.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["classify", str(path), "--json", "--backend", "float"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: Big5: nonzero structure constants span moduli 1 to 1e+100")
    assert "--backend exact" in proc.stderr


@pytest.mark.parametrize("command", ["derivations", "quasiadd"])
def test_seed_is_a_usage_error_where_no_character_is_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "builtin:M2", "--seed", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert cli.main([command, "builtin:M2", "--json"]) == 0


@pytest.mark.parametrize(
    "params,message",
    [
        (["[[1,0],[0,0]]"], "semigroup is not associative at (0, 0, 1): (e0*e0)*e1 != e0*(e0*e1)"),
        (["[[0,1],[1,0]]", "[2,2]"], "semigroup breaks a weight rule at (0,): unit element must have weight 1"),
        (["[[0,1],[1,0]]", '[1,"1/2"]'], "semigroup breaks a weight rule at (1,): weight 1/2 < 1"),
        (["[[0,0],[0,0]]", "[3,1]"], "semigroup breaks a weight rule at (1, 1): weight not submultiplicative"),
    ],
)
def test_construct_semigroup_is_refused_with_the_first_validation_issue(params, message, tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert cli.main(["construct", "semigroup", *params, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"bad parameters for construct semigroup: {message}")
    assert not out.exists()


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
    # the package reads no environment variable: a value that is not an
    # integer neither sets the seed nor crashes the run
    env = json.loads(
        run_cli(
            ["classify", "builtin:C1", "--json"], env_extra={"AMENALYZER_SEED": "abc"}, check=True
        ).stdout
    )
    assert env["seed"] == 1729
    flag = json.loads(
        run_cli(
            ["classify", "builtin:C1", "--json", "--seed", "7"],
            env_extra={"AMENALYZER_SEED": "abc"},
            check=True,
        ).stdout
    )
    assert flag["seed"] == 7


def test_classify_float_backend_matches_exact_dims():
    ex = json.loads(run_cli(["classify", "builtin:S3", "--json"], check=True).stdout)
    fl = json.loads(
        run_cli(
            ["classify", "builtin:S3", "--json", "--backend", "float"],
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


@pytest.mark.parametrize("only", ["T4.1,", ",T4.1", " T4.1 , ,"])
def test_crosscheck_only_skips_empty_chunks(only, capsys):
    assert cli.main(["crosscheck", "--only", only, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {r["theorem"] for r in data["results"]} == {"T4.1"}


@pytest.mark.parametrize("only", [",", " , ", ""])
def test_crosscheck_only_naming_no_id_exits_1(only, capsys):
    assert cli.main(["crosscheck", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("--only names no theorem id; known: P2.1,")


def test_crosscheck_unknown_id_is_named_beside_a_trailing_comma(capsys):
    assert cli.main(["crosscheck", "--only", "T4.1,T9.9,"]) == 1
    assert capsys.readouterr().err.startswith("unknown theorem id 'T9.9'; known: ")


def test_usage_error_exit_1():
    proc = run_cli(["classify"])  # missing target
    assert proc.returncode == 1
    proc = run_cli(["nonsense"])
    assert proc.returncode == 1


def test_crosscheck_failure_maps_to_exit_3(monkeypatch, capsys):
    def fake_run(only=None, backend="exact", *, seed=None):
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


def test_malformed_algebra_files_exit_2_without_traceback(tmp_path):
    base = {"name": "x", "dim": 1, "labels": ["e"], "sc": [[0, 0, 0, "1", "0"]]}
    texts = [
        json.dumps({**base, key: value})
        for key, value in (
            ("labels", 5),
            ("sc", [5]),
            ("unit", 1),
            ("dim", True),
            ("sc", [[0, 0, 0, "1e999999999", "0"]]),  # hung inside Fraction
            ("sc", [[0, 0, 0, "1e5000", "0"]]),
            ("sc", [[0, 0, 0, "1e400", "0"]]),  # beyond the float range
            # squares beyond the float range
            ("sc", [[0, 0, 0, "1e160", "0"]]),
            ("sc", [[0, 0, 0, "1e200", "0"]]),
            ("sc", [[0, 0, 0, "1e300", "0"]]),
            ("sc", [[0, 0, 0, True, "0"]]),
            ("unit", ["1e999999999"]),
            ("unit", [0.1]),
            ("characters", [[True]]),
            ("characters", [["2"]]),  # well formed, but not multiplicative
            ("weight", ["1e999999999"]),
            ("weight", [True]),
        )
    ]
    # JSON the decoder itself refuses with a ValueError or a RecursionError
    head = '{"name": "x", "dim": 1, "labels": ["e"], "sc": '
    texts.append(head + '[[0, 0, 0, 1%s, "0"]]}' % ("0" * 5000))
    texts.append(head + "[" * 100000 + "]" * 100000 + "}")
    for t, text in enumerate(texts):
        path = tmp_path / f"bad-{t}.json"
        path.write_text(text)
        proc = run_cli(["classify", str(path), "--json"])
        assert proc.returncode == 2, (text[:80], proc.stderr)
        assert "Traceback" not in proc.stderr, text[:80]
        assert proc.stderr.startswith("error:"), text[:80]


def _one_block_algebra(n):
    """e_i e_j = f_i g_j w with f . w = g . w = 0, so every triple product
    vanishes.  For n = 11 its derivation system is one block of 1,331
    nonempty rows on all 121 columns."""
    f = [Fraction(i + 1) for i in range(n)]
    g = [Fraction((i + 1) ** 2) for i in range(n)]
    rest = [Fraction(1)] * (n - 2)
    # w0 and w1 solve f . w = g . w = 0 with w_k = 1 for k >= 2
    sf, sg = -sum(f[2:]), -sum(g[2:])
    det = f[0] * g[1] - f[1] * g[0]
    w = [(sf * g[1] - f[1] * sg) / det, (f[0] * sg - g[0] * sf) / det] + rest
    sc = [
        [i, j, k, str(f[i] * g[j] * w[k]), "0"]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]
    return {"name": f"OneBlock{n}", "dim": n, "labels": [f"e{i}" for i in range(n)], "sc": sc}


def test_float_system_that_cannot_be_mapped_is_named_without_traceback(tmp_path, capsys):
    # a block of 1 MiB or more is mapped on pages of its own; this algebra's
    # one block is 1331 x 121 float64, 1.29 MB
    path = tmp_path / "one-block.json"
    path.write_text(json.dumps(_one_block_algebra(11)))
    refused = OSError(errno.ENOMEM, "Cannot allocate memory")
    with mock.patch("mmap.mmap", side_effect=refused):
        assert cli.main(["classify", str(path), "--backend", "float"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 12]") and "Traceback" not in err
    assert "(1331, 121)" in err and "0.00129 GB" in err and "--backend exact" in err


BAD_INVOCATIONS = {
    # the float tolerance is fixed, so --tol with any value is a usage error
    "tol-removed": ["classify", "builtin:TruncPoly3", "--tol", "1e-9"],
    "tol-negative": ["classify", "builtin:TruncPoly3", "--backend", "float", "--tol=-1"],
    "tol-nan": ["classify", "builtin:TruncPoly3", "--backend", "float", "--tol", "nan"],
    "tol-inf": ["classify", "builtin:TruncPoly3", "--backend", "float", "--tol", "inf"],
    "tol-zero": ["derivations", "builtin:TruncPoly3", "--tol", "0"],
    "tol-one": ["quasiadd", "builtin:TruncPoly3", "--tol", "1"],
    "tol-text": ["characters", "builtin:TruncPoly3", "--tol", "small"],
    "crosscheck-tol-nan": ["crosscheck", "--only", "T4.1", "--tol", "nan"],
    # semigroup tables that gave a TypeError traceback or were read as ints
    "table-string-entry": ["construct", "semigroup", '[[0,"a"],[1,0]]'],
    "table-float-entry": ["construct", "semigroup", "[[0,1],[1,1.0]]"],
    "table-not-a-list": ["construct", "semigroup", '{"a":1}'],
    "table-bool-entry": ["construct", "semigroup", "[[0,1],[1,true]]"],
    "weight-bool": ["construct", "semigroup", "[[0,1],[1,0]]", "[1,true]"],
    "weight-not-a-list": ["construct", "semigroup", "[[0,1],[1,0]]", '{"a":1}'],
    "weight-huge-exponent": ["construct", "semigroup", "[[0,1],[1,0]]", '[1,"1e999999999"]'],
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_invocations_exit_1_without_traceback(case, tmp_path):
    out = tmp_path / "out.json"
    args = BAD_INVOCATIONS[case]
    if args[0] == "construct":
        args = args + ["-o", str(out)]
    proc = run_cli(args)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()
    if args[0] == "construct":
        assert proc.stderr.startswith("bad parameters for construct semigroup: ")
    else:
        assert "unrecognized arguments: --tol" in proc.stderr


# Whole algebra documents for the fuzzer below: a valid document of each of
# these algebras (dims 1 to 4), with well-formed or malformed values put into
# any of its fields.
_FUZZ_BASES = [
    to_json_dict(a)
    for a in (
        zero_algebra(1),
        pointwise_algebra(2),
        truncated_polynomial(3),
        upper_triangular(2),
        matrix_algebra(2),
        pointwise_algebra(4),
    )
]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
_GOOD_PART = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1e3", "0.25", "1e-3", "1e150", "1e-150"])
_PART = st.one_of(
    _GOOD_PART,
    st.sampled_from(["1/0", "abc", "", "1e999999999", "nan", "inf", "1e400", "1+i", " 1 "]),
    _JUNK,
)
_INDEX = st.one_of(st.integers(-1, 4), _JUNK)


@st.composite
def algebra_documents(draw):
    """A document of one of ``_FUZZ_BASES``: ``sc`` is kept or gains
    well-formed or malformed entries, and every other field is kept or set
    to a well-formed or a malformed value."""
    doc = dict(draw(st.sampled_from(_FUZZ_BASES)))
    n = doc["dim"]

    def vector(part, pair):
        return st.lists(st.one_of(part, pair), min_size=n, max_size=n)

    vectors = {
        "good": vector(_GOOD_PART, st.lists(_GOOD_PART, min_size=2, max_size=2)),
        "bad": st.one_of(vector(_PART, st.lists(_PART, min_size=1, max_size=3)), st.lists(_PART, max_size=5), _JUNK),
    }
    entries = {
        "good": st.tuples(*[st.integers(0, n - 1)] * 3, _GOOD_PART, _GOOD_PART).map(list),
        "bad": st.one_of(st.tuples(*[_INDEX] * 3, _PART, _PART).map(list), st.lists(_INDEX, max_size=6), _JUNK),
    }
    modes = st.sampled_from(["keep", "keep", "good", "bad"])
    mode = draw(modes)
    if mode != "keep":
        sc = list(doc["sc"])
        for _ in range(draw(st.integers(1, 3))):
            sc.insert(draw(st.integers(0, len(sc))), draw(entries[mode]))
        doc["sc"] = sc
    for key in ("dim", "labels"):
        if draw(modes) == "bad":
            doc[key] = draw(_JUNK)
    for key in ("unit", "weight", "idempotent_span", "characters"):
        mode = draw(modes)
        if mode != "keep":
            many = key in ("idempotent_span", "characters")
            doc[key] = draw(st.lists(vectors[mode], max_size=3) if many else vectors[mode])
    return doc


@given(doc=algebra_documents())
@settings(max_examples=200, deadline=None)
def test_any_algebra_document_exits_0_1_or_2_without_an_exception(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for args in (["validate", path], ["classify", path, "--json"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(args) in (0, 1, 2)
