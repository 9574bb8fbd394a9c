"""Shape and stability of the cross-check suite itself."""

import ast
import dataclasses
import inspect
import pathlib
import sys

import pytest

from amenalyzer import algebra, characters, derivations, quasiadd
from amenalyzer import corpus as corpus_module
from amenalyzer.classify import Analysis, build_report
from amenalyzer.corpus import corpus
from amenalyzer.crosscheck import CHECK_IDS, run_crosscheck
from amenalyzer.linalg import EXACT, Subspace


@pytest.fixture(scope="module")
def result():
    return run_crosscheck()


def test_every_check_covers_every_corpus_algebra(result):
    names = set(corpus().keys())
    seen = {}
    for r in result["results"]:
        seen.setdefault(r["theorem"], set()).add(r["algebra"])
    assert set(seen.keys()) == set(CHECK_IDS)
    for cid, algebras in seen.items():
        assert algebras == names, cid


def test_no_hard_failures(result):
    failures = [r for r in result["results"] if r["status"] == "fail"]
    assert failures == []


def test_skips_carry_reasons(result):
    for r in result["results"]:
        if r["status"] == "skip":
            assert r["detail"], (r["theorem"], r["algebra"])
            assert "hypothesis" in r["detail"] or "partner" in r["detail"]


def test_open_items_are_the_known_unproven_directions(result):
    opens = {(r["theorem"], r["algebra"]) for r in result["results"] if r["status"] == "open"}
    # the recorded counterexamples concern only the unproven quotient
    # construction converse and the character-column forward direction
    assert {t for t, _ in opens} <= {"T3.1", "C3.2"}
    assert ("C3.2", "UpperTri2") in opens


def test_non_essential_entries_flagged_by_p23(result):
    rows = {r["algebra"]: r for r in result["results"] if r["theorem"] == "P2.3"}
    assert rows["Czero1"]["status"] == "pass"
    assert rows["Czero2"]["status"] == "pass"
    assert rows["EF"]["status"] == "pass"
    assert rows["M2"]["status"] == "skip"


def test_group_checks_run_only_on_group_algebras(result):
    for cid in ("T5.5f", "T5.6f"):
        rows = {r["algebra"]: r["status"] for r in result["results"] if r["theorem"] == cid}
        assert rows["Z2"] == "pass"
        assert rows["Z3"] == "pass"
        assert rows["S3"] == "pass"
        assert rows["Z2w"] == "pass"
        assert rows["M2"] == "skip"
        assert rows["TruncPoly2"] == "skip"


def test_singly_generated_check_covers_truncated_polynomials(result):
    rows = {r["algebra"]: r["status"] for r in result["results"] if r["theorem"] == "T5.9f"}
    for name in ("C1", "TruncPoly2", "TruncPoly3", "TruncPoly4", "Z2"):
        assert rows[name] == "pass", name
    assert rows["TensorTP2TP2"] == "skip"  # two generators needed
    assert rows["M2"] == "skip"


def test_idempotent_span_check(result):
    rows = {r["algebra"]: r["status"] for r in result["results"] if r["theorem"] == "P5.11"}
    for name in ("Pointwise2", "Pointwise3", "Pointwise4", "Z2", "M2"):
        assert rows[name] == "pass", name
    assert rows["TruncPoly2"] == "skip"


def test_repeat_run_is_identical(result):
    again = run_crosscheck()
    assert again == result


def test_float_backend_suite_matches_exact_statuses(result):
    fl = run_crosscheck(backend="float")
    assert fl["summary"] == result["summary"]
    exact_statuses = {(r["theorem"], r["algebra"]): r["status"] for r in result["results"]}
    for r in fl["results"]:
        assert r["status"] == exact_statuses[(r["theorem"], r["algebra"])], r


def _count_solves(monkeypatch, key_args):
    """Replace every module binding of each solver in ``key_args`` (a
    {function: argument names} dict) by a wrapper counting its calls, so a
    call through any import is counted.  Returns the {(solver name,
    *arguments): calls} dict the wrappers fill."""
    solved = {}

    def counting(fn, names):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (fn.__name__,) + tuple(bound.arguments[k] for k in names)
            solved[key] = solved.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {fn: counting(fn, names) for fn, names in key_args.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "amenalyzer" or mod_name.startswith("amenalyzer."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    return solved


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_each_per_character_space_is_solved_once(backend, monkeypatch):
    """Every point-derivation space and maximal ideal of a run is solved
    once, however many checks read it, and so are Z, Inn and the
    quasi-additive space of each (algebra, lane), also for an algebra met
    in two roles (a corpus entry that is another entry's unitization, or
    the T2.7 partner).  The radical is solved once per (algebra, backend)
    too: the character reduction is exact, so a float run's analyses and
    their exact siblings read one reduction per algebra."""
    # a fresh corpus, whose algebras hold no reduction from an earlier run
    monkeypatch.setattr(corpus_module, "_CORPUS", None)
    solved = _count_solves(
        monkeypatch,
        {
            characters.point_derivation_space: ("a", "phi", "backend"),
            characters.maximal_ideal: ("a", "phi"),
            derivations.derivation_space: ("a", "backend"),
            derivations.inner_space: ("a", "backend"),
            quasiadd.quasi_additive_space: ("a", "backend"),
            algebra.radical: ("a", "backend"),
        },
    )
    run_crosscheck(backend=backend)
    assert {k[0] for k in solved} == {
        "point_derivation_space",
        "maximal_ideal",
        "derivation_space",
        "inner_space",
        "quasi_additive_space",
        "radical",
    }
    repeated = sorted((k[0], k[1].name, n) for k, n in solved.items() if n > 1)
    assert repeated == []
    # 56 distinct (algebra, backend) keys on either lane; a float run solved
    # 75 while each analysis ran its own reduction
    assert sum(n for k, n in solved.items() if k[0] == "radical") == 56


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_build_report_solves_the_product_span_once(backend, monkeypatch):
    """The report and the essential predicate read one solved product span."""
    solved = _count_solves(monkeypatch, {algebra.product_span: ("a", "backend")})
    for name, a in sorted(corpus().items()):
        build_report(Analysis(a, backend))
        assert solved.pop(("product_span", a, backend)) == 1, name
    assert solved == {}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_each_table_inner_space_is_solved_once(backend, monkeypatch):
    """T5.5f and T5.6f read one table-indexed inner space per group algebra."""
    solved = _count_solves(monkeypatch, {quasiadd.inner_q: ("a", "backend")})
    result = run_crosscheck(backend=backend)
    groups = {
        r["algebra"]
        for r in result["results"]
        if r["theorem"] == "T5.5f" and r["status"] != "skip"
    }
    assert groups
    assert sorted(k[1].name for k in solved) == sorted(groups)
    assert set(solved.values()) == {1}


def test_a_positional_tolerance_is_refused():
    # the float tolerance is fixed; seed is keyword-only, so a tolerance
    # passed where it once went cannot run as seed int(1e-9) = 0
    a = algebra.truncated_polynomial(2)
    with pytest.raises(TypeError):
        Analysis(a, EXACT, 1e-9)
    with pytest.raises(TypeError):
        run_crosscheck(None, EXACT, 1e-9)
    with pytest.raises(TypeError):
        characters.find_characters(a, None, 1e-9)


def test_no_function_takes_a_tolerance():
    src = pathlib.Path(algebra.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert "tol" not in [x.arg for x in args], f"{path.name}:{node.lineno} {node.name}"
    assert [f.name for f in dataclasses.fields(Subspace)] == ["ambient", "basis", "pivots", "backend"]
    assert not hasattr(Analysis(algebra.truncated_polynomial(2)), "tol")
