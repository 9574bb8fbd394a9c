"""Command-line interface.

Exit codes: 0 success, 1 usage or I/O error, 2 validation failure
(malformed file, non-associative input, unknown builtin), 3 cross-check
falsification.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys

from .corpus import corpus_names as _corpus_names
from .corpus import get as _corpus_get
from .algebra import (
    AlgebraFormatError,
    dump_algebra,
    load_algebra,
    matrix_algebra,
    pointwise_algebra,
    semigroup_algebra,
    tensor_product,
    truncated_polynomial,
    unitize,
    upper_triangular,
    validate,
    zero_algebra,
    direct_sum,
)
from .classify import Analysis, build_report, render_text
from .crosscheck import CHECK_IDS, FAIL, run_crosscheck
from .linalg import EXACT


def _load_target(target: str):
    if target.startswith("builtin:"):
        name = target[len("builtin:") :]
        try:
            return _corpus_get(name)
        except KeyError as exc:
            raise AlgebraFormatError(str(exc)) from exc
    return load_algebra(target)


def _emit_json(data):
    print(json.dumps(data, indent=2, sort_keys=True))


def _add_options(parser):
    parser.add_argument("--backend", choices=["exact", "float"], default=EXACT)
    parser.add_argument("--json", action="store_true", dest="as_json")


def _add_common(parser):
    parser.add_argument("target", help="algebra file path or builtin:NAME")
    _add_options(parser)


def _add_seed(parser):
    # only a command that reads a character takes a seed
    parser.add_argument("--seed", type=int, default=None)


def cmd_validate(args):
    a = _load_target(args.target)
    report = validate(a)
    if report.ok:
        print(f"{a.name}: valid ({a.dim}-dimensional)")
        return 0
    print(f"{a.name}: INVALID")
    print(str(report))
    return 2


def _classified(args) -> Analysis:
    a = _load_target(args.target)
    report = validate(a)
    if not report.ok:
        raise AlgebraFormatError(f"{a.name} failed validation:\n{report}")
    return Analysis(a, backend=args.backend, seed=getattr(args, "seed", None))


def cmd_classify(args):
    an = _classified(args)
    report = build_report(an, include_witnesses=args.witnesses)
    if args.as_json:
        _emit_json(report)
    else:
        print(render_text(report))
    return 0


def cmd_characters(args):
    an = _classified(args)
    from .classify import character_json

    chars = an.characters
    data = {
        "schema": 1,
        "name": an.algebra.name,
        "certified": chars.certified,
        "characters": [character_json(c) for c in chars.characters],
        "seed": an.seed,
    }
    if args.as_json:
        _emit_json(data)
    else:
        print(f"{an.algebra.name}: {len(chars.characters)} character(s)")
        if not chars.certified:
            print("  WARNING: completeness not certified")
        for c in chars.characters:
            vals = ", ".join(str(x) for x in c.phi)
            kind = "exact" if c.exact else "float"
            print(f"  ({vals})  [{kind}]")
    return 0


def cmd_derivations(args):
    an = _classified(args)
    data = {
        "schema": 1,
        "name": an.algebra.name,
        "dims": {"Z": an.z.dim, "Inn": an.inner.dim, "Zc": an.zc.dim, "t_rank": an.t_rank},
        "flags": {
            "weakly_amenable": an.weakly_amenable,
            "cyclically_amenable": an.cyclically_amenable,
            "cyclically_weakly_amenable": an.cyclically_weakly_amenable,
        },
    }
    if args.as_json:
        _emit_json(data)
    else:
        print(
            f"{an.algebra.name}: Z={an.z.dim} Inn={an.inner.dim} Zc={an.zc.dim} "
            f"t_rank={an.t_rank}"
        )
        print(
            f"  WA={an.weakly_amenable} CA={an.cyclically_amenable} "
            f"CWA={an.cyclically_weakly_amenable}"
        )
    return 0


def cmd_quasiadd(args):
    an = _classified(args)
    data = {
        "schema": 1,
        "name": an.algebra.name,
        "dims": {
            "quasi_additive": an.qa_space.dim,
            "inner": an.inner_qa.dim,
            "cyclic": an.cyclic_qa.dim,
        },
    }
    from .algebra import recover_cayley_table
    from .quasiadd import NotASemigroupAlgebra, cd_space, weighted_norm

    table = recover_cayley_table(an.algebra)
    if table is not None:
        sg = {"table_indexed": an.table_qa.dim}
        try:
            sg["cd"] = cd_space(an.algebra, an.table_qa).dim
        except NotASemigroupAlgebra:
            sg["cd"] = None
        sg["inner"] = an.table_inner.dim
        if an.algebra.weight is not None:
            sg["weighted_norms"] = [
                weighted_norm(flat, an.algebra.weight, an.algebra.dim)
                for flat in an.qa_space.rows
            ]
        data["semigroup"] = sg
    if args.as_json:
        _emit_json(data)
    else:
        dims = data["dims"]
        print(
            f"{an.algebra.name}: quasi_additive={dims['quasi_additive']} "
            f"inner={dims['inner']} cyclic={dims['cyclic']}"
        )
        if "semigroup" in data:
            print(f"  semigroup view: {data['semigroup']}")
    return 0


def cmd_construct(args):
    kind = args.kind
    params = args.params
    try:
        if kind in ("matrix", "pointwise", "truncpoly", "zero", "triangular"):
            k = int(params[0])
            builder = {
                "matrix": matrix_algebra,
                "pointwise": pointwise_algebra,
                "truncpoly": truncated_polynomial,
                "zero": zero_algebra,
                "triangular": upper_triangular,
            }[kind]
            a = builder(k)
        elif kind == "semigroup":
            table = json.loads(params[0])
            weight = json.loads(params[1]) if len(params) > 1 else None
            identity = int(params[2]) if len(params) > 2 else None
            a = semigroup_algebra(table, weight=weight, identity=identity)
        elif kind == "unitize":
            a = unitize(_load_target(params[0]))
        elif kind == "tensor":
            a = tensor_product(_load_target(params[0]), _load_target(params[1]))
        else:  # "directsum", the last kind argparse admits
            a = direct_sum(_load_target(params[0]), _load_target(params[1]))
    except (IndexError, ValueError, json.JSONDecodeError) as exc:
        print(f"bad parameters for construct {kind}: {exc}", file=sys.stderr)
        return 1
    dump_algebra(a, args.output)
    print(f"wrote {a.name} (dim {a.dim}) to {args.output}")
    return 0


def cmd_corpus(args):
    # argparse admits one action, "list"
    for name in _corpus_names():
        a = _corpus_get(name)
        print(f"{name}\tdim={a.dim}")
    return 0


def cmd_crosscheck(args):
    only = None
    if args.only is not None:
        # empty chunks, such as a trailing comma leaves, name nothing
        ids = [cid for cid in map(str.strip, args.only.split(",")) if cid]
        unknown = [cid for cid in ids if cid not in CHECK_IDS]
        if not ids or unknown:
            what = f"unknown theorem id {unknown[0]!r}" if unknown else "--only names no theorem id"
            print(f"{what}; known: {','.join(CHECK_IDS)}", file=sys.stderr)
            return 1
        only = set(ids)
    result = run_crosscheck(only=only, backend=args.backend, seed=args.seed)
    if args.as_json:
        _emit_json(result)
    else:
        for r in result["results"]:
            detail = f"  ({r['detail']})" if r["detail"] else ""
            print(f"{r['theorem']:6s} {r['algebra']:16s} {r['status']}{detail}")
        s = result["summary"]
        print(
            f"summary: pass={s['pass']} fail={s['fail']} skip={s['skip']} open={s['open']}"
        )
    if result["summary"][FAIL]:
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    p = _Parser(
        prog="amenalyzer",
        description=(
            "Classify finite-dimensional associative algebras, given by "
            "structure constants, by their derivation-based amenability "
            "properties."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check an algebra file")
    sp.add_argument("target", help="algebra file path or builtin:NAME")
    sp.set_defaults(fn=cmd_validate)

    for name, fn, extra in (
        ("classify", cmd_classify, True),
        ("characters", cmd_characters, False),
        ("derivations", cmd_derivations, False),
        ("quasiadd", cmd_quasiadd, False),
    ):
        sp = sub.add_parser(name, help=f"run {name} on an algebra")
        _add_common(sp)
        if extra:
            sp.add_argument("--witnesses", action="store_true")
        sp.set_defaults(fn=fn)
    for name in ("classify", "characters"):
        _add_seed(sub.choices[name])

    sp = sub.add_parser("construct", help="build a standard algebra and write it")
    sp.add_argument(
        "kind",
        choices=[
            "matrix",
            "pointwise",
            "truncpoly",
            "zero",
            "triangular",
            "semigroup",
            "unitize",
            "tensor",
            "directsum",
        ],
    )
    sp.add_argument("params", nargs="*")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("corpus", help="operations on the built-in corpus")
    sp.add_argument("action", choices=["list"])
    sp.set_defaults(fn=cmd_corpus)

    sp = sub.add_parser("crosscheck", help="run the invariant suite on the corpus")
    sp.add_argument("--only", help="comma-separated theorem ids")
    _add_options(sp)
    _add_seed(sp)
    sp.set_defaults(fn=cmd_crosscheck)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AlgebraFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # ENOMEM comes from mapping a float system, which the exact lane never holds dense
        hint = "; --backend exact solves the system sparsely" if exc.errno == errno.ENOMEM else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
