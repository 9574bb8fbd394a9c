"""One-stop analysis of a single algebra plus the versioned report schema."""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    FiniteAlgebra,
    is_essential,
    is_unital,
    product_span,
    radical,
    validate,
)
from .characters import (
    CharacterSearch,
    amenability_flags,
    find_characters,
    resolve_seed,
)
from .derivations import DerivationAnalysis, classify_derivations
from .linalg import DEFAULT_TOL, EXACT
from .quasiadd import (
    cyclic_quasi_space,
    inner_quasi_space,
    quasi_additive_space,
    semigroup_quasi_additive,
)
from .scalars import QQi, pair_str

SCHEMA_VERSION = 1


class Analysis:
    """Lazily computed classification data for one algebra and backend."""

    def __init__(self, algebra: FiniteAlgebra, backend=EXACT, tol=DEFAULT_TOL, seed=None):
        self.algebra = algebra
        self.backend = backend
        self.tol = tol
        self.seed = resolve_seed(seed)

    @cached_property
    def validation(self):
        return validate(self.algebra)

    @cached_property
    def commutative(self) -> bool:
        return self.algebra.is_commutative()

    @cached_property
    def unital(self):
        return is_unital(self.algebra)

    @cached_property
    def essential(self) -> bool:
        return is_essential(self.algebra, self.backend, self.tol)

    @cached_property
    def product_span(self):
        return product_span(self.algebra, self.backend, self.tol)

    @cached_property
    def radical(self):
        return radical(self.algebra, self.backend, self.tol)

    @cached_property
    def semisimple(self) -> bool:
        return self.radical.dim == 0

    @cached_property
    def derivations(self) -> DerivationAnalysis:
        return classify_derivations(self.algebra, self.backend, self.tol)

    @cached_property
    def characters(self) -> CharacterSearch:
        return find_characters(self.algebra, seed=self.seed, tol=self.tol, backend=self.backend)

    @cached_property
    def points(self):
        return amenability_flags(
            self.algebra, search=self.characters, backend=self.backend, tol=self.tol
        )

    @cached_property
    def qa_space(self):
        return quasi_additive_space(self.algebra, self.backend, self.tol)

    @cached_property
    def inner_qa(self):
        return inner_quasi_space(self.algebra, self.backend, self.tol)

    @cached_property
    def cyclic_qa(self):
        return cyclic_quasi_space(self.algebra, self.qa_space, self.backend, self.tol)

    @cached_property
    def table_qa(self):
        """The table-indexed quasi-additive space; semigroup algebras only."""
        return semigroup_quasi_additive(self.algebra, self.backend, self.tol)

    @property
    def flags(self) -> dict:
        d = self.derivations
        p = self.points
        return {
            "weakly_amenable": d.weakly_amenable,
            "cyclically_amenable": d.cyclically_amenable,
            "cyclically_weakly_amenable": d.cyclically_weakly_amenable,
            "point_amenable": p.point_amenable,
            "zero_point_amenable": p.zero_point_amenable,
            "conditional": p.conditional,
        }


class AnalysisCache:
    def __init__(self, backend=EXACT, tol=DEFAULT_TOL, seed=None):
        self.backend = backend
        self.tol = tol
        self.seed = resolve_seed(seed)
        self._store = {}

    def get(self, algebra: FiniteAlgebra) -> Analysis:
        key = algebra
        if key not in self._store:
            self._store[key] = Analysis(algebra, self.backend, self.tol, self.seed)
        return self._store[key]


# ---------------------------------------------------------------------------
# serialization


def _scalar_json(x):
    if isinstance(x, QQi):
        return pair_str(x)
    c = complex(x)
    return [c.real, c.imag]


def _vector_json(v):
    return [_scalar_json(x) for x in v]


def _matrix_json(m):
    return [[_scalar_json(x) for x in row] for row in m]


def character_json(ch):
    return {
        "values": _vector_json(ch.phi),
        "exact": ch.exact,
    }


def build_report(analysis: Analysis, include_witnesses=False) -> dict:
    """Assemble the versioned classification report for one algebra.

    ``dims.quasi_additive`` is dim Z: by Theorem 3.1 the quasi-additive
    functionals on the tensor square are, coordinate for coordinate, the
    derivations into the dual, so the report solves that system once.  The
    ``T3.1`` cross-check assembles the tensor-square system separately and
    asserts the equality.
    """
    a = analysis.algebra
    d = analysis.derivations
    p = analysis.points
    unital, unit_vec = analysis.unital
    report = {
        "schema": SCHEMA_VERSION,
        "name": a.name,
        "backend": analysis.backend,
        "tol": analysis.tol,
        "seed": analysis.seed,
        "dims": {
            "n": a.dim,
            "Z": d.z.dim,
            "Inn": d.inner.dim,
            "Zc": d.zc.dim,
            "t_rank": d.t_rank,
            "quasi_additive": d.z.dim,
            "radical": analysis.radical.dim,
            "product_span": analysis.product_span.dim,
            "zero_point_space": p.zero_space_dim,
            "point_derivations": [
                {
                    "character": character_json(ch),
                    "dim": dim,
                    "cotangent": cot,
                }
                for ch, dim, cot in zip(p.characters, p.pd_dims, p.cotangent_dims)
            ],
        },
        "predicates": {
            "commutative": analysis.commutative,
            "unital": unital,
            "essential": analysis.essential,
            "semisimple": analysis.semisimple,
        },
        "flags": analysis.flags,
        "characters_certified": p.certified,
    }
    if include_witnesses:
        report["witnesses"] = {
            flag: _matrix_json(mat) for flag, mat in d.witnesses.items()
        }
    return report


def render_text(report: dict) -> str:
    """Human-readable rendering derived from the JSON report."""
    lines = []
    dims = report["dims"]
    preds = report["predicates"]
    flags = report["flags"]
    lines.append(f"algebra: {report['name']}  (dim {dims['n']})")
    lines.append(
        f"backend: {report['backend']}  tol={report['tol']}  seed={report['seed']}"
    )
    lines.append(
        "predicates: "
        + ", ".join(k for k, v in sorted(preds.items()) if v)
        + (" (none)" if not any(preds.values()) else "")
    )
    lines.append(
        f"dims: Z={dims['Z']}  Inn={dims['Inn']}  Zc={dims['Zc']}  "
        f"t_rank={dims['t_rank']}  quasi_additive={dims['quasi_additive']}  "
        f"radical={dims['radical']}"
    )
    nchars = len(dims["point_derivations"])
    lines.append(
        f"characters: {nchars}"
        + ("" if report["characters_certified"] else " (completeness not certified)")
    )
    for entry in dims["point_derivations"]:
        vals = entry["character"]["values"]
        txt = ", ".join(
            f"{v[0]}+{v[1]}i" if isinstance(v[0], str) else f"{v[0]:.6g}{v[1]:+.6g}i"
            for v in vals
        )
        lines.append(
            f"  phi=({txt})  point_derivations={entry['dim']}  cotangent={entry['cotangent']}"
        )
    lines.append(f"zero-functional point derivations: {dims['zero_point_space']}")
    flag_names = [
        ("weakly_amenable", "WA"),
        ("cyclically_amenable", "CA"),
        ("cyclically_weakly_amenable", "CWA"),
        ("point_amenable", "PA"),
        ("zero_point_amenable", "0-PA"),
    ]
    marks = []
    for key, short in flag_names:
        mark = "yes" if flags[key] else "no"
        if flags["conditional"] and key in ("point_amenable", "zero_point_amenable"):
            mark += "?"
        marks.append(f"{short}={mark}")
    lines.append("flags: " + "  ".join(marks))
    if "witnesses" in report and report["witnesses"]:
        lines.append("witnesses for failed flags: " + ", ".join(sorted(report["witnesses"])))
    return "\n".join(lines)
