"""One-stop analysis of a single algebra plus the versioned report schema."""

from __future__ import annotations

from functools import cached_property

from .algebra import FiniteAlgebra, check_bound, check_float_spread, is_unital, product_span, radical
from .characters import (
    CharacterSearch,
    find_characters,
    ideal_product_span,
    maximal_ideal,
    point_derivation_space,
    resolve_seed,
)
from .derivations import (
    cyclic_subspace,
    derivation_space,
    inner_space,
    t_operator_rank,
    unflatten_map,
)
from .linalg import DEFAULT_TOL, EXACT, FLOAT, Subspace, subspace_equal
from .quasiadd import (
    cyclic_quasi_space,
    inner_q,
    inner_quasi_space,
    quasi_additive_space,
    semigroup_quasi_additive,
)
from .scalars import QQi, pair_str

SCHEMA_VERSION = 1


class Analysis:
    """Everything solved for one algebra on one backend, each solved once on
    first use.

    The derivation side is Z, Inn and Zc with the three flags comparing
    them; the point side is the characters, ``pd_space(phi)`` and
    ``ideal_square(phi)`` per character, and the two point flags.  A float
    character puts its spaces on the float lane, as in
    :func:`~amenalyzer.characters.point_derivation_space`.  A float
    analysis refuses an algebra whose constants span too many orders of
    magnitude (:func:`~amenalyzer.algebra.check_float_spread`).
    """

    def __init__(self, algebra: FiniteAlgebra, backend=EXACT, *, seed=None):
        self.algebra = check_bound(algebra)
        if backend == FLOAT:
            check_float_spread(algebra)
        self.backend = backend
        self.seed = resolve_seed(seed)
        self._pd_spaces = {}
        self._ideal_squares = {}

    @cached_property
    def commutative(self) -> bool:
        return self.algebra.is_commutative()

    @cached_property
    def unital(self):
        return is_unital(self.algebra)

    @cached_property
    def essential(self) -> bool:
        return self.product_span.dim == self.algebra.dim

    @cached_property
    def product_span(self):
        return product_span(self.algebra, self.backend)

    @cached_property
    def radical(self):
        return radical(self.algebra, self.backend)

    @cached_property
    def semisimple(self) -> bool:
        return self.radical.dim == 0

    # derivations into the dual module

    @cached_property
    def z(self) -> Subspace:
        return derivation_space(self.algebra, self.backend)

    @cached_property
    def inner(self) -> Subspace:
        return inner_space(self.algebra, self.backend)

    @cached_property
    def _cyclic(self):
        """(Zc, t_rank); ``t_operator_rank`` asserts Zc <= Z with every solve of Zc."""
        zc = cyclic_subspace(self.algebra, self.z)
        return zc, t_operator_rank(self.z, zc)

    @property
    def zc(self) -> Subspace:
        return self._cyclic[0]

    @property
    def t_rank(self) -> int:
        return self._cyclic[1]

    @cached_property
    def weakly_amenable(self) -> bool:
        return subspace_equal(self.z, self.inner)

    @cached_property
    def cyclically_amenable(self) -> bool:
        return subspace_equal(self.zc, self.inner)

    @cached_property
    def cyclically_weakly_amenable(self) -> bool:
        return subspace_equal(self.z, self.zc)

    @cached_property
    def witnesses(self) -> dict:
        """For each failed derivation flag, the first RREF basis vector of
        the larger space outside the smaller, as a dual-map matrix."""
        out = {}
        for flag, larger, smaller in (
            ("weakly_amenable", self.z, self.inner),
            ("cyclically_amenable", self.zc, self.inner),
            ("cyclically_weakly_amenable", self.z, self.zc),
        ):
            if getattr(self, flag):
                continue
            w = next((k for k, v in enumerate(larger.basis) if not smaller.contains(v)), None)
            if w is not None:
                out[flag] = unflatten_map(larger.rows[w], self.algebra.dim)
        return out

    # characters and point derivations

    @cached_property
    def characters(self) -> CharacterSearch:
        return find_characters(self.algebra, seed=self.seed, backend=self.backend)

    def pd_space(self, phi) -> Subspace:
        """The point-derivation space at a character, or at the zero
        functional when ``phi`` is None."""
        pd = self._pd_spaces.get(phi)
        if pd is None:
            pd = self._pd_spaces[phi] = point_derivation_space(self.algebra, phi, self.backend)
        return pd

    def ideal_square(self, phi):
        """(ker phi, span of the products of ker phi)."""
        pair = self._ideal_squares.get(phi)
        if pair is None:
            m = maximal_ideal(self.algebra, phi)
            pair = self._ideal_squares[phi] = (m, ideal_product_span(self.algebra, m))
        return pair

    @cached_property
    def pd_dims(self) -> tuple:
        return tuple(self.pd_space(ch).dim for ch in self.characters.characters)

    @cached_property
    def cotangent_dims(self) -> tuple:
        """dim ker phi - dim (ker phi)^2 per character."""
        return tuple(m.dim - msq.dim for m, msq in map(self.ideal_square, self.characters.characters))

    @cached_property
    def zero_space_dim(self) -> int:
        return self.pd_space(None).dim

    @cached_property
    def point_amenable(self) -> bool:
        return all(d == 0 for d in self.pd_dims)

    @cached_property
    def zero_point_amenable(self) -> bool:
        return self.point_amenable and self.zero_space_dim == 0

    @property
    def conditional(self) -> bool:
        """The character enumeration, and so the point flags, is not certified."""
        return not self.characters.certified

    # the tensor-square side

    @cached_property
    def qa_space(self):
        return quasi_additive_space(self.algebra, self.backend)

    @cached_property
    def inner_qa(self):
        return inner_quasi_space(self.algebra, self.backend)

    @cached_property
    def cyclic_qa(self):
        return cyclic_quasi_space(self.algebra, self.qa_space)

    @cached_property
    def table_qa(self):
        """The table-indexed quasi-additive space; semigroup algebras only."""
        return semigroup_quasi_additive(self.algebra, self.backend)

    @cached_property
    def table_inner(self):
        """The table-indexed inner functions; semigroup algebras only."""
        return inner_q(self.algebra, self.backend)

    @property
    def flags(self) -> dict:
        return {
            "weakly_amenable": self.weakly_amenable,
            "cyclically_amenable": self.cyclically_amenable,
            "cyclically_weakly_amenable": self.cyclically_weakly_amenable,
            "point_amenable": self.point_amenable,
            "zero_point_amenable": self.zero_point_amenable,
            "conditional": self.conditional,
        }


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
    unital, unit_vec = analysis.unital
    report = {
        "schema": SCHEMA_VERSION,
        "name": a.name,
        "backend": analysis.backend,
        "tol": DEFAULT_TOL,
        "seed": analysis.seed,
        "dims": {
            "n": a.dim,
            "Z": analysis.z.dim,
            "Inn": analysis.inner.dim,
            "Zc": analysis.zc.dim,
            "t_rank": analysis.t_rank,
            "quasi_additive": analysis.z.dim,
            "radical": analysis.radical.dim,
            "product_span": analysis.product_span.dim,
            "zero_point_space": analysis.zero_space_dim,
            "point_derivations": [
                {
                    "character": character_json(ch),
                    "dim": dim,
                    "cotangent": cot,
                }
                for ch, dim, cot in zip(
                    analysis.characters.characters, analysis.pd_dims, analysis.cotangent_dims
                )
            ],
        },
        "predicates": {
            "commutative": analysis.commutative,
            "unital": unital,
            "essential": analysis.essential,
            "semisimple": analysis.semisimple,
        },
        "flags": analysis.flags,
        "characters_certified": analysis.characters.certified,
    }
    if include_witnesses:
        report["witnesses"] = {
            flag: _matrix_json(mat) for flag, mat in analysis.witnesses.items()
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
