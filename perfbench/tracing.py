"""Per-layer tracing from outside the package.

The layers are the package modules.  Tracing rebinds every module
attribute that refers to a public function of a layer module, so calls
made through ``from .linalg import nullspace`` bindings are seen too, and
wraps the entries of ``crosscheck.CHECKS`` in place.  Two kinds of pass
use it: a span pass (name, start, end, parent, input id per call, kept in
memory) and a counting pass (work counts, including every QQi operation),
kept apart so the counters' cost never lands in a span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

import numpy as np

from amenalyzer import characters, crosscheck, linalg
from amenalyzer.scalars import QQi

LAYERS = (
    "cli",
    "algebra",
    "derivations",
    "quasiadd",
    "characters",
    "linalg",
    "scalars",
    "classify",
    "crosscheck",
)
QQI_OPS = ("__add__", "__sub__", "__mul__", "__truediv__")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "amenalyzer" or name.startswith("amenalyzer.")]


def layer_functions():
    """{function: span name} for the public functions of every layer module.

    The checks listed in crosscheck.CHECKS are left out: they are traced
    under their check ids instead.
    """
    checks = {fn for _, fn in crosscheck.CHECKS}
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"amenalyzer.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and value not in checks
            ):
                out[value] = f"{layer}.{attr}"
    return out


class Rebinding:
    """Context manager that swaps functions for wrappers wherever they are bound.

    ``wrappers`` maps each original function to its replacement;
    ``check_wrapper(cid, fn)`` wraps the entries of crosscheck.CHECKS.
    """

    def __init__(self, wrappers, check_wrapper=None):
        self.wrappers = wrappers
        self.check_wrapper = check_wrapper
        self._undo = []
        self._checks = None

    def __enter__(self):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self.wrappers:
                    setattr(module, attr, self.wrappers[value])
                    self._undo.append((module, attr, value))
        if self.check_wrapper is not None:
            self._checks = list(crosscheck.CHECKS)
            crosscheck.CHECKS[:] = [(cid, self.check_wrapper(cid, fn)) for cid, fn in self._checks]
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()
        if self._checks is not None:
            crosscheck.CHECKS[:] = self._checks
            self._checks = None
        return False


class SpanTracer:
    """Records one span per wrapped call: [name, input id, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, self.item, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def rebinding(self):
        wrappers = {fn: self.wrap(name, fn) for fn, name in layer_functions().items()}
        return Rebinding(wrappers, lambda cid, fn: self.wrap(f"crosscheck.{cid}", fn))

    def totals(self):
        """{span name: {"s": inclusive, "self_s": self, "calls": n}} over all spans.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself again is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, _item, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, _item, start, end, parent) in enumerate(self.spans):
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            dur = end - start
            t["self_s"] += dur - child_time[idx]
            t["calls"] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][4]
            if p < 0:
                t["s"] += dur
        return out


def _max_bits(rows):
    best = 0
    for row in rows:
        for x in row:
            for part in (x.re, x.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class WorkCounter:
    """Work counts of a pass: QQi operations and per-call input sizes."""

    def __init__(self):
        self.counts = {
            "linalg.rref_exact.calls": 0,
            "linalg.rref_exact.cells": 0,
            "linalg.rref_exact.nnz_in": 0,
            "linalg.rref_exact.max_bits": 0,
            "linalg.rref_float.calls": 0,
            "linalg.rref_float.cells": 0,
            "linalg.nullspace.n2_systems": 0,
            "characters.find_characters.calls": 0,
            "characters.find_characters.attempts": 0,
            "characters.find_characters.found": 0,
            "characters.find_characters.exact": 0,
            "characters.find_characters.certified": 0,
        }
        self._qqi = {op: itertools.count() for op in QQI_OPS}
        self._saved = {}

    def _wrappers(self):
        c = self.counts
        rref_exact, rref_float = linalg.rref_exact, linalg.rref_float
        nullspace, find_characters = linalg.nullspace, characters.find_characters

        def counted_rref_exact(rows):
            rows = [list(r) for r in rows]
            ncols = len(rows[0]) if rows else 0
            c["linalg.rref_exact.calls"] += 1
            c["linalg.rref_exact.cells"] += len(rows) * ncols
            c["linalg.rref_exact.nnz_in"] += sum(not x.is_zero() for r in rows for x in r)
            out = rref_exact(rows)
            c["linalg.rref_exact.max_bits"] = max(c["linalg.rref_exact.max_bits"], _max_bits(out[0]))
            return out

        def counted_rref_float(arr, *args, **kwargs):
            c["linalg.rref_float.calls"] += 1
            c["linalg.rref_float.cells"] += int(np.asarray(arr).size)
            return rref_float(arr, *args, **kwargs)

        def counted_nullspace(rows, ncols, *args, **kwargs):
            n = round(ncols ** 0.5)
            if n * n == ncols and len(rows) == n**3:
                c["linalg.nullspace.n2_systems"] += 1
            return nullspace(rows, ncols, *args, **kwargs)

        def counted_find_characters(*args, **kwargs):
            search = find_characters(*args, **kwargs)
            c["characters.find_characters.calls"] += 1
            c["characters.find_characters.attempts"] += search.attempts
            c["characters.find_characters.found"] += len(search.characters)
            c["characters.find_characters.exact"] += sum(ch.exact for ch in search.characters)
            c["characters.find_characters.certified"] += bool(search.certified)
            return search

        return {
            rref_exact: counted_rref_exact,
            rref_float: counted_rref_float,
            nullspace: counted_nullspace,
            find_characters: counted_find_characters,
        }

    def __enter__(self):
        for op, counter in self._qqi.items():
            orig = getattr(QQi, op)
            self._saved[op] = orig

            def counted(a, b, _orig=orig, _tick=counter.__next__):
                _tick()
                return _orig(a, b)

            setattr(QQi, op, counted)
        self._rebinding = Rebinding(self._wrappers())
        self._rebinding.__enter__()
        return self

    def __exit__(self, *exc):
        self._rebinding.__exit__(*exc)
        for op, orig in self._saved.items():
            setattr(QQi, op, orig)
        # a fresh itertools.count() yields the number of earlier ticks
        self.counts["scalars.qqi_ops"] = sum(next(c) for c in self._qqi.values())
        return False


# Every per-layer metric of a traced run, with its unit.  "<span>.s" is
# inclusive and "<span>.self_s" self time, both summed over the pass.
LAYER_METRICS = (
    [
        ("linalg.rref_exact.self_s", "s"),
        ("linalg.rref_exact.calls", "count"),
        ("linalg.rref_exact.cells", "count"),
        ("linalg.rref_exact.nnz_in", "count"),
        ("linalg.rref_exact.max_bits", "bits"),
        ("scalars.qqi_ops", "count"),
        ("linalg.rref_float.self_s", "s"),
        ("linalg.rref_float.calls", "count"),
        ("linalg.rref_float.cells", "count"),
        ("linalg.nullspace.n2_systems", "count/call"),
        ("linalg.subspace_intersect.s", "s"),
        ("linalg.subspace_intersect.calls", "count"),
        ("derivations.derivation_space.s", "s"),
        ("derivations.derivation_space.self_s", "s"),
        ("derivations.inner_space.s", "s"),
        ("derivations.cyclic_subspace.s", "s"),
        ("quasiadd.quasi_additive_space.s", "s"),
        ("quasiadd.quasi_additive_space.self_s", "s"),
        ("quasiadd.cyclic_quasi_space.s", "s"),
        ("algebra.load_algebra.s", "s"),
        ("algebra.validate.s", "s"),
        ("algebra.radical.s", "s"),
        ("algebra.quotient_map.s", "s"),
        ("algebra.ideal_closure.s", "s"),
        ("characters.find_characters.s", "s"),
        ("characters.find_characters.calls", "count"),
        ("characters.find_characters.attempts", "count"),
        ("characters.find_characters.exact_ratio", "exact/found"),
        ("characters.find_characters.certified_ratio", "certified/calls"),
        ("characters.point_derivation_space.s", "s"),
        ("characters.cotangent_dim.s", "s"),
        ("classify.build_report.self_s", "s"),
        ("classify.render_text.s", "s"),
        ("cli.main.s", "s"),
        ("cli.main.self_s", "s"),
    ]
    + [(f"crosscheck.{cid}.s", "s") for cid in crosscheck.CHECK_IDS]
    + [
        (f"crosscheck.{backend}.{status}", "count")
        for backend in ("exact", "float")
        for status in (crosscheck.PASS, crosscheck.SKIP, crosscheck.OPEN, crosscheck.FAIL)
    ]
    + [("trace.overhead_s", "s")]
)


def layer_metrics(totals, counts, calls, crosscheck_counts, overhead_s):
    """{metric: [value, unit]} for every entry of LAYER_METRICS.

    ``calls`` is the number of command-line calls in the counting pass.
    """
    values = dict(counts)
    values.update(crosscheck_counts)
    values["linalg.nullspace.n2_systems"] = counts["linalg.nullspace.n2_systems"] / calls
    found = counts["characters.find_characters.found"]
    searches = counts["characters.find_characters.calls"]
    values["characters.find_characters.exact_ratio"] = (
        counts["characters.find_characters.exact"] / found if found else 0.0
    )
    values["characters.find_characters.certified_ratio"] = (
        counts["characters.find_characters.certified"] / searches if searches else 0.0
    )
    values["trace.overhead_s"] = overhead_s
    out = {}
    for name, unit in LAYER_METRICS:
        if name not in values:
            span, field = name.rsplit(".", 1)
            default = 0 if field in ("calls", crosscheck.PASS, crosscheck.SKIP, crosscheck.OPEN, crosscheck.FAIL) else 0.0
            values[name] = totals.get(span, {}).get(field, default)
        out[name] = [values[name], unit]
    return out
