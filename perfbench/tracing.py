"""Runtime spans and counters around the library's public entry points.

Nothing here runs on import.  ``Tracer.install()`` replaces each target
callable with a wrapper, in its class or in every ``quadralab`` module
namespace that bound it (so calls made inside the library are seen too).
A span records its name, start, end and parent; spans stay in memory and
``Tracer.write`` stores them when the run ends.  Counted targets (the scalar
hot paths) only increment a counter, so they cost little and open no span.

A layer's time metric is its self time: the span's duration minus the time
its child spans cover.  Self time is accumulated as spans close.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from functools import wraps

MARK = "__perfbench_original__"
EXACT_DEGREES = range(2, 6)      # the hilbert workload's exact prefixes stop at 5
MODULAR_DEGREES = range(2, 7)


def _degree_name(base):
    return lambda args, kwargs: f"{base}.d{args[1] if len(args) > 1 else kwargs['n']}"


def _term_products(args, kwargs):
    left, right = args[0], args[1]
    other = getattr(right, "terms", None)
    return len(left.terms) * (len(other) if isinstance(other, dict) else 1)


def _matrix_cells(args, kwargs):
    return sum(m.size for m in args[:2] if hasattr(m, "size"))


def _matrix_bytes(args, kwargs):
    return sum(m.nbytes for m in args[:2] if hasattr(m, "nbytes"))


def _rref_cells(args, kwargs):
    return args[0].size


def _rref_bytes(args, kwargs):
    return args[0].nbytes


# (span name, module, qualified name, extras)
# extras: "name" -> callable(args, kwargs) giving the span name instead;
#         "pre"  -> {counter: callable(args, kwargs) -> amount};
#         "post" -> {counter: callable(result) -> amount}.
SPANS = [
    ("graded.exact_slice", "quadralab.graded", "ExactSlices._build",
     {"name": _degree_name("graded.exact_slice")}),
    ("graded.modular_slice", "quadralab.graded", "ModularSlices._build",
     {"name": _degree_name("graded.modular_slice")}),
    ("graded.hilbert_function", "quadralab.graded", "GradedQuotient.hilbert_function", {}),
    ("graded.contains", "quadralab.graded", "GradedQuotient.contains", {}),
    ("graded.normal_form", "quadralab.graded", "GradedQuotient.normal_form", {}),
    ("graded.is_central", "quadralab.graded", "GradedQuotient.is_central", {}),
    ("graded.certificate", "quadralab.graded", "GradedQuotient.membership_certificate",
     {"post": {"graded.certificate_terms": lambda r: len(r) if r else 0}}),
    ("graded.verify_certificate", "quadralab.graded", "verify_certificate", {}),
    ("linalg.sparse_insert", "quadralab.linalg", "SparseEchelon.insert",
     {"post": {"linalg.sparse_insert_useful": lambda r: r is not None}}),
    ("linalg.sparse_insert_independent", "quadralab.linalg",
     "SparseEchelon.insert_independent", {}),
    ("linalg.sparse_reduce", "quadralab.linalg", "SparseEchelon.reduce", {}),
    ("linalg.sparse_reduce", "quadralab.linalg", "SparseEchelon.reduce_with_combo", {}),
    ("linalg.rref_mod_p", "quadralab.linalg", "rref_mod_p",
     {"pre": {"linalg.mod_p_cells": _rref_cells, "linalg.mod_p_bytes": _rref_bytes}}),
    ("linalg.reduce_block_mod_p", "quadralab.linalg", "reduce_block_mod_p",
     {"pre": {"linalg.mod_p_cells": _matrix_cells, "linalg.mod_p_bytes": _matrix_bytes}}),
    ("linalg.polyrow_insert", "quadralab.linalg", "PolyRowEchelon.insert",
     {"post": {"linalg.polyrow_insert_useful": lambda r: r is not None}}),
    ("linalg.polyrow_reduce", "quadralab.linalg", "PolyRowEchelon.reduce", {}),
    ("linalg.polyrow_reduce", "quadralab.linalg", "PolyRowEchelon.reduce_scaled", {}),
    ("poly.mul", "quadralab.poly", "MultiPoly.__mul__",
     {"pre": {"poly.mul_term_products": _term_products}}),
    ("poly.divide_exact", "quadralab.poly", "MultiPoly.divide_exact",
     {"post": {"poly.divide_exact_failed": lambda r: r is None}}),
    ("poly.ratfunc_new", "quadralab.poly", "RationalFunction.__init__", {}),
    ("extension.mul", "quadralab.extension", "ExtensionElement.__mul__", {}),
    ("extension.inverse", "quadralab.extension", "ExtensionElement.inverse", {}),
    ("freealg.mul", "quadralab.freealg", "FreeElement.__mul__", {}),
    ("freealg.apply_linear", "quadralab.freealg", "apply_linear", {}),
    ("freealg.coefficient_vector", "quadralab.freealg", "FreeElement.coefficient_vector", {}),
    ("presentations.relations", "quadralab.presentations", "sklyanin_relations", {}),
    ("presentations.relations", "quadralab.presentations", "chl_relations", {}),
    ("presentations.relations", "quadralab.presentations", "chl_z_relations", {}),
    ("presentations.spans_same", "quadralab.presentations", "RelationSpace.spans_same", {}),
    ("presentations.classify", "quadralab.presentations", "classify_chl", {}),
    ("presentations.angle_invariant", "quadralab.presentations", "angle_invariant", {}),
    ("geometry.point_table", "quadralab.geometry", "PointTable.__init__", {}),
    ("geometry.verify_gamma", "quadralab.geometry", "verify_gamma", {}),
    ("geometry.minor_report", "quadralab.geometry", "minor_factorization_report", {}),
    ("symmetry.heisenberg", "quadralab.symmetry", "heisenberg_checks", {}),
    ("symmetry.orbits", "quadralab.symmetry", "orbits", {}),
    ("symmetry.chl_psi", "quadralab.symmetry", "ChlPsi.__init__", {}),
    ("symmetry.chl_psi", "quadralab.symmetry", "ChlPsi.verify", {}),
    ("center.z1_central", "quadralab.center", "chl_z1_central", {}),
    ("center.z2_central", "quadralab.center", "chl_z2_central", {}),
    ("center.z2_build", "quadralab.center", "chl_z2", {}),
    ("center.identity_reports", "quadralab.center", "squares_identity_report", {}),
    ("center.identity_reports", "quadralab.center", "central_pair_identity_report", {}),
    ("center.identity_reports", "quadralab.center", "chl_identity_report", {}),
    ("cli.self", "quadralab.cli", "main", {}),
]

# (counter name, module, qualified name): counted, never timed
COUNTS = [
    ("scalars.qi_mul_calls", "quadralab.scalars", "GaussianRational.__mul__"),
    ("scalars.qi_inverse_calls", "quadralab.scalars", "GaussianRational.inverse"),
    ("scalars.prime_coerce_calls", "quadralab.scalars", "PrimeField.coerce"),
]


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quadralab" or name.startswith("quadralab."))]


def resolve(module_name, qualname):
    """(owner, callable) or None when the library no longer has it."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner, _, attr = qualname.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    if holder is None:
        return None
    fn = holder.__dict__.get(attr) if owner else getattr(module, attr, None)
    if not callable(fn):
        return None
    return holder, fn


def assert_untouched(library_dir):
    """Raise unless every target is the library's own, unwrapped callable."""
    root = os.path.realpath(library_dir)
    for _, module_name, qualname, *_ in SPANS + COUNTS:
        found = resolve(module_name, qualname)
        if found is None:
            continue
        fn = found[1]
        code = getattr(fn, "__code__", None)
        if hasattr(fn, MARK) or code is None or not os.path.realpath(
                code.co_filename).startswith(root + os.sep):
            raise RuntimeError(f"{module_name}.{qualname} is not the library's original")
    for module in _library_modules():
        for holder in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for key, value in vars(holder).items():
                if hasattr(value, MARK):
                    raise RuntimeError(f"wrapper installed at {holder.__name__}.{key}")


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.missing = []
        self._stack = []

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name, extras):
        names = self.names
        name_of = extras.get("name")
        fixed = self._id(name)
        pre = list(extras.get("pre", {}).items())
        post = list(extras.get("post", {}).items())
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_time, calls, counters = self.self_time, self.calls, self.counters
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            label = self._id(name_of(args, kwargs)) if name_of else fixed
            for counter, amount in pre:
                counters[counter] += amount(args, kwargs)
            index = len(span_name)
            span_name.append(label)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
                elapsed = end - start
                self_time[names[label]] += elapsed - frame[1]
                calls[names[label]] += 1
                if stack:
                    stack[-1][1] += elapsed
            for counter, amount in post:
                counters[counter] += amount(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count(self, fn, name):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        """Wrap every target that exists; rebind it wherever it was bound."""
        for entry in SPANS + COUNTS:
            try:
                importlib.import_module(entry[1])
            except ImportError:
                pass
        modules = _library_modules()
        for entry in SPANS + COUNTS:
            name, module_name, qualname = entry[:3]
            found = resolve(module_name, qualname)
            if found is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            holder, fn = found
            if len(entry) == 4:
                wrapper = self._span(fn, name, entry[3])
            else:
                wrapper = self._count(fn, name)
            if isinstance(holder, type):
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
            else:
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapper)

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, from what was recorded."""
        t, n, c = self.self_time, self.calls, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for d in EXACT_DEGREES:
            out[f"graded.exact_slice_s.d{d}"] = (t[f"graded.exact_slice.d{d}"], "s")
        for d in MODULAR_DEGREES:
            out[f"graded.modular_slice_s.d{d}"] = (t[f"graded.modular_slice.d{d}"], "s")
        seconds = {
            "graded.hilbert_function_s": "graded.hilbert_function",
            "linalg.sparse_insert_s": "linalg.sparse_insert",
            "linalg.rref_mod_p_s": "linalg.rref_mod_p",
            "linalg.reduce_block_mod_p_s": "linalg.reduce_block_mod_p",
            "graded.contains_s": "graded.contains",
            "graded.normal_form_s": "graded.normal_form",
            "graded.is_central_s": "graded.is_central",
            "linalg.sparse_reduce_s": "linalg.sparse_reduce",
            "graded.certificate_s": "graded.certificate",
            "graded.verify_certificate_s": "graded.verify_certificate",
            "poly.mul_s": "poly.mul",
            "poly.divide_exact_s": "poly.divide_exact",
            "poly.ratfunc_new_s": "poly.ratfunc_new",
            "linalg.polyrow_insert_s": "linalg.polyrow_insert",
            "linalg.polyrow_reduce_s": "linalg.polyrow_reduce",
            "center.z1_central_s": "center.z1_central",
            "center.z2_central_s": "center.z2_central",
            "center.z2_build_s": "center.z2_build",
            "extension.mul_s": "extension.mul",
            "extension.inverse_s": "extension.inverse",
            "freealg.mul_s": "freealg.mul",
            "freealg.apply_linear_s": "freealg.apply_linear",
            "freealg.coefficient_vector_s": "freealg.coefficient_vector",
            "presentations.relations_s": "presentations.relations",
            "presentations.spans_same_s": "presentations.spans_same",
            "presentations.classify_s": "presentations.classify",
            "presentations.angle_invariant_s": "presentations.angle_invariant",
            "geometry.point_table_s": "geometry.point_table",
            "geometry.verify_gamma_s": "geometry.verify_gamma",
            "geometry.minor_report_s": "geometry.minor_report",
            "symmetry.heisenberg_s": "symmetry.heisenberg",
            "symmetry.orbits_s": "symmetry.orbits",
            "symmetry.chl_psi_s": "symmetry.chl_psi",
            "center.identity_reports_s": "center.identity_reports",
            "cli.self_s": "cli.self",
        }
        for metric, span in seconds.items():
            out[metric] = (t[span], "s")
        counts = {
            "linalg.sparse_insert_calls": "linalg.sparse_insert",
            "linalg.sparse_insert_independent_calls": "linalg.sparse_insert_independent",
            "linalg.rref_mod_p_calls": "linalg.rref_mod_p",
            "graded.contains_calls": "graded.contains",
            "linalg.sparse_reduce_calls": "linalg.sparse_reduce",
            "graded.certificate_calls": "graded.certificate",
            "poly.mul_calls": "poly.mul",
            "poly.divide_exact_calls": "poly.divide_exact",
            "linalg.polyrow_insert_calls": "linalg.polyrow_insert",
            "extension.mul_calls": "extension.mul",
            "extension.inverse_calls": "extension.inverse",
            "freealg.mul_calls": "freealg.mul",
            "scalars.qi_mul_calls": "scalars.qi_mul_calls",
            "scalars.qi_inverse_calls": "scalars.qi_inverse_calls",
            "scalars.prime_coerce_calls": "scalars.prime_coerce_calls",
        }
        for metric, span in counts.items():
            out[metric] = (n[span], "count")
        out["linalg.sparse_insert_useful_ratio"] = (
            ratio(c["linalg.sparse_insert_useful"], n["linalg.sparse_insert"]), "ratio")
        out["linalg.polyrow_insert_useful_ratio"] = (
            ratio(c["linalg.polyrow_insert_useful"], n["linalg.polyrow_insert"]), "ratio")
        out["poly.divide_exact_fail_ratio"] = (
            ratio(c["poly.divide_exact_failed"], n["poly.divide_exact"]), "ratio")
        out["poly.mul_term_products"] = (c["poly.mul_term_products"], "count")
        out["graded.certificate_terms"] = (c["graded.certificate_terms"], "count")
        out["linalg.mod_p_cells"] = (c["linalg.mod_p_cells"], "cells")
        out["linalg.mod_p_bytes"] = (c["linalg.mod_p_bytes"], "B")
        return out

    def write(self, path):
        """Store every span: a JSON header, then the four columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "missing_targets": self.missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
