"""Per-layer spans and counters, wrapped around nilbloch from outside.

``Tracer.install()`` replaces the public functions and methods of each
layer with wrappers that record one span per call: name, start, end and
the enclosing span. Class methods are patched on the class; a module-level
function is replaced in every module that bound it by name (``derham``
imports ``form_block`` itself, and the package namespace re-exports most
functions), so no call path bypasses its wrapper. Spans stay in flat
arrays in memory and are written out once, after the last query;
``load_spans`` and ``layer_metrics`` turn the file into self times and
counts. A layer's self time is its span time minus the time of the spans
it encloses.
"""

import json
import sys
import weakref
from array import array
from time import perf_counter


def layers():
    """span name -> [(owner, attribute), ...]; an owner is a class or a module."""
    from nilbloch import (algebra, dense, derham, forms, ksymbols, linalg, parser,
                          singularities)
    relatives = (derham.BlockedRelative, derham.WholeRelative)
    return {
        "linalg.insert": [(linalg.RowSpace, "insert")],
        "linalg.reduce": [(linalg.RowSpace, "reduce"), (linalg.RowSpace, "contains")],
        "linalg.solve": [(linalg.RowSpace, "solve"), (linalg.RowSpace, "witness")],
        "forms.form_block": [(forms, "form_block")],
        "forms.block_build": [(forms.FormBlock, "__init__")],
        "forms.canonical_terms": [(forms, "canonical_terms")],
        "forms.d": [(forms, "d")],
        "forms.wedge": [(forms, "wedge")],
        "algebra.init": [(algebra.Algebra, "__init__")],
        "algebra.mul_terms": [(algebra.Algebra, "mul_terms")],
        "algebra.normal_form": [(algebra.Algebra, "normal_form")],
        "algebra.series": [(algebra.Algebra, a) for a in ("invert", "log1p", "exp_nil")],
        "derham.class_rows": [(c, "class_rows") for c in relatives],
        "derham.global_class": [(c, "global_class") for c in relatives],
        "derham.rel_vectors": [(c, "rel_vectors") for c in relatives],
        "derham.cohomology": [(derham, "cohomology")],
        "derham.is_exact": [(derham, "is_exact")],
        "derham.check_certificate": [(derham, "check_certificate")],
        "derham.quotient_class": [(derham, "quotient_class")],
        "ksymbols.bloch": [(ksymbols, "bloch")],
        "ksymbols.verify": [(ksymbols, a) for a in (
            "verify_key_identity", "verify_filtration_vanishing", "verify_skew",
            "filtration_strictness_witness", "surjectivity_witnesses")],
        "parser.parse": [(parser, a) for a in (
            "parse_element", "parse_symbol_sum", "parse_form", "polynomial_terms",
            "algebra_from_json")],
        "dense.quotient_dims": [(dense.DenseModel, "quotient_dims")],
        "dense.is_exact": [(dense.DenseModel, "is_exact")],
        "dense.relation_rows": [(dense.DenseModel, "relation_rows")],
        "singularities.report": [(singularities, "singularity_report")],
        "singularities.h_dim": [(singularities, "hypersurface_h_dim")],
    }


COUNTERS = ("linalg.insert.dependent", "linalg.rows_nnz", "linalg.max_coeff_bits",
            "forms.max_block_coords", "derham.class_rows.builds")


class Tracer:
    """Span recorder for one process; install() patches the package."""

    def __init__(self):
        self.layers = layers()
        self.names = list(self.layers)
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rowspaces = weakref.WeakSet()

    def _span(self, name_id, fn):
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self.stack)

        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        """Counters read at the layer boundary, inside the span."""
        counts = self.counts
        if name == "linalg.insert":
            def insert(space, vec, tag=None):
                piv = fn(space, vec, tag)
                if piv is None:
                    counts["linalg.insert.dependent"] += 1
                return piv
            return insert
        if name == "forms.block_build":
            def build(block, *args):
                fn(block, *args)
                counts["forms.max_block_coords"] = max(
                    counts["forms.max_block_coords"], len(block.coords))
            return build
        if name == "derham.class_rows":
            def class_rows(pres, *args):
                before = len(pres._class)
                rows = fn(pres, *args)
                counts["derham.class_rows.builds"] += len(pres._class) > before
                return rows
            return class_rows
        return fn

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nilbloch" or n.startswith("nilbloch."))]
        for name_id, (name, targets) in enumerate(self.layers.items()):
            for owner, attr in targets:
                orig = getattr(owner, attr)
                wrapped = self._span(name_id, self._counted(name, orig))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        from nilbloch.linalg import RowSpace
        rs_init = RowSpace.__init__
        live = self.rowspaces

        def register(space, *args, **kwargs):
            rs_init(space, *args, **kwargs)
            live.add(space)
        RowSpace.__init__ = register

    def query_end(self):
        """Peak stored nonzeros and coefficient size over live RowSpaces."""
        nnz = 0
        bits = self.counts["linalg.max_coeff_bits"]
        for space in list(self.rowspaces):
            for row in space.rows.values():
                nnz += len(row)
                for c in row.values():
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.counts["linalg.rows_nnz"] = max(self.counts["linalg.rows_nnz"], nnz)
        self.counts["linalg.max_coeff_bits"] = bits

    def dump(self, path):
        """Header line (names, counters, span count), then the four arrays."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "counts": self.counts, "spans": len(self.kind)}
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path):
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, head["spans"])
            arrays.append(arr)
    return head, arrays


def layer_metrics(path):
    """Per-name calls and self seconds, plus the counters and derived ratios."""
    head, (kind, parent, start, end) = load_spans(path)
    dur = [b - a for a, b in zip(start, end)]
    inner = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            inner[p] += dur[i]
    names = head["names"]
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for i, k in enumerate(kind):
        calls[k] += 1
        own[k] += dur[i] - inner[i]
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = calls[k]
        out[f"{name}.self_s"] = own[k]
    counts = head["counts"]
    by_name = dict(zip(names, calls))
    out["linalg.insert.dependent_frac"] = (
        counts["linalg.insert.dependent"] / by_name["linalg.insert"]
        if by_name["linalg.insert"] else 0.0)
    out["forms.block_hit_frac"] = (
        1 - by_name["forms.block_build"] / by_name["forms.form_block"]
        if by_name["forms.form_block"] else 0.0)
    for key in ("linalg.rows_nnz", "linalg.max_coeff_bits", "forms.max_block_coords",
                "derham.class_rows.builds"):
        out[key] = counts[key]
    out["trace.spans"] = head["spans"]
    return out
