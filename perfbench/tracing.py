"""Per-layer tracing of mfcat, done from outside the package.

The tracer replaces the public functions of each mfcat module with thin
wrappers while it is installed, in every mfcat module that binds them
(``hom`` reaches ``groebner.syzygy_basis`` through the module,
``mirror`` binds ``univariate_gcd`` by name, the package re-exports
almost everything).  Each wrapped call records a span
``(name, start, end, parent)`` in memory.  The hot ``poly`` primitives
(polynomial construction, ring comparison, multiplication and field
arithmetic) get call counters only: a span there would cost more than
the call it measures.  ``uninstall`` puts every original object back.

Span names are ``<layer>.<function>`` with the layer named after the
module.  Self time is a span's duration minus the time its child spans
cover; spans nest strictly because the workload is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("poly", "matrix", "groebner", "mf", "hom", "mirror", "oracle",
          "corpus", "files")

# Modules whose public module-level functions all get spans.
SPAN_MODULES = ("groebner", "mf", "hom", "mirror", "oracle", "corpus", "files")

# poly functions that get spans, under the span name given.
POLY_SPANS = {
    "parse_polynomial": "poly.parse",
    "parse_laurent": "poly.parse",
    "parse_coefficient": "poly.parse",
    "univariate_gcd": "poly.univariate_gcd",
}

# PolyMatrix methods that get spans.
MATRIX_SPANS = {"kron": "matrix.kron", "block": "matrix.block",
                "__matmul__": "matrix.matmul"}

# (class name in mfcat.poly, method) -> counter name.  Field.div is not
# wrapped: it is made of the mul and inv calls that are counted.
POLY_COUNTERS = {
    ("_TermPoly", "__init__"): "poly.poly_init.calls",
    ("RingContext", "__eq__"): "poly.ring_eq.calls",
    ("_TermPoly", "__mul__"): "poly.poly_mul.calls",
}
for _cls in ("RationalField", "PrimeField"):
    for _op in ("add", "sub", "mul", "neg", "inv"):
        POLY_COUNTERS[(_cls, _op)] = "poly.field_ops.calls"


def _coeff_bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _basis_sizes(result):
    """basis_elems and max_coeff_bits of a returned GroebnerBasis."""
    bits = 0
    for g in result.generators:
        for p in (g if isinstance(g, tuple) else (g,)):
            for c in p.terms.values():
                bits = max(bits, _coeff_bits(c))
    return {"basis_elems": len(result.generators), "max_coeff_bits": bits}


def _module_groebner_sizes(args, result):
    sizes = _basis_sizes(result)
    if args and hasattr(args[0], "__len__"):
        sizes["input_vecs"] = len(args[0])
    return sizes


def _standard_monomial_sizes(args, result):
    return {"monomials": len(result)} if isinstance(result, list) else {}


# span name -> function (call args, result) -> {stat: amount}
SIZE_HOOKS = {
    "groebner.buchberger": lambda args, result: _basis_sizes(result),
    "groebner.module_groebner": _module_groebner_sizes,
    "groebner.standard_monomials": _standard_monomial_sizes,
}


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {}   # counter name -> [count]
        self.sizes = {}      # span name -> {stat: total}
        self.max_coeff_bits = 0
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- patching -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import mfcat
        from mfcat import poly
        from mfcat.matrix import PolyMatrix
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mfcat" or n.startswith("mfcat.")) and m is not None]
        targets = {}  # original function -> span name
        for short in SPAN_MODULES:
            mod = getattr(mfcat, short)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[fn] = "%s.%s" % (short, name)
        for name, span in POLY_SPANS.items():
            targets[getattr(poly, name)] = span
        for fn, span in targets.items():
            wrapper = self._span_wrapper(span, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for attr, span in MATRIX_SPANS.items():
            raw = PolyMatrix.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(PolyMatrix, attr, classmethod(self._span_wrapper(span, raw.__func__)))
            else:
                self._patch(PolyMatrix, attr, self._span_wrapper(span, raw))
        for (cls_name, attr), counter in POLY_COUNTERS.items():
            cls = getattr(poly, cls_name)
            self._patch(cls, attr, self._count_wrapper(counter, cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, replacement):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else vars(owner)[attr])
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = SIZE_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                self._add_sizes(name, hook(args, result))
            return result
        return wrapper

    def _count_wrapper(self, counter, fn):
        cell = self.counters.setdefault(counter, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _add_sizes(self, name, sizes):
        bits = sizes.pop("max_coeff_bits", 0)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)
        totals = self.sizes.setdefault(name, {})
        for stat, amount in sizes.items():
            totals[stat] = totals.get(stat, 0) + amount

    # -- results --------------------------------------------------------

    def self_times(self, first=0):
        """Self seconds of every span from index `first` on, in order."""
        spans = self.spans
        own = [end - start for _, start, end, _ in spans]
        for i in range(first, len(spans)):
            parent = spans[i][3]
            if parent >= first:
                own[parent] -= spans[i][2] - spans[i][1]
        return own[first:]

    def table(self):
        """Flat metrics: <layer>.<function>.{calls,self_s,incl_s,...} and
        <layer>.{calls,self_s}, plus the counters."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = 0
            out[layer + ".self_s"] = 0.0
        own = self.self_times()
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own[i]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += own[i]
            if not self._inside_same_name(i):
                out[name + ".incl_s"] = out.get(name + ".incl_s", 0.0) + end - start
        for name, totals in self.sizes.items():
            for stat, amount in totals.items():
                out["%s.%s" % (name, stat)] = amount
        for counter, cell in self.counters.items():
            out[counter] = cell[0]
        out["groebner.max_coeff_bits"] = self.max_coeff_bits
        return out

    def _inside_same_name(self, i):
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path):
        """One JSON array [name, start_s, end_s, parent] per line."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7),
                                     round(end - origin, 7), parent]) + "\n")
