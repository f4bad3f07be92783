"""Span recording from outside the package, for the traced run.

``Tracer.install`` wraps named callables of ``endok`` with span recorders
and ``Tracer.remove`` puts the originals back.  A wrapper only times the
call: it passes the arguments through unchanged and returns the result.
Where a module imported a callable by name, the same name in that module
is patched too.  Spans are recorded only while an op is open, so setup
and output checks leave no trace.

A span is [name, start, end, parent index, op index, info]; ``info``
carries what the per-layer ratios need (the input polynomial of a factor
call, the number of factors it returned, and so on).
"""

import sys
import time

from endok import _kernels, cli, factor, linalg, parse
from endok.linalg import Matrix
from endok.modules import CommutingTuple


def _factor_info(args, result):
    f = args[0]
    return ((f.field.characteristic, tuple(f.coeffs)), len(result))


def _minpoly_info(args, result):
    m = args[0]
    return (m.field.characteristic, m.entries)


def _annihilator_info(args, result):
    return result.quotient_dim


# (span name, owner, attribute, info hook); owner is a module or a class
TARGETS = [
    ("modules.local_pieces", CommutingTuple, "_local_pieces", None),
    ("modules.key", CommutingTuple, "maximal_ideal_key", None),
    ("modules.semisimplify", CommutingTuple, "semisimplify", None),
    ("modules.annihilator", CommutingTuple, "annihilator_ideal", _annihilator_info),
    ("modules.radical", CommutingTuple, "radical_submodule", None),
    ("modules.restrict", CommutingTuple, "restrict", None),
    ("modules.quotient", CommutingTuple, "quotient", None),
    ("linalg.matmul", Matrix, "__matmul__", None),
    ("linalg.charpoly", linalg, "charpoly", None),
    ("linalg.minpoly", linalg, "minimal_polynomial", _minpoly_info),
    ("linalg.eval_poly", linalg, "eval_poly_at_matrix", None),
    ("linalg.kernel", linalg, "kernel_basis", None),
    ("linalg.rref", linalg, "rref", None),
    ("kernels.matmul", _kernels, "matmul_mod", None),
    ("kernels.rref", _kernels, "rref_mod", None),
    ("factor.factor", factor, "factor_univariate", _factor_info),
    ("parse.parse", parse, "parse_input", None),
    ("cli.main", cli, "main", None),
]


class Tracer:
    """In-memory span store plus the patch/unpatch bookkeeping."""

    def __init__(self):
        self.spans = []
        self.ops = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1], self.ops - 1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, owner, attr, info in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("endok"):
                    continue
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def op(self, fn, *args):
        """Run one op as a root span."""
        self.ops += 1
        rec = ["op", time.perf_counter(), 0.0, None, self.ops - 1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


def layer_metrics(spans, scales):
    """Per-op layer metrics from a finished span list; ``scales[op]``
    turns the op's wall seconds into reference seconds."""
    ops = len(scales)
    self_s = {}
    calls = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    for k, (name, start, end, parent, op, _) in enumerate(spans):
        own = (end - start - child_s[k]) * scales[op]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def per_op(x):
        return x / ops if ops else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    factor_repeats = factor_calls = split_calls = split_hits = 0
    minpoly_repeats = minpoly_calls = 0
    restrict_in_split = pieces = std_monomials = 0
    seen_factor, seen_minpoly = set(), set()
    last_op = None
    for name, _, _, parent, op, info in spans:
        if op != last_op:
            seen_factor.clear()
            seen_minpoly.clear()
            last_op = op
        parent_name = spans[parent][0] if parent is not None else None
        if name == "factor.factor":
            poly, nfactors = info
            factor_calls += 1
            factor_repeats += poly in seen_factor
            seen_factor.add(poly)
            if parent_name == "modules.local_pieces":
                split_calls += 1
                split_hits += nfactors >= 2
        elif name == "linalg.minpoly":
            minpoly_calls += 1
            minpoly_repeats += info in seen_minpoly
            seen_minpoly.add(info)
        elif name == "modules.restrict" and parent_name == "modules.local_pieces":
            restrict_in_split += 1
        elif name == "modules.key" and parent_name == "modules.local_pieces":
            pieces += 1
        elif name == "modules.annihilator":
            std_monomials += info

    def s(name):
        return per_op(self_s.get(name, 0.0))

    def n(name):
        return calls.get(name, 0)

    op_time = sum(
        (end - start) * scales[op] for name, start, end, _, op, _ in spans if name == "op"
    )
    kernel_calls = n("kernels.matmul") + n("kernels.rref")
    return {
        "factor.factor_s": s("factor.factor"),
        "factor.calls": per_op(factor_calls),
        "factor.repeat_frac": frac(factor_repeats, factor_calls),
        "factor.split_frac": frac(split_hits, split_calls),
        "modules.key_s": s("modules.key"),
        "modules.semisimplify_s": s("modules.semisimplify"),
        "modules.annihilator_s": s("modules.annihilator"),
        "modules.annihilator.std_monomials": per_op(std_monomials),
        "modules.local_pieces.self_s": s("modules.local_pieces"),
        "modules.split_rounds": per_op(restrict_in_split - pieces),
        "modules.pieces": per_op(pieces),
        "modules.restrict_s": s("modules.restrict"),
        "modules.quotient_s": s("modules.quotient"),
        "modules.radical_s": s("modules.radical"),
        "linalg.charpoly_s": s("linalg.charpoly"),
        "linalg.minpoly_s": s("linalg.minpoly"),
        "linalg.minpoly.calls": per_op(minpoly_calls),
        "linalg.minpoly.repeat_frac": frac(minpoly_repeats, minpoly_calls),
        "linalg.eval_poly_s": s("linalg.eval_poly"),
        "linalg.kernel_s": s("linalg.kernel"),
        "linalg.rref_s": s("linalg.rref"),
        "linalg.matmul_s": s("linalg.matmul"),
        "linalg.matmul.calls": per_op(n("linalg.matmul")),
        "linalg.array_frac": frac(kernel_calls, n("linalg.matmul") + n("linalg.rref")),
        "kernels.matmul_s": s("kernels.matmul"),
        "kernels.rref_s": s("kernels.rref"),
        "parse.parse_s": s("parse.parse"),
        "cli.self_s": s("cli.main"),
        "trace.unattributed_frac": frac(self_s.get("op", 0.0), op_time),
    }
