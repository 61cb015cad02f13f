"""Per-layer spans and counters for the traced benchmark run.

The library has no tracing of its own, so the traced run wraps the public
entry points of each lieq module from outside. Each entry point is named by
dotted path and resolved at install time; an entry point that no longer
resolves is reported as absent instead of failing the run. A function is
patched in every lieq module that binds it (``exactlin`` imports the kernel
functions by name, ``capability`` imports ``q_tensor_product``), and a method
is patched on its class. The untraced run never imports this module.

Spans are ``(name index, start, end, parent index)`` tuples kept in memory and
written out when the pass ends. A span's self time is its duration minus the
part of its interval covered by its child spans. Counters that need a call's
arguments or result (matrix sizes, coefficient bit lengths, center keys) are
taken outside the call's span; the work after the call is recorded as a
``trace.bookkeeping`` span, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

BOOKKEEPING = "trace.bookkeeping"

# (metric name, candidate dotted paths): the first path that resolves is wrapped.
ENTRY_POINTS = (
    ("kernel.snf", ("lieq._kernel.snf_with_transforms",
                    "lieq.exactlin.snf_with_transforms")),
    ("kernel.hnf", ("lieq._kernel.hnf_rows", "lieq.exactlin.hnf_rows")),
    ("kernel.rowker", ("lieq._kernel.hnf_rows_with_kernel",
                       "lieq.exactlin.hnf_rows_with_kernel")),
    ("exactlin.FpModule.__init__", ("lieq.exactlin.FpModule.__init__",)),
    ("exactlin.direct_sum", ("lieq.exactlin.direct_sum",)),
    ("exactlin.ModuleHom.kernel", ("lieq.exactlin.ModuleHom.kernel",)),
    ("exactlin.row_kernel", ("lieq.exactlin.row_kernel",)),
    ("capability.tensor_center", ("lieq.capability.tensor_center",)),
    ("capability.exterior_center", ("lieq.capability.exterior_center",)),
    ("capability.ellis_centers", ("lieq.capability.ellis_centers",)),
    ("capability.center_report", ("lieq.capability.center_report",)),
    ("qtensor.q_tensor_product", ("lieq.qtensor.q_tensor_product",)),
    ("qtensor.q_exterior_product", ("lieq.qtensor.q_exterior_product",)),
    ("qtensor.QProduct.__init__", ("lieq.qtensor.QProduct.__init__",)),
    ("qtensor.jacobi_defects", ("lieq.qtensor.QProduct.jacobi_defects",)),
    ("qtensor.bracket_closure_defects",
     ("lieq.qtensor.QProduct.bracket_closure_defects",)),
    ("qtensor.xi", ("lieq.qtensor.QProduct.xi",)),
    ("qtensor.product_action", ("lieq.qtensor.product_action",)),
    ("qtensor.gamma_sequence_check", ("lieq.qtensor.gamma_sequence_check",)),
    ("liealg.lie_algebra", ("lieq.liealg.lie_algebra",)),
    ("liealg.LieAction.validate", ("lieq.liealg.LieAction.validate",)),
    ("liealg.validate_q_crossed", ("lieq.liealg.validate_q_crossed",)),
    ("liealg.center", ("lieq.liealg.center",)),
    ("liealg.q_center", ("lieq.liealg.q_center",)),
    ("liealg.derivations", ("lieq.liealg.derivations",)),
    ("testkit.BruteProduct", ("lieq.testkit.BruteProduct.__init__",)),
    ("testkit.brute_center", ("lieq.testkit.brute_center",)),
    ("testkit.brute_gamma", ("lieq.testkit.brute_gamma",)),
) + tuple(
    (f"verify.{name}", (f"lieq.verify.{name}",)) for name in (
        "check_abelian_decomposition", "check_brace_identity",
        "check_crossed_modules", "check_gamma_sequence",
        "check_right_exactness", "check_center_coincidence",
        "check_free_rank_one_example", "check_perfect_algebras",
        "check_inclusion_chains", "check_oracle_products",
        "check_oracle_gamma", "check_inner_derivations",
        "check_negative_control")
) + tuple(
    (f"io_catalog.{name}", (f"lieq.io_catalog.{name}",)) for name in (
        "abelian", "heisenberg", "sl2", "strictly_upper", "zero_algebra",
        "report_json")
)

PRODUCT_CALLS = ("qtensor.q_tensor_product", "qtensor.q_exterior_product")
PRODUCT_INIT = "qtensor.QProduct.__init__"

_MISSING = object()


def resolve(path: str):
    """``(owner, attribute, object)`` for a dotted path, or None if absent."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, _MISSING)
            if owner is _MISSING:
                return None
        obj = getattr(owner, parts[-1], _MISSING)
        return None if obj is _MISSING or not callable(obj) else (owner, parts[-1], obj)
    return None


def max_bits(matrices) -> int:
    """Largest bit length of any entry of the given row-lists."""
    best = 0
    for mat in matrices:
        for row in mat:
            if row:
                b = max(max(row).bit_length(), min(row).bit_length())
                if b > best:
                    best = b
    return best


class Tracer:
    """Wraps lieq entry points, records spans and derives per-layer metrics."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [BOOKKEEPING]
        self.spans = []
        self.stack = []
        self.absent = []
        self.counters = {
            "kernel.snf.max_bits": 0, "kernel.snf.cells": 0,
            "kernel.hnf.max_bits": 0, "kernel.hnf.cells": 0,
            "kernel.rowker.max_bits": 0, "kernel.rowker.cells": 0,
            "exactlin.fpmodule.max_rank": 0,
            "exactlin.fpmodule.max_relations": 0,
            "exactlin.direct_sum.max_rank": 0,
        }
        self.center_calls = 0
        self.center_keys = set()
        self._restore = []
        self._hooks = {
            "kernel.snf": (self._snf_cells, self._bits("kernel.snf")),
            "kernel.hnf": (self._cells("kernel.hnf"),
                           self._bits("kernel.hnf", single=True)),
            "kernel.rowker": (self._cells("kernel.rowker"),
                              self._bits("kernel.rowker")),
            "exactlin.FpModule.__init__": (None, self._fpmodule_after),
            "exactlin.direct_sum": (None, self._direct_sum_after),
            "capability.tensor_center": (None, self._center(("tensor", True))),
            "capability.exterior_center": (None, self._center(("exterior", True))),
            "capability.ellis_centers": (None, self._center(("tensor", False),
                                                            ("exterior", False))),
        }

    # -- installing ----------------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS):
        for name, paths in entry_points:
            for path in paths:
                found = resolve(path)
                if found is not None:
                    self._patch(name, *found)
                    break
            else:
                self.absent.append(name)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, name, owner, attr, original):
        index = len(self.names)
        self.names.append(name)
        wrapper = self._wrap(index, original, self._hooks.get(name))
        if isinstance(owner, type):
            self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrapper)
            return
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lieq" or modname.startswith("lieq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _wrap(self, index, fn, hooks):
        spans, stack, clock = self.spans, self.stack, self.clock
        before, after = hooks if hooks else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if after is not None:
                after(args, result)
                spans.append((0, end, clock(), parent))
            return result
        return wrapper

    # -- counters taken from arguments and results ---------------------------

    def _cells(self, name):
        """Adds rows x cols of the input; counts a one-shot row stream as it is read."""
        key = name + ".cells"

        def before(args):
            rows, ncols = args[0], args[1]
            if hasattr(rows, "__len__"):
                self.counters[key] += len(rows) * ncols
                return args

            def counted():
                for row in rows:
                    self.counters[key] += ncols
                    yield row
            return (counted(),) + tuple(args[1:])
        return before

    def _bits(self, name, single=False):
        key = name + ".max_bits"

        def after(args, result):
            bits = max_bits([result] if single else result)
            if bits > self.counters[key]:
                self.counters[key] = bits
        return after

    def _snf_cells(self, args):
        self.counters["kernel.snf.cells"] += args[1] * args[2]
        return args

    def _fpmodule_after(self, args, result):
        module, c = args[0], self.counters
        c["exactlin.fpmodule.max_rank"] = max(c["exactlin.fpmodule.max_rank"],
                                              module.ambient_rank)
        c["exactlin.fpmodule.max_relations"] = max(
            c["exactlin.fpmodule.max_relations"], len(module.relations))

    def _direct_sum_after(self, args, result):
        c = self.counters
        c["exactlin.direct_sum.max_rank"] = max(c["exactlin.direct_sum.max_rank"],
                                                result[0].ambient_rank)

    def _center(self, *kinds):
        """Counts one center computation per (kind, brace) the call makes."""
        def after(args, result):
            g, q = args[0], args[1]
            key = (g.base_modulus, g.orders, g.table, q)
            for kind in kinds:
                self.center_calls += 1
                self.center_keys.add(key + kind)
        return after

    # -- metrics ---------------------------------------------------------------

    def metrics(self, pass_start: float, pass_end: float) -> dict:
        """Every per-layer metric of the spans recorded so far."""
        stats = span_stats(self.names, self.spans)
        out = {}
        for name in self.names[1:]:
            calls, incl, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = own
        for name in self.absent:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        out.update(self.counters)
        distinct = len(self.center_keys)
        out["capability.center.distinct_keys"] = distinct
        out["capability.center.repeat_ratio"] = (
            distinct / self.center_calls if self.center_calls else 0.0)
        calls, builds, inits = product_builds(self.names, self.spans)
        out["qtensor.product.builds"] = builds
        out["qtensor.product.cache_hit_ratio"] = (
            (calls - builds) / calls if calls else 0.0)
        out["qtensor.closure.passes_per_build"] = inits / builds if builds else 0.0
        out["trace.bookkeeping_s"] = stats.get(BOOKKEEPING, (0, 0.0, 0.0))[1]
        out["trace.coverage_frac"] = coverage(self.spans, pass_start, pass_end)
        return out

    def dump(self, fh):
        """Write the recorded spans as JSON: names plus [name, start, end, parent]."""
        json.dump({"names": self.names, "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def span_stats(names, spans) -> dict:
    """name -> (calls, inclusive seconds, self seconds).

    Inclusive time counts only the outermost span of a name, so a recursive
    entry point is not counted twice.
    """
    own = self_times(spans)
    stats = {}
    for i, (index, start, end, parent) in enumerate(spans):
        name = names[index]
        calls, incl, selft = stats.get(name, (0, 0.0, 0.0))
        p = parent
        while p >= 0 and spans[p][0] != index:
            p = spans[p][3]
        if p < 0:
            incl += end - start
        stats[name] = (calls + 1, incl, selft + own[i])
    return stats


def product_builds(names, spans):
    """(product calls, calls that built a product, QProduct constructions).

    A product call that constructed no QProduct below it was a cache hit.
    """
    product_idx = {i for i, n in enumerate(names) if n in PRODUCT_CALLS}
    init_idx = {i for i, n in enumerate(names) if n == PRODUCT_INIT}
    calls = sum(1 for s in spans if s[0] in product_idx)
    built = set()
    inits = 0
    for span in spans:
        if span[0] not in init_idx:
            continue
        inits += 1
        p = span[3]
        while p >= 0 and spans[p][0] not in product_idx:
            p = spans[p][3]
        if p >= 0:
            built.add(p)
    return calls, len(built), inits


def coverage(spans, start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans recorded in it."""
    if end <= start:
        return 0.0
    covered = sum(min(s[2], end) - max(s[1], start) for s in spans
                  if s[3] < 0 and s[0] != 0
                  and s[2] > start and s[1] < end)
    return covered / (end - start)
