"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each function in the table below with a
wrapper in its defining module *and* in every ``supportmonoids`` module
that re-binds it (``from .hilbert import in_generated`` and the package
``__init__``), so internal calls are seen too.  Classes keep their
identity: their ``__init__`` is wrapped instead, which times the
validation in ``__post_init__``.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory until ``write_spans``.  A layer's self time is its span's
duration minus the durations of its direct children, which on one
thread cover disjoint parts of it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _minimize_generators(counters, fn, args, kwargs):
    gens = tuple(args[0])
    res = fn(gens, *args[1:], **kwargs)
    counters["offered"] += len(gens)
    counters["removed"] += len(gens) - len(res)
    return res


def _count_true(counters, res):
    counters["true"] += bool(res)


def _hilbert_basis(counters, args, res):
    sys_ = args[0]
    counters["rowless"] += not sys_.F and not sys_.D


def _infinite_supports(counters, args, res):
    counters["subsets_tested"] += 2 ** args[0].s
    counters["admitted"] += len(res)


# (module, name, after-hook(counters, args, result) or None, call-hook or None)
TRACED = (
    ("equations", "DioSystem", None, None),
    ("equations", "is_member", None, None),
    ("hilbert", "HilbertBasis", None, None),
    ("hilbert", "minimal_solutions",
     lambda c, a, r: c.__setitem__("solutions", c["solutions"] + len(r)), None),
    ("hilbert", "hilbert_basis", _hilbert_basis, None),
    ("hilbert", "minimize_generators", None, _minimize_generators),
    ("hilbert", "find_order_unit", None, None),
    ("hilbert", "in_generated", lambda c, a, r: _count_true(c, r), None),
    ("hilbert", "generated_upto",
     lambda c, a, r: c.__setitem__("points", c["points"] + len(r)), None),
    ("supports", "SystemOfSupports", None, None),
    ("supports", "extract", None, None),
    ("supports", "infinite_supports", _infinite_supports, None),
    ("supports", "generators", None, None),
    ("supports", "member_via_supports", lambda c, a, r: _count_true(c, r), None),
    ("supports", "is_full", None, None),
    ("classify", "verdict", None, None),
    ("classify", "equals_a_plus_inf_a",
     lambda c, a, r: c.__setitem__("witnesses", c["witnesses"] + len(r[1])), None),
    ("constructions", "a_plus_inf_a", None, None),
    ("constructions", "b_min", None, None),
    ("constructions", "b_max", None, None),
    ("ranks", "realize_wiegand", None, None),
    ("ranks", "vstar_system", None, None),
    ("cli", "main", None, None),
)

# ``dot`` is a hot leaf: it gets a call counter, not a span.
COUNTED = (("semiring", "dot"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1  # operation id; -1 while setting up
        self.counters = defaultdict(lambda: defaultdict(int))

    def _span_wrapper(self, name, fn, after, around):
        spans, stack, counters = self.spans, self.stack, self.counters[name]
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                if around is None:
                    res = fn(*args, **kwargs)
                else:
                    res = around(counters, fn, args, kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(counters, args, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counters = self.counters[name]

        def counted(*args, **kwargs):
            counters["calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every traced name wherever a loaded package module binds it."""
        owners = {m: importlib.import_module(f"supportmonoids.{m}")
                  for m, *_ in TRACED + COUNTED}
        modules = [m for n, m in sys.modules.items()
                   if n == "supportmonoids" or n.startswith("supportmonoids.")]
        for mod_name, attr, after, around in TRACED:
            owner = owners[mod_name]
            name = f"{mod_name}.{attr}"
            orig = getattr(owner, attr)
            if isinstance(orig, type):
                orig.__init__ = self._span_wrapper(name, orig.__init__, after, around)
                continue
            _rebind(modules, orig, self._span_wrapper(name, orig, after, around))
        for mod_name, attr in COUNTED:
            orig = getattr(owners[mod_name], attr)
            _rebind(modules, orig, self._count_wrapper(f"{mod_name}.{attr}", orig))

    def summary(self) -> dict:
        """Per traced name: calls, self seconds and the hook counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: dict(c) for name, c in self.counters.items()}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {})
            entry["calls"] = entry.get("calls", 0) + 1
            entry["self_s"] = entry.get("self_s", 0.0) + (end - start - covered)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _rebind(modules, orig, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)


def merge(into: dict, summary: dict) -> dict:
    """Add one summary's numbers into another (used across subprocesses)."""
    for name, entry in summary.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into


# Per-layer metrics: (span name, extra statistics beyond calls and self_s).
LAYER_STATS = (
    ("hilbert.minimal_solutions", ("solutions",)),
    ("hilbert.hilbert_basis", ("rowless_share",)),
    ("hilbert.minimize_generators", ("removed_share",)),
    ("hilbert.find_order_unit", ()),
    ("hilbert.HilbertBasis", ()),
    ("hilbert.in_generated", ("true_share",)),
    ("hilbert.generated_upto", ("points",)),
    ("supports.is_full", ()),
    ("supports.extract", ()),
    ("supports.infinite_supports", ("subsets_tested", "admitted_share")),
    ("supports.generators", ()),
    ("supports.SystemOfSupports", ()),
    ("supports.member_via_supports", ("true_share",)),
    ("equations.DioSystem", ()),
    ("equations.is_member", ()),
    ("classify.verdict", ()),
    ("classify.equals_a_plus_inf_a", ("witnesses",)),
    ("constructions.a_plus_inf_a", ()),
    ("constructions.b_min", ()),
    ("constructions.b_max", ()),
    ("ranks.realize_wiegand", ()),
    ("ranks.vstar_system", ()),
    ("cli.main", ()),
)

# share name -> (numerator counter, denominator counter)
SHARES = {
    "rowless_share": ("rowless", "calls"),
    "removed_share": ("removed", "offered"),
    "true_share": ("true", "calls"),
    "admitted_share": ("admitted", "subsets_tested"),
}


def layer_metrics(summary: dict) -> dict:
    """Metric name -> (value, unit) for every per-layer metric but the
    run-level ones (import, start-up, tracing overhead)."""
    out = {}
    for name, extras in LAYER_STATS:
        entry = summary.get(name, {})
        out[f"{name}.calls"] = (entry.get("calls", 0), "count")
        out[f"{name}.self_s"] = (entry.get("self_s", 0.0), "s")
        for stat in extras:
            if stat in SHARES:
                num, den = SHARES[stat]
                d = entry.get(den, 0)
                out[f"{name}.{stat}"] = (entry.get(num, 0) / d if d else 0.0, "ratio")
            else:
                out[f"{name}.{stat}"] = (entry.get(stat, 0), "count")
    out["semiring.dot.calls"] = (summary.get("semiring.dot", {}).get("calls", 0), "count")
    return out
