"""Spans around calls into each layer of `ultraweights`, recorded from outside.

`installed(tracer)` wraps the public functions of every layer and rebinds
each wrapper wherever the package holds the original: in the defining
module, in every module that imported it by name, in module-level
dispatch dicts, and on the class for methods.  `_kernels.*` is looked up
as a package attribute at call time, so rebinding there reaches every
call.  Spans are aggregated in memory per name and per (parent, child)
edge: self time and its bound by the parent need no more, and the totals
of one call are small enough to send back from the process that made it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "catalog", "derived", "relations", "func_core", "seq_core", "verdicts", "kernels")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.edges: dict[tuple, float] = defaultdict(float)  # (parent, child) -> child self_s
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [name, child_s] per open span

    def state(self) -> dict:
        """Everything recorded, as JSON-ready data that `merge` accepts."""
        return {
            "spans": dict(sorted(self.spans.items())),
            "edges": sorted(([p, c, v] for (p, c), v in self.edges.items()), key=lambda e: (e[0] or "", e[1])),
            "counts": dict(sorted(self.counts.items())),
            "maxima": dict(sorted(self.maxima.items())),
        }

    def merge(self, state: dict) -> None:
        for name, (calls, total, own) in state["spans"].items():
            s = self.spans[name]
            s[0] += calls
            s[1] += total
            s[2] += own
        for parent, child, own in state["edges"]:
            self.edges[(parent, child)] += own
        for key, value in state["counts"].items():
            self.counts[key] += value
        for key, value in state["maxima"].items():
            self.maximum(key, value)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, count=None, pre=None, delta=None):
        """Wrap `fn` in a span `name`.

        `pre(tracer, args)` runs before the call, `count(tracer, args,
        result)` after it; `delta=(key, suffix)` adds to `name.suffix` how
        much the count `key` grew during the call.
        """
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        edges = self.edges
        counts = self.counts

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            before = counts[delta[0]] if delta else 0.0
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                s = spans[name]
                s[0] += 1
                s[1] += dur
                s[2] += own
                edges[(parent[0] if parent else None, name)] += own
            if count is not None:
                count(self, args, result)
            if delta:
                counts[f"{name}.{delta[1]}"] += counts[delta[0]] - before
            return result

        return wrapper


def _points(key):
    def count(tr, args, result):
        tr.add(key, np.size(args[1]))
    return count


def _pairs(key, pairs):
    """Index pairs a full scan visits, computed from the input length n + 1."""
    def count(tr, args, result):
        tr.add(key, pairs(len(args[0]) - 1))
    return count


def _triangle(n):  # 0 <= j < k <= n
    return n * (n + 1) // 2


def _splits(n):  # 1 <= j < m <= n
    return n * (n - 1) // 2


def _values(tr, args, result):
    tr.add("seq_core.values.terms", args[1] + 1)
    tr.maximum("seq_core.values.max_n", args[1])


def _tail_terms(tr, args, result):
    tr.add("seq_core.tail_mids.terms", args[1])


def _member_hit(tr, args):
    if float(args[1]) in args[0]._cache:
        tr.add("func_core.member.hits", 1)


# (module, attribute, span name, keyword options of Tracer.wrap)
FUNCTIONS = [
    ("ultraweights._kernels", "min_chord", "kernels.min_chord", {"count": _pairs("kernels.min_chord.pairs_computed", _triangle)}),
    ("ultraweights._kernels", "sv_sup", "kernels.sv_sup", {"count": _pairs("kernels.sv_sup.pairs_computed", _triangle)}),
    ("ultraweights._kernels", "pair_gap_max", "kernels.pair_gap_max",
     {"count": _pairs("kernels.pair_gap_max.pairs_computed", _splits)}),
    ("ultraweights._kernels", "lower_hull", "kernels.lower_hull", {}),
    ("ultraweights._kernels", "assoc_sup", "kernels.assoc_sup", {}),
    ("ultraweights.func_core", "phi_star", "func_core.phi_star", {"count": _points("func_core.phi_star.points")}),
    ("ultraweights.func_core", "phi_star_maximizer", "func_core.phi_star_maximizer", {}),
    ("ultraweights.func_core", "kappa_assoc", "func_core.kappa_assoc", {"count": _points("func_core.kappa_assoc.points")}),
    ("ultraweights.func_core", "kappa_interval", "func_core.kappa_interval", {}),
    ("ultraweights.func_core", "poisson_interval", "func_core.poisson_interval", {}),
    ("ultraweights.func_core", "poisson_batch", "func_core.poisson_batch",
     {"count": _points("func_core.poisson_batch.radii"), "delta": ("func_core.omega.points", "omega_points")}),
    ("ultraweights.func_core", "omega_from_seq", "func_core.omega_from_seq", {}),
    ("ultraweights.func_core", "omega_tilde_from_seq", "func_core.omega_tilde_from_seq", {}),
    ("ultraweights.func_core", "matrix_from_omega", "func_core.matrix_from_omega", {}),
    ("ultraweights.func_core", "prec_st", "func_core.prec_st", {}),
    ("ultraweights.seq_core", "tail_recip_mu", "seq_core.tail_recip_mu", {}),
    ("ultraweights.seq_core", "tail_mids", "seq_core.tail_mids", {"count": _tail_terms}),
    ("ultraweights.seq_core", "seq_preceq", "seq_core.seq_preceq", {}),
    ("ultraweights.seq_core", "log_convex_minorant", "seq_core.log_convex_minorant", {}),
    ("ultraweights.seq_core", "is_non_quasianalytic", "seq_core.is_non_quasianalytic", {}),
    ("ultraweights.seq_core", "has_moderate_growth", "seq_core.has_moderate_growth", {}),
    ("ultraweights.derived", "seq_L", "derived.seq_L", {}),
    ("ultraweights.derived", "seq_underline_L", "derived.seq_underline_L", {}),
    ("ultraweights.derived", "seq_S", "derived.seq_S", {}),
    ("ultraweights.derived", "seq_K", "derived.seq_K", {}),
    ("ultraweights.derived", "seq_Q", "derived.seq_Q", {"delta": ("func_core.poisson_batch.radii", "radii")}),
    ("ultraweights.derived", "derive_family", "derived.derive_family", {}),
    ("ultraweights.relations", "matrix_braces_preceq", "relations.matrix_braces_preceq", {}),
    ("ultraweights.relations", "prec_SV", "relations.prec_SV", {}),
    ("ultraweights.relations", "r_moderate_growth", "relations.r_moderate_growth", {}),
    ("ultraweights.relations", "cond_liminf", "relations.cond_liminf", {}),
    ("ultraweights.verdicts", "trend_bounded", "verdicts.trend_bounded", {}),
    ("ultraweights.verdicts", "trend_liminf_positive", "verdicts.trend_liminf_positive", {}),
    ("ultraweights.verdicts", "trend_to_infinity", "verdicts.trend_to_infinity", {}),
    ("ultraweights.catalog", "resolve", "catalog.resolve", {}),
]

# (module, class, method, span name, keyword options of Tracer.wrap)
METHODS = [
    ("ultraweights.func_core", "WeightFn", "omega", "func_core.omega", {"count": _points("func_core.omega.points")}),
    ("ultraweights.func_core", "WeightMatrix", "member", "func_core.member", {"pre": _member_hit}),
    ("ultraweights.seq_core", "WeightSeq", "values", "seq_core.values", {"count": _values}),
]

SPAN_NAMES = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS] + ["cli"]


def _count_pairs(tracer, exists_beta):
    """Count the (alpha, beta) pairs the family quantifier tests, and how
    many of them hold; the quantifier itself gets no span."""
    def wrapper(alpha_grid, beta_grid, test, *args, **kwargs):
        def counted(a, b):
            v = test(a, b)
            tracer.add("relations.pairs_tested", 1)
            if v.holds:
                tracer.add("relations.pairs_held", 1)
            return v
        return exists_beta(alpha_grid, beta_grid, counted, *args, **kwargs)
    return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ultraweights" or name.startswith("ultraweights."))]


def _rebind(modules, orig, new, undo) -> int:
    """Replace every module-level reference to `orig`, including values of
    module-level dicts, with `new`.  Returns how many were replaced."""
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, key, value, False))
                setattr(mod, key, new)
                hits += 1
            elif isinstance(value, dict):
                for dk, dv in list(value.items()):
                    if dv is orig:
                        undo.append((value, dk, dv, True))
                        value[dk] = new
                        hits += 1
    return hits


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    import ultraweights.cli  # noqa: F401  (loads every layer module)

    modules = _package_modules()
    undo: list = []
    try:
        for mod_name, attr, span, opts in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            if _rebind(modules, orig, tracer.wrap(span, orig, **opts), undo) == 0:
                raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")
        for mod_name, cls_name, meth, span, opts in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig, False))
            setattr(cls, meth, tracer.wrap(span, orig, **opts))
        rel = sys.modules["ultraweights.relations"]
        undo.append((rel, "_exists_beta", rel._exists_beta, False))
        rel._exists_beta = _count_pairs(tracer, rel._exists_beta)
        yield tracer
    finally:
        for target, key, value, is_dict in reversed(undo):
            if is_dict:
                target[key] = value
            else:
                setattr(target, key, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-span calls, self time and counts, per-layer self time, and the
    ratios the benchmark reports."""
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, _total, own = tracer.spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[2] for n, s in tracer.spans.items() if n.split(".")[0] == layer)
    for key in ("kernels.min_chord.pairs_computed", "kernels.sv_sup.pairs_computed",
                "kernels.pair_gap_max.pairs_computed", "func_core.phi_star.points", "func_core.omega.points",
                "func_core.kappa_assoc.points", "func_core.poisson_batch.radii", "seq_core.values.terms",
                "seq_core.tail_mids.terms", "relations.pairs_tested"):
        m[key] = tracer.counts.get(key, 0)
    m["seq_core.values.max_n"] = tracer.maxima.get("seq_core.values.max_n", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m["func_core.poisson_batch.omega_points_per_radius"] = ratio(
        tracer.counts.get("func_core.poisson_batch.omega_points", 0), m["func_core.poisson_batch.radii"])
    m["func_core.member.hit_ratio"] = ratio(tracer.counts.get("func_core.member.hits", 0), m["func_core.member.calls"])
    m["derived.seq_Q.radii"] = ratio(tracer.counts.get("derived.seq_Q.radii", 0), m["derived.seq_Q.calls"])
    m["relations.pair_hit_ratio"] = ratio(tracer.counts.get("relations.pairs_held", 0), m["relations.pairs_tested"])
    return m
