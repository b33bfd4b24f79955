"""Outside-in span tracer for divkit.

The tracer wraps public divkit functions and methods at run time; divkit
itself is not changed.  Each call records one span (name, start, end,
parent span, operation id) and, for some layers, counters taken from the
call's arguments and result.  Spans stay in memory until the run ends;
self time is a span's duration minus the time covered by its child spans
and by the counter probes run on those children.

A function that a divkit module imported with ``from .x import name`` is
bound under that name in the importing module too, so installing a wrapper
rebinds every ``divkit.*`` module attribute that still holds the original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def fingerprint(root) -> int:
    """Structural hash of an Expr DAG.

    Walks the graph iteratively with an ``id`` memo so shared subtrees are
    visited once.  Expr's own cached hash is left untouched, so the probe
    does not pre-pay work the program would otherwise do itself.
    """
    memo: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if expanded:
            memo[id(node)] = hash((node.kind, node.value, node.name,
                                   tuple(memo[id(a)] for a in node.args)))
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args if id(a) not in memo)
    return memo[id(root)]


def node_count(root) -> int:
    """Distinct nodes of an Expr DAG."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for a in stack.pop().args:
            if id(a) not in seen:
                seen.add(id(a))
                stack.append(a)
    return len(seen)


def _first_size(arrays) -> int:
    for v in arrays.values():
        size = int(np.size(v))
        if size > 1:
            return size
    return 1


# -- counter probes: probe(tracer, args, kwargs, result) ----------------------

def _probe_simplify(t, args, kwargs, result):
    t.distinct("expr.simplify.distinct_ratio", fingerprint(args[0]))
    t.count("expr.simplify.nodes_out", node_count(result))


def _probe_eval_many(t, args, kwargs, result):
    t.count("expr.eval_many.points", _first_size(args[1]))
    t.count("expr.eval_many.nodes", node_count(args[0]))
    t.count("expr.eval_many.nonfinite",
            int(np.size(result) - np.count_nonzero(np.isfinite(result))))


def _probe_symbolic(t, args, kwargs, result):
    op, field = args[0], args[1]
    key = (id(op),) + tuple(fingerprint(c) for c in field.components)
    t.distinct("operators.symbolic.distinct_ratio", key)


def _probe_apply_many(t, args, kwargs, result):
    t.count("operators.apply_many.points", int(np.shape(args[2])[0]))


def _probe_many(t, args, kwargs, result):
    t.count("reconstruct.NumericScalarField.many.points",
            int(np.shape(args[1])[0]))


def _probe_check_axioms(t, args, kwargs, result):
    t.count("axioms.samples", result.samples)
    t.count("axioms.skipped", result.skipped)


def _probe_classify(t, args, kwargs, result):
    t.count(f"reconstruct.verdict.{result.verdict}", 1)


def _probe_grid_integral(t, args, kwargs, result):
    from divkit.quadrature import default_rule

    chart = args[1] if len(args) > 1 else kwargs["chart"]
    resolution = args[2] if len(args) > 2 else kwargs.get("resolution", 64)
    rule = (args[3] if len(args) > 3 else kwargs.get("rule")) or default_rule()
    t.count("quadrature.grid_integral.nodes",
            (rule.order * resolution) ** chart.dim)


def _probe_parse_specfile(t, args, kwargs, result):
    with open(args[0], encoding="utf-8") as handle:
        t.count("specfile.lines", sum(1 for _ in handle))


# (module, attribute path, span name, probe).  Span names follow the
# benchmark's metric names: <module>.<public name>.
TARGETS = [
    ("divkit.expr", "Expr.simplify", "expr.simplify", _probe_simplify),
    ("divkit.expr", "Expr.diff", "expr.diff", None),
    ("divkit.expr", "Expr.eval_many", "expr.eval_many", _probe_eval_many),
    ("divkit.expr", "Expr.eval", "expr.eval", None),
    ("divkit.expr", "parse_expr", "expr.parse_expr", None),
    ("divkit.geometry", "bracket", "geometry.bracket", None),
    ("divkit.geometry", "apply_field", "geometry.apply_field", None),
    ("divkit.geometry", "sample_points", "geometry.sample_points", None),
    ("divkit.operators", "DivOperator.symbolic", "operators.symbolic",
     _probe_symbolic),
    ("divkit.operators", "DivOperator.apply_many", "operators.apply_many",
     _probe_apply_many),
    ("divkit.operators", "DivOperator.apply", "operators.apply", None),
    ("divkit.axioms", "check_axioms", "axioms.check_axioms",
     _probe_check_axioms),
    ("divkit.axioms", "random_fields", "axioms.random_fields", None),
    ("divkit.axioms", "library_fields", "axioms.library_fields", None),
    ("divkit.axioms", "random_scalars", "axioms.random_scalars", None),
    ("divkit.reconstruct", "classify", "reconstruct.classify",
     _probe_classify),
    ("divkit.reconstruct", "extract_oneform", "reconstruct.extract_oneform",
     None),
    ("divkit.reconstruct", "integrate_potential",
     "reconstruct.integrate_potential", None),
    ("divkit.reconstruct", "NumericScalarField.many",
     "reconstruct.NumericScalarField.many", _probe_many),
    ("divkit.reconstruct", "monodromy_period", "reconstruct.monodromy_period",
     None),
    ("divkit.reconstruct", "star_shaped_subchart",
     "reconstruct.star_shaped_subchart", None),
    ("divkit.quadrature", "grid_integral", "quadrature.grid_integral",
     _probe_grid_integral),
    ("divkit.quadrature", "integral_vanishing_check",
     "quadrature.integral_vanishing_check", None),
    ("divkit.specfile", "parse_specfile", "specfile.parse_specfile",
     _probe_parse_specfile),
]


class Tracer:
    """Span and counter recorder; install() patches divkit, uninstall()
    restores it.

    Spans and counters are charged to the current operation, and each
    operation to a group (the benchmark uses one group per pass).
    """

    def __init__(self):
        # span: [name, start, end, parent index, operation id, probe seconds]
        self.spans: list[list] = []
        self.op_id = 0
        self.op_group: dict[int, int] = {0: 0}
        self.group = 0
        self.counters: dict[tuple[int, str], float] = defaultdict(int)
        # (group, name) -> [calls seen, set of distinct keys, distinct count
        # reported by child processes]
        self._distinct: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, set(), 0])
        # (group, name) -> [calls, self seconds] reported by child processes
        self._absorbed: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, 0.0])
        # span index -> seconds covered by child-process spans
        self._absorbed_cover: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, group: int):
        """Start a new operation charged to ``group``."""
        self.op_id += 1
        self.group = group
        self.op_group[self.op_id] = group

    # -- counters ------------------------------------------------------------

    def count(self, name: str, amount: float):
        self.counters[(self.group, name)] += amount

    def distinct(self, name: str, key):
        entry = self._distinct[(self.group, name)]
        entry[0] += 1
        entry[1].add(key)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          tracer.op_id, 0.0])
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end
            if probe is not None:
                probe(tracer, args, kwargs, result)
                record[5] = _clock() - end
            return result

        return traced

    def install(self, targets=TARGETS):
        for module_name, path, name, probe in targets:
            module = importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, probe)
            self._patch(owner, attr, wrapper)
            if outer:
                continue  # methods are reached through their class only
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is module:
                    continue
                if mod_name != "divkit" and not mod_name.startswith("divkit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def layer_stats(self) -> dict[int, dict[str, list]]:
        """group -> span name -> [calls, self seconds]."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, probe in spans:
            if parent >= 0:
                covered[parent] += (end - start) + probe
        for index, seconds in self._absorbed_cover.items():
            covered[index] += seconds
        out: dict[int, dict[str, list]] = defaultdict(dict)
        for i, (name, start, end, _, op, _) in enumerate(spans):
            entry = out[self.op_group[op]].setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered[i]
        for (group, name), (calls, self_s) in self._absorbed.items():
            entry = out[group].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return out

    def distinct_ratios(self, group: int) -> dict[str, float]:
        return {name: (len(seen) + extra) / total
                for (g, name), (total, seen, extra) in self._distinct.items()
                if g == group and total}

    def export(self) -> dict:
        """Everything recorded, aggregated, as plain JSON data."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for group in self.layer_stats().values():
            for name, (calls, self_s) in group.items():
                spans[name][0] += calls
                spans[name][1] += self_s
        counters: dict[str, float] = defaultdict(int)
        for (_, name), value in self.counters.items():
            counters[name] += value
        distinct: dict[str, list] = defaultdict(lambda: [0, 0])
        for (_, name), (total, seen, extra) in self._distinct.items():
            distinct[name][0] += total
            distinct[name][1] += len(seen) + extra
        return {"spans": dict(spans), "counters": dict(counters),
                "distinct": dict(distinct)}

    def absorb(self, payload: dict, covered_s: float):
        """Charge another process's export() to the current group;
        ``covered_s`` of the innermost open span was spent in its spans."""
        if self._stack:
            self._absorbed_cover[self._stack[-1]] += covered_s
        for name, (calls, self_s) in payload["spans"].items():
            entry = self._absorbed[(self.group, name)]
            entry[0] += calls
            entry[1] += self_s
        for name, value in payload["counters"].items():
            self.count(name, value)
        for name, (total, distinct) in payload["distinct"].items():
            entry = self._distinct[(self.group, name)]
            entry[0] += total
            entry[2] += distinct
