"""Spans recorded from outside corrineq, and the layer metrics read off them.

The traced run replaces public functions on the module attributes that
their callers look up at call time (``corrineq.lhv.simplex_solve`` is what
``jd_feasibility`` calls, ``corrineq.cli.classical_extrema`` is what the
``derive`` command calls, and so on).  Each wrapper records one span with
a name, start, end, parent span and the counters found on the function's
public return value.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict


def _simplex_counters(args, kwargs, solution):
    problem = args[0] if args else kwargs["problem"]
    n = problem.c.shape[0]
    m_eq = 0 if problem.a_eq is None else problem.a_eq.shape[0]
    m_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
    m = m_eq + m_ub
    # the dense tableau is m rows by (columns + slacks + artificials + rhs)
    width = n + m_ub + m + 1
    return {"pivots": solution.iterations, "columns": n, "tableau_mb": m * width * 8 / 1e6}


def _extrema_counters(args, kwargs, result):
    return {"assignments": result.assignments_checked}


def _optimize_counters(args, kwargs, result):
    return {"evaluations": result.evaluations, "converged": int(result.converged)}


def _estimate_counters(args, kwargs, result):
    return {"shots": result.shots}


def _signaling_counters(args, kwargs, result):
    return {"shots": sum(result.shots_per_arm)}


# span name, counter reader, and the (module, attribute) pairs callers use
HOOKS = (
    ("simplex.simplex_solve", _simplex_counters, (("lhv", "simplex_solve"),)),
    ("lhv.jd_feasibility", None, (("cli", "jd_feasibility"), ("lhv", "jd_feasibility"))),
    ("lhv.nodisturbance_optimum", None,
     (("cli", "nodisturbance_optimum"), ("lhv", "nodisturbance_optimum"))),
    ("lhv.classical_extrema", _extrema_counters,
     (("cli", "classical_extrema"), ("lhv", "classical_extrema"))),
    ("optimize.maximize_violation", _optimize_counters, (("cli", "maximize_violation"),)),
    ("quantum.evaluate_inequality_quantum", None,
     (("cli", "evaluate_inequality_quantum"), ("optimize", "evaluate_inequality_quantum"))),
    ("quantum.build_f_operator", None, (("cli", "build_f_operator"),)),
    ("quantum.operator_norm", None, (("cli", "operator_norm"),)),
    ("protocol.estimate_f", _estimate_counters, (("cli", "estimate_f"), ("protocol", "estimate_f"))),
    ("protocol.signaling_test", _signaling_counters,
     (("cli", "signaling_test"), ("protocol", "signaling_test"))),
    ("protocol.simulate_choice_block", None, (("protocol", "simulate_choice_block"),)),
    ("polynomials.derive_inequality", None,
     (("cli", "derive_inequality"), ("lhv", "derive_inequality"),
      ("polynomials", "derive_inequality"))),
    ("dsl.parse_sos", None, (("cli", "parse_sos"), ("catalog", "parse_sos"))),
    ("dsl.parse_scenario", None, (("cli", "parse_scenario"), ("catalog", "parse_scenario"))),
)

QUANTUM_SPANS = {
    "quantum.evaluate_inequality_quantum", "quantum.build_f_operator", "quantum.operator_norm"
}
PROTOCOL_CALLS = {"protocol.estimate_f", "protocol.signaling_test"}
DSL_SPANS = {"dsl.parse_sos", "dsl.parse_scenario"}

# per-layer metrics that are ratios of two summed quantities
RATIOS = {
    "simplex.pivots_per_solve": ("simplex.pivots", "simplex.solves"),
    "simplex.s_per_pivot": ("simplex.solve_s", "simplex.pivots"),
    "lhv.assignments_per_s": ("lhv.assignments", "lhv.extrema_s"),
    "optimize.evals_per_s": ("optimize.evaluations", "optimize.maximize_s"),
    "optimize.converged_ratio": ("optimize.converged", "optimize.calls"),
    "protocol.shots_per_s": ("protocol.shots", "protocol.estimate_s"),
}

# counts that must come out identical on every pass over the same inputs
EXACT_COUNTS = (
    "simplex.solves", "simplex.pivots", "lhv.jd_calls", "lhv.jd_columns",
    "lhv.extrema_calls", "lhv.assignments", "optimize.calls", "optimize.evaluations",
    "optimize.converged", "quantum.evaluate_calls", "protocol.shots", "protocol.block_calls",
    "polynomials.derive_calls", "dsl.parse_calls",
)


class Tracer:
    """Span recorder plus the attribute swaps that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = None
        self.missing_hooks: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, **attrs) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _wrap(self, name, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if counters is not None:
                span["attrs"].update(counters(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Swap every hooked attribute of the imported package for a wrapper."""
        self.missing_hooks = []
        for name, counters, sites in HOOKS:
            for module_name, attr in sites:
                module = sys.modules.get(f"corrineq.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing_hooks.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counters))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")


class SpanTree:
    """Parent/child index over closed spans, with self time."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s["end"] is not None]
        self.children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def duration(span) -> float:
        return span["end"] - span["start"]

    def self_time(self, span) -> float:
        # children share their parent's thread, so they run one after another
        return self.duration(span) - sum(map(self.duration, self.children.get(span["id"], ())))

    def descendants(self, span):
        stack = list(self.children.get(span["id"], ()))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(self.children.get(s["id"], ()))


def phase_totals(tree: SpanTree, spans) -> dict:
    """Raw per-layer sums over the spans of one phase (one setup or one pass)."""
    t = defaultdict(int)
    for s in spans:
        name, attrs, d = s["name"], s["attrs"], tree.duration(s)
        if name == "simplex.simplex_solve":
            t["simplex.solves"] += 1
            t["simplex.pivots"] += attrs.get("pivots", 0)
            t["simplex.solve_s"] += d
            t["simplex.tableau_mb"] = max(t["simplex.tableau_mb"], attrs.get("tableau_mb", 0))
        elif name == "lhv.jd_feasibility":
            t["lhv.jd_calls"] += 1
            t["lhv.jd_s"] += d
            t["lhv.jd_self_s"] += tree.self_time(s)
            t["lhv.jd_columns"] += sum(
                c["attrs"].get("columns", 0) for c in tree.descendants(s)
                if c["name"] == "simplex.simplex_solve"
            )
        elif name == "lhv.nodisturbance_optimum":
            t["lhv.nd_s"] += d
        elif name == "lhv.classical_extrema":
            t["lhv.extrema_calls"] += 1
            t["lhv.extrema_s"] += d
            t["lhv.assignments"] += attrs.get("assignments", 0)
        elif name == "optimize.maximize_violation":
            t["optimize.calls"] += 1
            t["optimize.maximize_s"] += d
            t["optimize.evaluations"] += attrs.get("evaluations", 0)
            t["optimize.converged"] += attrs.get("converged", 0)
        elif name in QUANTUM_SPANS:
            t["quantum.evaluate_calls"] += 1
            t["quantum.evaluate_s"] += d
        elif name in PROTOCOL_CALLS:
            t["protocol.shots"] += attrs.get("shots", 0)
            t["protocol.estimate_s"] += d
        elif name == "protocol.simulate_choice_block":
            t["protocol.block_calls"] += 1
        elif name == "polynomials.derive_inequality":
            t["polynomials.derive_calls"] += 1
            t["polynomials.derive_s"] += d
        elif name in DSL_SPANS:
            t["dsl.parse_calls"] += 1
            t["dsl.parse_s"] += d
        elif name == "cli.reproduce":
            t[f"cli.target_s.{attrs['target']}"] += d
        elif name == "cli.derive":
            t["cli.derive_s"] += d
        elif name == "cli.check":
            t["cli.check_s"] += d
    return t


def layer_metrics(spans) -> tuple[dict, list[str]]:
    """Per-layer metrics for one setup plus one pass over the fixed list.

    Times are medians over the traced setups and traced passes; counts
    must agree exactly between passes, and every disagreement is returned
    as a problem.  Only layers that recorded a span appear.
    """
    tree = SpanTree(spans)
    by_phase: dict[str, list[dict]] = {}
    for s in tree.spans:
        if s["phase"] is not None:
            by_phase.setdefault(s["phase"], []).append(s)
    problems = []
    metrics = defaultdict(int)
    for kind in ("setup", "loop"):
        totals = [phase_totals(tree, group) for phase, group in sorted(by_phase.items())
                  if phase.startswith(kind + ":")]
        for key in sorted(set().union(*totals)):
            values = [tot[key] for tot in totals]
            if key in EXACT_COUNTS and len(set(values)) > 1:
                problems.append(f"{key} differs between traced {kind} passes: {values}")
            if key == "simplex.tableau_mb":
                metrics[key] = max(metrics[key], *values)
            else:
                metrics[key] += values[0] if len(set(values)) == 1 else statistics.median(values)
    for name, (num, den) in RATIOS.items():
        if metrics.get(den):
            metrics[name] = metrics[num] / metrics[den]
    return dict(metrics), problems


def op_rows(spans) -> list[dict]:
    """Median seconds and exact work counts for each benchmark operation."""
    tree = SpanTree(spans)
    rows: dict[str, dict] = {}
    for s in tree.spans:
        if s["name"] != "bench.op" or not str(s["phase"]).startswith("loop:"):
            continue
        attrs = dict(s["attrs"])
        row = rows.setdefault(attrs.pop("op"), {"params": attrs, "seconds": [], "counts": None})
        row["seconds"].append(tree.duration(s))
        counts = {"pivots": 0, "solves": 0, "assignments": 0}
        for d in tree.descendants(s):
            if d["name"] == "simplex.simplex_solve":
                counts["solves"] += 1
                counts["pivots"] += d["attrs"].get("pivots", 0)
            elif d["name"] == "lhv.classical_extrema":
                counts["assignments"] += d["attrs"].get("assignments", 0)
        row["counts"] = counts
    out = []
    for op, row in rows.items():
        seconds = statistics.median(row["seconds"])
        entry = {"op": op, **row["params"], "seconds": seconds, "passes": len(row["seconds"])}
        entry.update({k: v for k, v in row["counts"].items() if v})
        if row["counts"]["assignments"]:
            entry["assignments_per_s"] = row["counts"]["assignments"] / seconds
        out.append(entry)
    return out
