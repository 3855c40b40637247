"""Span tracer for one worker process, installed from outside the program.

The program binds names with ``from .x import y``, so a public function is
wrapped by rebinding every module attribute that refers to it, in every
``jetcocycles`` module (the defining module too, for its internal calls).
``solve_affine`` gets one wrapper per importing module, which splits its
calls by caller.  Spans (id, parent, name, start, end, item) stay in memory
and are written out when the worker ends; self times come from them.

Two hot kernel entry points, ``DiffExpr.__mul__`` and ``LamPoly.__init__``,
are only counted: a span per call would cost more than the work.  Their
time stays in the self time of the traced function that called them.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Dict, List, Tuple

_now = time.perf_counter_ns

# (module, attribute) -> span name; "<module>.<function>" unless noted
SPANNED = (
    ("expr", "total_derivative"), ("expr", "substitute"), ("expr", "euler_derivative"),
    ("lampoly", "gcd_all"), ("lampoly", "rational_roots"),
    ("cochains", "ce_differential"), ("cochains", "catalogue"),
    ("cochains", "lambda_solutions"),
    ("charts", "is_global"), ("charts", "solve_corrections"),
    ("charts", "covariant_equivalence"),
    ("wittmodel", "kn_value"), ("wittmodel", "evaluate_cochain"),
    ("wittmodel", "laurent_action"), ("wittmodel", "nontriviality_certificate"),
    ("syntax", "to_text"),
    ("report", "render_json"), ("report", "render_text"), ("report", "emit_report"),
    ("cli", "main"),
)
_RENAMED = {"report.render_json": "report.render", "report.render_text": "report.render",
            "report.emit_report": "report.render"}
SOLVE_CALLERS = ("charts", "wittmodel", "report")
LAYERS = ("expr", "lampoly", "cochains", "charts", "linalg", "wittmodel", "syntax",
          "report", "cli", "bench")
SPAN_METRICS = (
    "charts.pushforward", "charts.is_global", "charts.solve_corrections",
    "cochains.ce_differential", "expr.total_derivative", "expr.substitute",
    "expr.euler_derivative", "cochains.catalogue", "cochains.lambda_solutions",
    "wittmodel.kn_value", "wittmodel.evaluate_cochain", "wittmodel.laurent_action",
    "wittmodel.nontriviality_certificate", "syntax.to_text",
) + tuple(f"linalg.solve_affine.{c}" for c in SOLVE_CALLERS)
TIME_ONLY = ("charts.covariant_equivalence", "lampoly.gcd_all", "lampoly.rational_roots",
             "report.render") + tuple(f"report.suite.{s}" for s in
                                      ("theorem1", "table3", "witt", "nontrivial"))
PHASES = ("verify-cli", "globalize-sweep", "lambda-sweep", "laurent-windows")
SOLVE_FIELDS = ("rows_in", "rows_distinct", "nnz_in", "rank", "nullspace_dim", "infeasible")


def _distinct_rows(rows) -> int:
    """Rows of (coefficients, rhs) that differ up to a nonzero scale."""
    keys = set()
    for row, rhs in rows:
        items = sorted((i, Fraction(v)) for i, v in row.items() if v)
        lead = items[0][1] if items else (Fraction(rhs) or Fraction(1))
        keys.add((tuple((i, v / lead) for i, v in items), Fraction(rhs) / lead))
    return len(keys)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.stack = [0]
        self.item = -1
        self._ids = itertools.count(1)
        self.mul_calls = [0]
        self.lampoly_new = [0]
        self.solves: Dict[str, Counter] = defaultdict(Counter)
        self.out_terms: Counter = Counter()
        self.ansatz_terms = 0
        self.kn_args: List[Tuple[int, int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def enter(self) -> Tuple[int, int, int]:
        sid = next(self._ids)
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, _now()

    def exit(self, name: str, token: Tuple[int, int, int]) -> None:
        end = _now()
        self.stack.pop()
        sid, parent, start = token
        self.spans.append((sid, parent, name, start, end, self.item))

    def _wrap(self, fn, name, post=None):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            token = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name if isinstance(name, str) else name(args, kwargs), token)
            if post is not None:
                token = enter()
                post(args, result)
                exit_("trace.stats", token)
            return result

        return traced

    def _wrap_solve(self, fn, caller: str):
        name = f"linalg.solve_affine.{caller}"
        stats = self.solves[caller]
        enter, exit_ = self.enter, self.exit

        def traced(rows, nvars):
            token = enter()
            try:
                rows = list(rows)
                result = fn(rows, nvars)
            finally:
                exit_(name, token)
            token = enter()
            stats["rows_in"] += len(rows)
            stats["rows_distinct"] += _distinct_rows(rows)
            stats["nnz_in"] += sum(1 for row, _ in rows for v in row.values() if v)
            if result is None:
                stats["infeasible"] += 1
            else:
                stats["rank"] += nvars - result.dimension
                stats["nullspace_dim"] += result.dimension
                stats["feasible_rows_in"] += len(rows)
            exit_("trace.stats", token)
            return result

        return traced

    # -- installation --------------------------------------------------

    def _rebind(self, original, make) -> None:
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("jetcocycles") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, make(modname.rpartition(".")[2]))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import jetcocycles  # noqa: F401  (loads every module but cli)
        import jetcocycles.cli  # noqa: F401
        from jetcocycles import charts, expr, lampoly, linalg, report

        def post_out_terms(name):
            def post(args, result):
                self.out_terms[name] += len(result)
            return post

        posts = {
            "cochains.ce_differential": post_out_terms("cochains.ce_differential"),
            "charts.solve_corrections": self._post_ansatz,
            "wittmodel.kn_value": lambda args, result: self.kn_args.append(tuple(args[:2])),
        }
        for modname, attr in SPANNED:
            mod = sys.modules[f"jetcocycles.{modname}"]
            name = _RENAMED.get(f"{modname}.{attr}", f"{modname}.{attr}")
            wrapped = self._wrap(getattr(mod, attr), name, posts.get(name))
            self._rebind(getattr(mod, attr), lambda _caller, w=wrapped: w)

        def suite_name(args, kwargs):
            return "report.suite." + (args[0] if args else kwargs["suite"])

        suite_wrapped = self._wrap(report.run_suite, suite_name)
        self._rebind(report.run_suite, lambda _caller: suite_wrapped)

        solve = linalg.solve_affine
        self._rebind(solve, lambda caller: self._wrap_solve(solve, caller))

        self._patch_attr(charts.ChartFrame, "pushforward", self._wrap(
            charts.ChartFrame.pushforward, "charts.pushforward",
            post_out_terms("charts.pushforward")))

        mul, mul_calls = expr.DiffExpr.__mul__, self.mul_calls

        def counted_mul(a, b):
            mul_calls[0] += 1
            return mul(a, b)

        self._patch_attr(expr.DiffExpr, "__mul__", counted_mul)

        init, new_calls = lampoly.LamPoly.__init__, self.lampoly_new

        def counted_init(obj, coeffs=()):
            new_calls[0] += 1
            init(obj, coeffs)

        self._patch_attr(lampoly.LamPoly, "__init__", counted_init)

    def _post_ansatz(self, args, result) -> None:
        self.ansatz_terms += len(result.ansatz)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of this process, computed from the spans."""
        child_ns: Counter = Counter()
        names: Dict[int, str] = {}
        for sid, parent, name, start, end, _item in self.spans:
            child_ns[parent] += end - start
            names[sid] = name
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        layer_ns: Counter = Counter()
        for sid, parent, name, start, end, _item in self.spans:
            own = end - start - child_ns[sid]
            self_ns[name] += own
            layer_ns[name.partition(".")[0]] += own
            calls[name] += 1
            # a span directly inside one of the same name is already counted
            if names.get(parent) != name:
                incl_ns[name] += end - start

        out: Dict[str, float] = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl_ns[name] / 1e9
        for name in TIME_ONLY:
            out[f"{name}.s"] = incl_ns[name] / 1e9
        for phase in PHASES:
            out[f"bench.{phase}.s"] = incl_ns[f"bench.{phase}"] / 1e9
        out["charts.solve_corrections.self_s"] = self_ns["charts.solve_corrections"] / 1e9
        out["charts.pushforward.out_terms"] = self.out_terms["charts.pushforward"]
        out["cochains.ce_differential.out_terms"] = self.out_terms["cochains.ce_differential"]
        out["charts.ansatz_terms"] = self.ansatz_terms
        out["expr.mul.calls"] = self.mul_calls[0]
        out["lampoly.new.calls"] = self.lampoly_new[0]
        kn = len(self.kn_args)
        out["wittmodel.kn_value.distinct_ratio"] = len(set(self.kn_args)) / kn if kn else 0.0
        for caller in SOLVE_CALLERS:
            st = self.solves[caller]
            base = f"linalg.solve_affine.{caller}"
            for field in SOLVE_FIELDS:
                out[f"{base}.{field}"] = st[field]
            out[f"{base}.distinct_ratio"] = (
                st["rows_distinct"] / st["rows_in"] if st["rows_in"] else 0.0)
            out[f"{base}.rank_ratio"] = (
                st["rank"] / st["feasible_rows_in"] if st["feasible_rows_in"] else 0.0)
        total = sum(ns for layer, ns in layer_ns.items() if layer != "trace")
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9
            out[f"layer.{layer}.self_share"] = layer_ns[layer] / total if total else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run {self.run_id}\n# id\tparent\tname\tstart_ns\tend_ns\titem\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
