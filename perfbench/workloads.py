"""The benchmark's workloads: inputs made from a seed, and the calls a worker
process makes for each input.

A workload runs two phases in one process.  ``solver`` is the checker's
commands and the correction solver (verify-cli, then globalize-sweep);
``kernel`` is the kernel without charts or elimination (lambda-sweep, then
laurent-windows).  A change to elimination or to chart pushforward moves
``solver`` and should leave ``kernel`` alone; a change to the catalogue or
the Laurent model does the opposite; kernel changes move both.

Item generation (``make_items``) is plain Python and never imports the
program, so the parent process stays independent of it.  ``run_item`` is
called inside a worker process after ``jetcocycles`` has been imported, and
reaches the program only through its public API.

Seeded inputs are drawn from fixed pools whose verdicts are recorded in
``reference/`` (see make_reference.py), so every seed is checked exactly.
Pool members of one slot have the same shape, so the cost of a run does not
depend on which members the seed draws.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from typing import Dict, List

PHASES = {
    "solver": ("verify-cli", "globalize-sweep"),
    "kernel": ("lambda-sweep", "laurent-windows"),
}
WORKLOADS = tuple(PHASES)

# lambda_solutions takes jets up to twice the highest determinant order
# (variational derivatives of the trivial-action differential), so q <= 12
# needs cap 24; the default cap 12 stops at q = 7.
LAMBDA_CAP = 24
LAMBDA_MAX_Q = 12

# verify --window for the Laurent suites; the kn cocycle identity makes
# 3 * (2W + 1)^3 kn_value calls, 14,739 at W = 8 (6,591 at the default 6).
LAURENT_WINDOW = 8
AXIOM_CHECKS = 48

COEFF_POOL = tuple((a, b) for a in (1, 2, 3) for b in (-3, -2, -1, 1, 2, 3))

# Two determinants of equal p+q per slot; each seed draws one (a, b) per slot.
GLOBALIZE_SLOTS = (((0, 5), (1, 4)), ((0, 6), (1, 5)), ((0, 7), (1, 6)))
LAMBDA_SLOTS = (((2, 5), (3, 4)), ((3, 6), (4, 5)), ((4, 7), (5, 6)))
# the forced 2 : -9 weight-7 ratio is in the lambda pool (it is the one
# combination of its slot with a finite verdict); the globalize pool leaves
# it out, because a feasible weight-7 system is the 80 s c7 solve
LAMBDA_POOL = COEFF_POOL + ((2, -9),)

# det(p,q) systems of the globalize sweep: every 3 <= p+q <= 6, and the two
# weight-5 systems that are infeasible.  The feasible weight-5 systems
# det(3,4) and det(2,5) are elimination-bound and run in verify-cli.
GLOBALIZE_DETS = tuple(
    (p, q) for q in range(1, 7) for p in range(q) if 3 <= p + q <= 6
) + ((0, 7), (1, 6))

# records of the global and covariant suites that do not need the weight-7
# derivation (those suites also derive c7, which alone takes over a minute)
GLOBAL_ROWS = (("cbar0", -1), ("cbar1", 0), ("c1", 1), ("cbar2", 1),
               ("c2", 2), ("c5", 5), ("c0w", 1))
COVARIANT_ROWS = ("c1", "cbar1", "c2", "cbar2", "c5")
VERIFY_SUITES = ("theorem1", "table3", "nontrivial")
GLOBALIZE_CLI = (("det(2,4)", 4), ("det(3,4)", 5), ("det(2,5)", 5))

# CLASSICAL_TABLE rows that the engine reproduces (det(1,2) is the known
# disagreement and is checked against the reference file only):
# (p, q) -> (kind, lam values)
CLASSICAL_EXPECTED = {
    (0, 1): ("all", ()),
    (0, 2): ("finite", ("1",)),
    (0, 3): ("finite", ("2",)),
    (1, 3): ("all", ()),
    (0, 4): ("none", ()),
    (1, 4): ("none", ()),
    (2, 3): ("finite", ("3",)),
    (3, 4): ("finite", ("5",)),
}


def _symbol_id(terms, weight: int) -> str:
    parts = [f"det({p},{q})" if c == 1 else f"{c}*det({p},{q})" for c, p, q in terms]
    return " + ".join(parts) + f"@{weight}"


def symbol_item(op: str, terms, weight: int) -> Dict:
    terms = [list(t) for t in terms]
    return {"id": f"{op}:{_symbol_id(terms, weight)}", "op": op, "terms": terms,
            "weight": weight}


def combo_items(op: str, slots, pool) -> List[Dict]:
    """Every member of every slot's pool (the reference covers these)."""
    out = []
    for (p1, q1), (p2, q2) in slots:
        for a, b in pool:
            out.append(symbol_item(op, [(a, p1, q1), (b, p2, q2)], p1 + q1 - 2))
    return out


def _draw_combos(rng: random.Random, op: str, slots, pool) -> List[Dict]:
    out = []
    for (p1, q1), (p2, q2) in slots:
        a, b = rng.choice(pool)
        out.append(symbol_item(op, [(a, p1, q1), (b, p2, q2)], p1 + q1 - 2))
    return out


def _axiom_items(rng: random.Random) -> List[Dict]:
    out = []
    for i in range(AXIOM_CHECKS):
        lam = rng.choice((0, 1, 2, 5, rng.randint(-3, 9)))
        density = {}
        for _ in range(4):
            density[rng.randint(-6, 6)] = str(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
        fields = []
        for _ in range(2):
            fld = {}
            for _ in range(2):
                fld[rng.randint(-4, 4)] = rng.randint(-5, 5) or 1
            fields.append(sorted(fld.items()))
        out.append({"id": f"axiom:{i}", "op": "axiom", "lam": lam,
                    "density": sorted(density.items()), "x": fields[0], "y": fields[1]})
    return out


def make_items(workload: str, seed: int) -> List[Dict]:
    """The inputs of one workload process for this seed."""
    if workload not in PHASES:
        raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    items = []
    for phase in PHASES[workload]:
        for item in phase_items(phase, random.Random(f"{phase}/{seed}")):
            items.append(dict(item, phase=phase))
    return items


def phase_items(phase: str, rng: random.Random) -> List[Dict]:
    if phase == "verify-cli":
        items = [{"id": f"cli:verify {s}", "op": "cli",
                  "argv": ["verify", "--suite", s, "--json", "{out}/" + s + ".json"],
                  "json_out": s + ".json"} for s in VERIFY_SUITES]
        items += [{"id": f"global:{n}", "op": "global", "name": n, "weight": w}
                  for n, w in GLOBAL_ROWS]
        items += [{"id": f"covariant:{n}", "op": "covariant", "name": n}
                  for n in COVARIANT_ROWS]
        items += [{"id": f"cli:globalize {s} {w}", "op": "cli",
                   "argv": ["globalize", "--symbol", s, "--weight", str(w)]}
                  for s, w in GLOBALIZE_CLI]
        return items
    if phase == "globalize-sweep":
        items = [symbol_item("solve", [(1, p, q)], p + q - 2) for p, q in GLOBALIZE_DETS]
        return items + _draw_combos(rng, "solve", GLOBALIZE_SLOTS, COEFF_POOL)
    if phase == "lambda-sweep":
        items = [symbol_item("lambda", [(1, p, q)], p + q - 2)
                 for q in range(1, LAMBDA_MAX_Q + 1) for p in range(q)]
        return items + _draw_combos(rng, "lambda", LAMBDA_SLOTS, LAMBDA_POOL)
    if phase == "laurent-windows":
        items = [{"id": f"suite:{s}", "op": "suite", "suite": s, "window": LAURENT_WINDOW}
                 for s in ("witt", "nontrivial")]
        return items + _axiom_items(rng)
    raise KeyError(f"unknown phase {phase!r}")


# -- worker side: everything below runs with jetcocycles imported -----------


def _symbol(terms, cap=None):
    import jetcocycles as J

    expr = None
    for c, p, q in terms:
        d = (J.det_cochain(p, q) if cap is None else J.det_cochain(p, q, cap)).coeff
        piece = d if c == 1 else d * c
        expr = piece if expr is None else expr + piece
    return expr


def run_item(item: Dict, outdir: str):
    """Execute one item through the public API; returns its JSON-able verdict."""
    import jetcocycles as J
    from jetcocycles import cli

    op = item["op"]
    if op == "cli":
        argv = [a.replace("{out}", outdir) for a in item["argv"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": buf.getvalue()}
    if op == "global":
        res = J.is_global(J.catalogue(item["name"], "connection"), item["weight"])
        return {"status": res.verdict, "residual": "" if res.ok else J.to_text(res.residual)}
    if op == "covariant":
        res = J.covariant_equivalence(item["name"])
        return {"status": res.verdict, "residual": "" if res.ok else J.to_text(res.residual)}
    if op == "solve":
        result = J.solve_corrections(_symbol(item["terms"]), weight=item["weight"])
        out = {"feasible": result.feasible, "dimension": result.dimension,
               "ansatz": len(result.ansatz)}
        if result.feasible:
            rep = result.representative
            out["rep"] = J.to_text(rep.coeff)
            out["global"] = J.is_global(rep).ok
            out["closed"] = J.ce_differential(rep).is_zero()
        return out
    if op == "lambda":
        terms = item["terms"]
        if len(terms) == 1 and terms[0][0] == 1:
            c = J.det_cochain(terms[0][1], terms[0][2], LAMBDA_CAP)
        else:
            c = J.Cochain2(_symbol(terms, LAMBDA_CAP), item["weight"], J.LamPoly.lam())
        v = J.lambda_solutions(c, LAMBDA_CAP)
        return {"kind": v.kind, "values": [str(x) for x in v.values],
                "trivial": v.trivial_action_pass}
    if op == "suite":
        records = J.run_suite(item["suite"], window=item["window"])
        return {"json": J.emit_report(records, "json")}
    if op == "axiom":
        lam = item["lam"]
        a = J.LaurentDensity.of({s: Fraction(c) for s, c in item["density"]}, lam)
        x = J.WittField.of({m + 1: c for m, c in item["x"]})
        y = J.WittField.of({m + 1: c for m, c in item["y"]})
        act = J.laurent_action
        lhs = act(x, act(y, a)) - act(y, act(x, a))
        lx = act(x, a)
        return {"axiom": lhs == act(x.bracket(y), a),
                "lx": [[s, str(c)] for s, c in lx.coeffs]}
    raise KeyError(f"unknown item op {op!r}")


def post_checks(verdicts: Dict) -> Dict[str, bool]:
    """Fixed expectations that are not taken from the reference files.

    Runs after the timed region: the catalogued connection forms are the
    canonical representatives the solver must reproduce.
    """
    import jetcocycles as J

    def rep_is(verdict, name):
        return (verdict is not None and verdict.get("feasible")
                and J.parse_expr(verdict["rep"]) == J.catalogue(name, "connection").coeff)

    out = {}
    if "solve:det(1,2)@1" in verdicts:
        out["det(1,2)@1 == DERIVED_C1"] = bool(rep_is(verdicts["solve:det(1,2)@1"], "c1"))
        out["det(1,3)@2 == DERIVED_C2"] = bool(rep_is(verdicts.get("solve:det(1,3)@2"), "c2"))
    if "cli:globalize det(3,4) 5" in verdicts:
        text = verdicts["cli:globalize det(3,4) 5"]["stdout"]
        line = [ln for ln in text.splitlines() if ln.startswith("canonical representative: ")]
        out["det(3,4)@5 == DERIVED_C5"] = bool(line) and J.parse_expr(
            line[0].split(": ", 1)[1]) == J.catalogue("c5", "connection").coeff
    return out


def reference_path(root: str, workload: str) -> str:
    return os.path.join(root, "perfbench", "reference", workload + ".json")
