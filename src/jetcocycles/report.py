"""Verification suites and machine-readable reports.

Each check produces one CheckRecord; a FAIL record always carries the
normalized nonzero residual in expression syntax.  run_suite is
deterministic (fixed check order, no clocks, no randomness), so identical
inputs produce byte-identical JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ._record import Record
from .calculus import action_via_nabla, lie_action
from .charts import _affine_rows, _product_rows, covariant_equivalence, derive, is_global
from .cochains import (
    LAM,
    Cochain1,
    Cochain2,
    Module,
    catalogue,
    ce_differential,
    ce_parts,
    coboundary,
    det_cochain,
    det_expr,
    lambda_solutions,
)
from .expr import DiffExpr, jet
from .linalg import solve_affine
from .syntax import to_text
from .wittmodel import (
    CertificateResult,
    LaurentDensity,
    WittField,
    _require_window,
    kn_value,
    laurent_action,
    nontriviality_certificate,
)

PREAMBLE = """\
conventions
  covariant derivative: nabla a = a' + weight(a)*T*a on weight-w densities
  associated projective connection: R = T' + T^2/2, so R_b*(h')^2 = R_a + S
  Schwarzian: S = h[3]*hinv - 3/2*h[2]^2*hinv^2 = eta' - eta^2/2, eta = h[2]*hinv
  the opposite-sign package (Gamma = -T with R negated) is equivalent; the
  engine fixes signs by the chart covariance requirement
engine-verified discrepancies in commonly printed formulas
  - det(1,2) is a 2-cocycle for every lam (coboundary of f -> f''/(lam-1)
    away from lam=1); the classical "trivial action only" row for it does
    not reproduce, the other eight rows do
  - the catalogued weight-1 and weight-2 connection forms differ from the
    commonly printed ones by one sign each on the det(0,1) coefficient; the
    printed variants fail the transform law (residuals reported)
  - the weight-5 printed coefficient list differs in the signs of the
    det(0,1)/det(0,2)/det(1,2) blocks; the catalogued form is solver-derived
  - the covariant weight-7 generator pairs nabla^3 with nabla^6 (a
    nabla^3/nabla^4 pairing would have weight 5)
  - kn values are normalized to Res_0[(f g''' - g f''')/2]; one global
    scalar is dropped
"""


class CheckRecord(Record):
    """One check's outcome: lam is a rational in lowest terms or "symbolic",
    status one of PASS, FAIL, NONTRIVIAL and INCONCLUSIVE."""

    __slots__ = ("check_id", "description", "lam", "status", "residual", "paper_ref")

    def __init__(self, check_id: str, description: str, lam: str, status: str,
                 residual: str, paper_ref: str):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "paper_ref", paper_ref)
        if status == "FAIL" and not residual:
            raise ValueError("FAIL records must carry a residual")
        if not paper_ref:
            raise ValueError("records must carry a reference note or 'derived'")

    def as_dict(self) -> Dict[str, str]:
        return {
            "check_id": self.check_id,
            "description": self.description,
            "lambda": self.lam,
            "status": self.status,
            "residual": self.residual,
            "paper_ref": self.paper_ref,
        }


def _checked(check_id: str, description: str, lam: str, failure: str,
             ref: str) -> CheckRecord:
    """PASS when there is no failure to report, else FAIL with the failure
    text as residual."""
    return CheckRecord(check_id, description, lam, "FAIL" if failure else "PASS",
                       failure, ref)


def _module_text(module_lambda: Module) -> str:
    """The lambda column: "0" for the trivial action (None), "symbolic" for
    the symbolic module (cochains.LAM), and the value of a concrete one."""
    if module_lambda is None:
        return "0"
    return "symbolic" if module_lambda is LAM else str(module_lambda)


def _zero_check(check_id: str, description: str, module_lambda: Module,
                residual: DiffExpr, ref: str, lam_part: DiffExpr = DiffExpr.zero()
                ) -> CheckRecord:
    """PASS when the residual residual + lam * lam_part vanishes, which for
    a symbolic lam means both parts do; else FAIL with it as text."""
    if lam_part.is_zero():
        failure = "" if residual.is_zero() else to_text(residual)
    else:
        failure = f"{to_text(residual)} + lam*({to_text(lam_part)})"
    return _checked(check_id, description, _module_text(module_lambda), failure, ref)


# -- theorem1: cocycle identities ---------------------------------------


def _closed_record(name: str, form: str, description: str, ref: str) -> CheckRecord:
    """The cocycle identity of a catalogued form: delta c at a concrete or
    trivial module, both parts of the pencil X + lam Y at the symbolic one."""
    c = catalogue(name, form)
    if c.is_symbolic():
        residual, lam_part = ce_parts(c.coeff, 2, c.module_lambda)
    else:
        residual, lam_part = ce_differential(c), DiffExpr.zero()
    return _zero_check(f"theorem1.{name}.{form}", description, c.module_lambda,
                       residual, ref, lam_part)


def suite_theorem1() -> List[CheckRecord]:
    out = [_closed_record(name, "flat",
                          f"flat form of {name} satisfies the cocycle identity",
                          "generator catalogue")
           for name in ("cbar0", "c1", "cbar1", "c2", "cbar2", "c5", "c7")]
    out.append(_ratio_record())
    out.extend(_closed_record(
        name, "connection",
        f"connection form of {name} stays a cocycle with T, R background",
        "corrected generator") for name in ("c1", "cbar1", "c2", "cbar2", "c5"))
    out.extend(_closed_record(
        name, "omega",
        f"1-form-paired family {name} stays a cocycle with w background",
        "1-form pairing") for name in ("cbar0", "cbar1", "cbar2"))
    return out


def _ratio_record() -> CheckRecord:
    """The flat weight-7 combination is forced up to scale (2 : -9)."""
    rows, one = {}, DiffExpr.one()
    for i, (p, q) in enumerate(((3, 6), (4, 5))):
        _product_rows(ce_differential(Cochain2(det_expr(p, q), 7, 7)), one, 0, i, rows)
    solution = solve_affine(_affine_rows(rows), 2)
    ok = (solution is not None and solution.dimension == 1)
    if ok:
        vec = solution.nullspace[0]
        a, b = vec.get(0, 0), vec.get(1, 0)
        ok = a != 0 and Fraction(b) / a == Fraction(-9, 2)
    return _checked(
        "theorem1.c7.ratio",
        "solution space of a*det(3,6)+b*det(4,5) being a lam=7 cocycle is "
        "one-dimensional, spanned by the 2:-9 combination",
        "7", "" if ok else "unexpected solution space", "derived")


# -- table3: the nine determinant rows -----------------------------------

CLASSICAL_TABLE = {
    (0, 1): ("all", ()),
    (0, 2): ("finite", (Fraction(1),)),
    (0, 3): ("finite", (Fraction(2),)),
    (1, 2): ("none+trivial", ()),
    (1, 3): ("all", ()),
    (0, 4): ("none", ()),
    (1, 4): ("none", ()),
    (2, 3): ("finite", (Fraction(3),)),
    (3, 4): ("finite", (Fraction(5),)),
}


def suite_table3() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    for (p, q), (expected_kind, expected_values) in CLASSICAL_TABLE.items():
        verdict = lambda_solutions(det_cochain(p, q))
        if expected_kind == "none+trivial":
            ok = verdict.kind == "none" and verdict.trivial_action_pass
        else:
            ok = verdict.kind == expected_kind and verdict.values == expected_values
        residual = ""
        if not ok:
            residual = (f"computed: {verdict.describe()}; classical table row: "
                        f"{expected_kind} {tuple(map(str, expected_values))}")
            if (p, q) == (1, 2):
                residual += ("; det(1,2) is exactly the coboundary of "
                             "b(f) = f[2]/(lam-1) for lam != 1")
        out.append(_checked(
            f"table3.det{p}{q}",
            f"cocycle solution set of det({p},{q}): {verdict.describe()}",
            "symbolic", residual, "determinant cochain table"))
    return out


# -- global: chart covariance --------------------------------------------

def suite_global() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    for name in ("cbar0", "cbar1", "c1", "cbar2", "c2", "c5", "c0w"):
        c = catalogue(name, "connection")
        out.append(_zero_check(
            f"global.{name}",
            f"connection form of {name} transforms as a weight {c.value_weight} density",
            c.module_lambda, is_global(c).residual, "transformation check"))
    c7 = derive("c7")
    rep = c7.representative
    ok = (c7.feasible and is_global(rep).ok
          and ce_differential(rep).is_zero())
    out.append(_checked(
        "global.c7.derived",
        ("derived weight-7 connection form (solution space dimension "
         f"{c7.dimension}): {to_text(rep.coeff) if rep else 'none'}"),
        "7", "" if ok else "derived form failed verification", "derived"))
    return out


# -- covariant: equivalence of formulations -------------------------------


def suite_covariant() -> List[CheckRecord]:
    out: List[CheckRecord] = []
    for name in ("c1", "cbar1", "c2", "cbar2", "c5", "c7"):
        out.append(_zero_check(
            f"covariant.{name}",
            f"covariant form of {name} equals the connection form under "
            "R = T' + T^2/2",
            catalogue(name, "covariant").module_lambda,
            covariant_equivalence(name).residual, "covariant formulation"))
    at_zero, at_one = (_action_residual(lam) for lam in (0, 1))
    out.append(_zero_check(
        "covariant.action",
        "f*nabla(a) + lam*nabla(f)*a equals f*a' + lam*f'*a identically",
        LAM, at_zero, "covariant action", at_one - at_zero))
    return out


def _action_residual(lam: int) -> DiffExpr:
    """The two forms of the action subtracted at one lam, on a density
    carried by w; affine in lam, so lam = 0 and 1 decide every lam."""
    f0, w0 = jet("f", 0), jet("w", 0)
    return action_via_nabla(f0, w0, lam) - lie_action(f0, w0, lam)


# -- witt: Laurent realization --------------------------------------------


def suite_witt(window: int = 6) -> List[CheckRecord]:
    _require_window(window)
    out: List[CheckRecord] = []
    base = kn_value(2, -2)
    out.append(_checked(
        "witt.kn.normalization", "kn_value(2,-2) = -6 under the residue pairing",
        "0", "" if base == Fraction(-6) else f"got {base}", "residue pairing"))
    for m in range(1, 11):
        v = kn_value(m, -m)
        expected = Fraction(-(m ** 3 - m))
        ok = v == expected and (m < 2 or v * 6 == base * (m ** 3 - m))
        out.append(_checked(
            f"witt.kn.m{m}",
            f"kn_value({m},{-m}) = -(m^3-m) = {expected}",
            "0", "" if ok else f"got {v}", "residue pairing"))
    off = [(m, n) for m in range(-4, 5) for n in range(-4, 5) if m + n != 0]
    bad = [(m, n) for m, n in off if kn_value(m, n) != 0]
    out.append(_checked(
        "witt.kn.offdiagonal", "kn_value vanishes off the line m+n=0",
        "0", f"nonzero at {bad[:3]}" if bad else "", "residue pairing"))
    out.extend(_module_axiom_records())
    out.append(_kn_cocycle_record(window))
    return out


def _module_axiom_records() -> List[CheckRecord]:
    return [_checked(
        f"witt.module-axiom.lam{lam}",
        "L_f L_g - L_g L_f = L_[f,g] on a Laurent density of weight "
        f"{lam}, all |m|,|n| <= 3",
        str(lam), _module_axiom_failure(lam), "module structure") for lam in (0, 1, 2, 5)]


def _module_axiom_failure(lam: int) -> str:
    """The first (m, n), in loop order, where the module axiom fails at
    weight lam, named; "" when it holds on the whole window."""
    a = LaurentDensity.of({-2: Fraction(1, 2), 0: 3, 3: Fraction(-2, 7)}, lam)
    rng = range(-3, 4)
    x = {n: WittField.basis(n) for n in rng}
    once = {n: laurent_action(x[n], a) for n in rng}
    twice = {(m, n): laurent_action(x[m], once[n]) for m in rng for n in rng}
    for m in rng:
        for n in rng:
            if twice[m, n] - twice[n, m] != laurent_action(x[m].bracket(x[n]), a):
                return f"module axiom fails at L_{m}, L_{n}, weight {lam}"
    return ""


def _kn_cocycle_record(window: int) -> CheckRecord:
    return _checked(
        "witt.kn.cocycle",
        "residue-paired values satisfy the trivial-action cocycle identity "
        f"for |m|,|n|,|p| <= {window}",
        "0", _kn_cocycle_failure(window), "derived")


def _kn_cocycle_failure(window: int) -> str:
    """The first (m, n, p), in loop order, where the residue-paired values
    break the cocycle identity, named; "" when none does."""
    rng = range(-window, window + 1)
    # the identity reads kn at |a| <= 2 window, |b| <= window, each once
    kn = {(a, b): kn_value(a, b) for a in range(-2 * window, 2 * window + 1) for b in rng}
    for m in rng:
        for n in rng:
            for p in rng:
                if (p - m) * kn[m + p, n] != (n - m) * kn[m + n, p] + (p - n) * kn[n + p, m]:
                    return f"cocycle identity fails at ({m},{n},{p})"
    return ""


# -- nontrivial: graded certificates --------------------------------------


def suite_nontrivial(window: int = 6) -> List[CheckRecord]:
    out: List[CheckRecord] = []
    kn = nontriviality_certificate(catalogue("c0w", "flat"), window=window)
    out.append(_required_certificate(
        "nontrivial.kn", "graded coboundary system for the residue-paired "
        "cocycle is infeasible", kn))
    c5 = nontriviality_certificate(catalogue("c5", "flat"), window=window)
    out.append(_required_certificate(
        "nontrivial.c5", "graded coboundary system for the weight-5 "
        "generator is infeasible", c5))
    for j, lam in ((2, 0), (1, 1), (3, 5)):
        cert = nontriviality_certificate(coboundary(Cochain1(jet("f", j), lam, lam)),
                                         window=window)
        out.append(CheckRecord(
            f"nontrivial.coboundary.f{j}.lam{lam}",
            f"delta(f -> f[{j}]) at lam={lam} is detected as possibly trivial",
            _module_text(cert.module_lambda), cert.verdict, "", "derived"))
    return out


def _required_certificate(check_id: str, description: str,
                          cert: CertificateResult) -> CheckRecord:
    """A generator must be certified NONTRIVIAL; anything else is a FAIL."""
    residual = "" if cert.ok else (
        f"certificate {cert.verdict} on window {cert.window}: the graded "
        "coboundary system is feasible there")
    return CheckRecord(check_id, description, _module_text(cert.module_lambda),
                       cert.verdict if cert.ok else "FAIL", residual,
                       "restriction argument, desk-scale replacement")


# -- runner ----------------------------------------------------------------

# suite name -> records for a window; "all" runs them in this order
_SUITE_FUNCTIONS = {
    "theorem1": lambda window: suite_theorem1(),
    "table3": lambda window: suite_table3(),
    "global": lambda window: suite_global(),
    "covariant": lambda window: suite_covariant(),
    "witt": suite_witt,
    "nontrivial": suite_nontrivial,
}
SUITES = ("all",) + tuple(_SUITE_FUNCTIONS)


def run_suite(suite: str, window: int = 6) -> List[CheckRecord]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; expected one of {SUITES}")
    _require_window(window)
    names = _SUITE_FUNCTIONS if suite == "all" else (suite,)
    return [record for name in names for record in _SUITE_FUNCTIONS[name](window)]


def any_fail(records: Sequence[CheckRecord]) -> bool:
    return any(r.status == "FAIL" for r in records)


def render_json(records: Sequence[CheckRecord]) -> str:
    return json.dumps([r.as_dict() for r in records], indent=2, ensure_ascii=False) + "\n"


def render_text(records: Sequence[CheckRecord], preamble: bool = True) -> str:
    lines: List[str] = []
    if preamble:
        lines.append(PREAMBLE)
    width = max((len(r.check_id) for r in records), default=10)
    for r in records:
        lines.append(f"{r.check_id:<{width}}  {r.status:<12} lam={r.lam:<9} {r.description}")
        if r.residual:
            lines.append(f"{'':<{width}}  residual: {r.residual}")
    fails = sum(1 for r in records if r.status == "FAIL")
    passes = sum(1 for r in records if r.status == "PASS")
    other = len(records) - fails - passes
    lines.append(f"-- {passes} PASS, {fails} FAIL, {other} other")
    return "\n".join(lines) + "\n"


def emit_report(records: Sequence[CheckRecord], format: str = "json",
                path: Optional[str] = None) -> str:
    """Write the report; returns the rendered text.  JSON is a bare array of
    records (keys in contract order), so the convention preamble appears in
    the text format only."""
    if format == "json":
        text = render_json(records)
    elif format == "text":
        text = render_text(records)
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
