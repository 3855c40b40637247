"""Bilinear 2-cochains on vector fields and the Chevalley-Eilenberg check.

The catalogue collects the classical generators in four shapes:

    flat        pure-jet determinant combinations,
    connection  corrected with affine/projective connection symbols so the
                chart-transform check passes: the representative of the
                correction solver (jetcocycles.charts.derive) at the
                generator's own module parameter; where a commonly printed
                variant fails the check, the failing variant is kept in
                PRINTED_CONNECTION_VARIANTS, which the test suite checks and
                no report record uses,
    covariant   the same objects written through the covariant derivative,
    omega       the barred families' connection forms tensored with a
                background 1-form.

Only the flat forms are stored; the rest is read from them by one grading
rule (_build) or derived on first lookup, so a flat lookup never solves.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Dict, Optional, Tuple, Union

from .expr import (
    DEFAULT_ORDER_CAP,
    _RANK,
    Coef,
    DiffExpr,
    _coef,
    _has_lam,
    check_order_cap,
    euler_derivative,
    jet,
    substitute_jets,
    total_derivative,
)
from ._record import Record
from .calculus import bracket, lie_action, nabla_power
from .lampoly import LamPoly, Rat, _rat, gcd_all, rational_roots


def _module(coeff: DiffExpr, module_lambda) -> Optional[Coef]:
    """module_lambda in the stored-coefficient form (expr._coef): a concrete
    module is a ``_rat`` rational, a symbolic one a LamPoly of degree >= 1,
    and None the trivial action and nothing else.  Beside a concrete or
    trivial module a free lam in the coefficient would be a second,
    unsubstituted module parameter, so it is refused."""
    module_lambda = None if module_lambda is None else _coef(module_lambda)
    if type(module_lambda) is not LamPoly and _has_lam(coeff):
        raise ValueError("lam in the coefficient needs a symbolic module parameter")
    return module_lambda


# argument -> its jets of order 0..n, one table per process, for the six
# arguments a cochain on f, g, k is evaluated at: f, g and k themselves, and
# the brackets [f,g], [f,k] and [g,k]; grown by _arg_jets only
_ARG_JETS: Dict[str, Tuple[DiffExpr, ...]] = {}


def _arg_jets(arg: str, top: int) -> Tuple[DiffExpr, ...]:
    """The jets of order 0..top (at least) of an argument: jet(arg, n) for
    a family, and for a bracket "[x,y]" the n-th total derivative of
    [x, y] = x y' - x' y, each one derivative of the one before."""
    jets = _ARG_JETS.get(arg, ())
    if len(jets) <= top:
        if len(arg) == 1:
            jets = tuple(jet(arg, n) for n in range(top + 1))
        else:
            grown = list(jets) or [bracket(jet(arg[1], 0), jet(arg[3], 0))]
            while len(grown) <= top:
                grown.append(total_derivative(grown[-1]))
            jets = tuple(grown)
        _ARG_JETS[arg] = jets
    return jets


def _insert(coeff: DiffExpr, args: Dict[str, str]) -> DiffExpr:
    """coeff with each slot family (f, g) read at its argument: slot[n] is
    replaced by the argument's n-th jet, from the one table _arg_jets."""
    table = {}
    for slot, arg in args.items():
        rank, top = _RANK[slot], coeff.max_order(slot)
        table.update(((rank, n), j) for n, j in enumerate(_arg_jets(arg, top)[:top + 1]))
    return substitute_jets(coeff, table)


class Cochain1(Record):
    """Linear 1-cochain on vector fields, written in the f jets; value_weight
    and module_lambda as for Cochain2."""

    __slots__ = ("coeff", "value_weight", "module_lambda")

    def __init__(self, coeff: DiffExpr, value_weight: Rat, module_lambda: Optional[Coef]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "value_weight", _rat(value_weight))
        object.__setattr__(self, "module_lambda", _module(coeff, module_lambda))
        if coeff.degree_in("f") - {1}:
            raise ValueError("1-cochain must be linear in the f jets")


# Cochain2's default module: a fresh LamPoly.lam() per cochain
_FRESH_LAM = object()


class Cochain2(Record):
    """Antisymmetric bilinear 2-cochain in the f and g jet families.

    value_weight is the density grading of the values (what the chart
    transform tests), a ``_rat`` rational; module_lambda is the action
    parameter (what the cocycle identity uses), in the one form of _module:
    a ``_rat`` rational (``LamPoly.const(2)`` is stored as ``2``), a LamPoly
    of degree >= 1, or None for the trivial action, where the values pair
    to constants and the action is dropped.  A float is a TypeError.  Only
    a symbolic module leaves lam in the coefficient; at_lambda substitutes a
    value into both.
    """

    __slots__ = ("coeff", "value_weight", "module_lambda")

    def __init__(self, coeff: DiffExpr, value_weight: Rat,
                 module_lambda: Optional[Coef] = _FRESH_LAM):
        if module_lambda is _FRESH_LAM:
            module_lambda = LamPoly.lam()
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "value_weight", _rat(value_weight))
        object.__setattr__(self, "module_lambda", _module(coeff, module_lambda))
        if coeff.degree_in("f") - {1} or coeff.degree_in("g") - {1}:
            raise ValueError("2-cochain must be bilinear in the f and g jets")
        if not (_insert(coeff, {"f": "g", "g": "f"}) + coeff).is_zero():
            raise ValueError("2-cochain must be antisymmetric under f <-> g")

    @property
    def trivial_action(self) -> bool:
        return self.module_lambda is None

    def is_symbolic(self) -> bool:
        return type(self.module_lambda) is LamPoly

    def at_lambda(self, lam_value: Union[Rat, LamPoly]) -> "Cochain2":
        """The cochain in the module F_lam_value, with lam_value substituted
        for lam in the coefficient; a constant LamPoly reads as its value."""
        lam_value = _coef(lam_value)
        if type(lam_value) is LamPoly:
            raise TypeError("at_lambda needs a concrete module parameter, not a LamPoly in lam")
        return Cochain2(self.coeff.subst_lambda(lam_value), self.value_weight, lam_value)


def coeff_and_weight(target: Union[Cochain2, DiffExpr],
                     weight: Optional[int]) -> Tuple[DiffExpr, int]:
    """The coefficient of a Cochain2 or of a bare expression, with its
    weight: a Cochain2 defaults to its value weight, a bare expression
    needs one."""
    if isinstance(target, Cochain2):
        return target.coeff, target.value_weight if weight is None else weight
    if weight is None:
        raise ValueError("weight is required for a bare expression")
    return target, weight


def det_expr(p: int, q: int) -> DiffExpr:
    if p >= q:
        raise ValueError(f"det({p},{q}) needs p < q")
    return jet("f", p) * jet("g", q) - jet("f", q) * jet("g", p)


def _derivative_counts(coeff: DiffExpr) -> set:
    """The derivative counts a + b over the monomials f^(a) g^(b) of a
    coefficient (each monomial's jet orders summed)."""
    return {sum(order * e for (_rank, order), e in mono) for mono, _c in coeff.terms()}


def det_cochain(p: int, q: int, cap: int = DEFAULT_ORDER_CAP) -> Cochain2:
    """The determinant block |f^(p) g^(p); f^(q) g^(q)| with weight p+q-2;
    q above cap raises OrderCapExceeded (cap bounds the input only)."""
    return Cochain2(check_order_cap(det_expr(p, q), cap), p + q - 2, LamPoly.lam())


def ce_parts(coeff: DiffExpr, arity: int,
             lam: Optional[Coef]) -> Tuple[DiffExpr, DiffExpr]:
    """(bracket insertions, delta c) of a 1- or 2-cochain on x_i = f, g[, k]:

        delta c = sum_{i<j} (-1)^(i+j) c([x_i,x_j], ...) + sum_i (-1)^i L_{x_i} c(...).

    The insertions alone are the trivial-action differential (lam None); the
    action L_x a = x a' + lam x' a adds a part linear in lam.  Each value
    c(...) reads its arguments' jets, the brackets' prolongations included,
    from the one process-wide table of _arg_jets, so no bracket is
    prolonged twice in a process.
    """
    fams = "fgk"[:arity + 1]

    def value(*args):
        # c(args); a slot keeping its own family is left as it is
        bindings = {slot: arg for slot, arg in zip("fg", args) if arg != slot}
        return _insert(coeff, bindings) if bindings else coeff

    insertions = DiffExpr.zero()
    for (i, x), (j, y) in itertools.combinations(enumerate(fams), 2):
        term = value(f"[{x},{y}]", *fams.replace(x, "").replace(y, ""))
        insertions = insertions - term if (i + j) % 2 else insertions + term
    if lam is None:
        return insertions, insertions
    delta = insertions
    for i, x in enumerate(fams):
        term = lie_action(jet(x, 0), value(*fams.replace(x, "")), lam)
        delta = delta - term if i % 2 else delta + term
    return insertions, delta


def _exact_class(delta: DiffExpr) -> DiffExpr:
    """delta, linear in k, modulo total derivatives: delta = k E_k(delta) + D(...)."""
    return jet("k", 0) * euler_derivative(delta, "k")


def ce_differential(c: Cochain2) -> DiffExpr:
    """delta c (f,g,k); zero iff c is a 2-cocycle for its module.

    The full differential adds to the bracket insertions a part linear in
    the module parameter (see ce_parts); under the trivial action the
    insertions are read modulo total derivatives, through _exact_class.
    """
    delta = ce_parts(c.coeff, 2, c.module_lambda)[1]
    return _exact_class(delta) if c.trivial_action else delta


class LambdaVerdict(Record):
    """Solution set of the cocycle identity in the module parameter: kind is
    "all", "none" or "finite", values is nonempty iff kind is "finite", and
    trivial_action_pass says the insertions are a total derivative."""

    __slots__ = ("kind", "values", "trivial_action_pass")

    def __init__(self, kind: str, values: Tuple[Rat, ...], trivial_action_pass: bool):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "trivial_action_pass", trivial_action_pass)

    def describe(self) -> str:
        if self.kind == "all":
            base = "cocycle for every lam"
        elif self.kind == "none":
            base = "never a cocycle"
        else:
            base = "cocycle only for lam in {" + ", ".join(map(str, self.values)) + "}"
        if self.trivial_action_pass:
            base += "; cocycle under trivial action"
        return base


def lambda_solutions(c: Cochain2, cap: int = DEFAULT_ORDER_CAP) -> LambdaVerdict:
    """All module parameters for which delta c vanishes identically.

    One ce_parts pass gives both: the trivial-action verdict asks whether
    the bracket insertions are an exact total derivative (the values-in-
    constants reading on the circle, _exact_class); the full differential
    adds a part linear in lam, solved as the common rational roots (gcd
    over Q[lam]) of its coefficient polynomials.  cap bounds the jet orders
    of c only (OrderCapExceeded); the variational derivative goes beyond them.
    """
    if not c.is_symbolic():
        raise ValueError("lambda_solutions needs a symbolic module parameter")
    insertions, delta = ce_parts(check_order_cap(c.coeff, cap), 2, c.module_lambda)
    trivial_pass = _exact_class(insertions).is_zero()
    if delta.is_zero():
        return LambdaVerdict("all", (), trivial_pass)
    coeffs = [coef for _mono, coef in delta.terms()]
    # a stored rational is a nonzero constant, which no value of lam kills
    symbolic = all(type(coef) is LamPoly for coef in coeffs)
    roots = tuple(rational_roots(gcd_all(coeffs))) if symbolic else ()
    return LambdaVerdict("finite" if roots else "none", roots, trivial_pass)


def coboundary(b: Cochain1) -> Cochain2:
    """delta b (f,g) = L_f b(g) - L_g b(f) - b([f,g]); always a cocycle."""
    lam = b.module_lambda
    return Cochain2(ce_parts(b.coeff, 1, lam)[1], b.value_weight, lam)


# -- catalogue ----------------------------------------------------------

_ALIASES = {
    "c̄₀": "cbar0", "c̄0": "cbar0", "cbar_0": "cbar0",
    "c₀^ω-integrand": "c0w", "c0^w-integrand": "c0w", "c0w-integrand": "c0w",
    "c₁": "c1", "c̄₁": "cbar1", "c̄1": "cbar1", "cbar_1": "cbar1",
    "c₂": "c2", "c̄₂": "cbar2", "c̄2": "cbar2", "cbar_2": "cbar2",
    "c₅": "c5", "c₇": "c7",
}

FORMS = ("flat", "connection", "covariant", "omega")

_T0 = jet("T", 0)
_R0 = jet("R", 0)
_R1 = jet("R", 1)
_R2 = jet("R", 2)
_HALF = Fraction(1, 2)

# literal connection variants as commonly printed; kept only so the test
# suite can show that they miss the transform law (c1 and c2 each carry one
# flipped sign on the 0,1-determinant coefficient; c5 differs in the signs
# of the 0,1 / 0,2 / 1,2 blocks, whose weight-consistent coefficients come
# out as 3R'^2-2RR'', +2RR', +4R^2)
PRINTED_CONNECTION_VARIANTS: Dict[str, DiffExpr] = {
    "c1": det_expr(1, 2) - _T0 * det_expr(0, 2) + (_R0 - _HALF * _T0 ** 2) * det_expr(0, 1),
    "c2": det_expr(1, 3) - _T0 * det_expr(0, 3) - (2 * _T0 * _R0 - _R1) * det_expr(0, 1),
    "c5": (
        det_expr(3, 4)
        + _R2 * det_expr(0, 3)
        + 3 * _R1 * det_expr(1, 3)
        + 2 * _R0 * det_expr(2, 3)
        + (2 * _R0 * _R1 - 3 * _R1 ** 2) * det_expr(0, 1)
        - 2 * _R0 * _R1 * det_expr(0, 2)
        - _R1 * det_expr(0, 4)
        - 4 * _R0 ** 2 * det_expr(1, 2)
        - 2 * _R0 * det_expr(1, 4)
    ),
}


# name -> flat form, the one stored fact of each generator (see _build)
_FLAT: Dict[str, DiffExpr] = {
    "cbar0": det_expr(0, 1),
    "c0w": _HALF * det_expr(0, 3),
    "c1": det_expr(1, 2),
    "cbar1": det_expr(0, 2),
    "c2": det_expr(1, 3),
    "cbar2": det_expr(0, 3),
    "c5": det_expr(3, 4),
    "c7": 2 * det_expr(3, 6) - 9 * det_expr(4, 5),
}
CATALOGUE_NAMES = tuple(_FLAT)

# the barred generators, which have an omega-paired form
_OMEGA_PAIRED = ("cbar0", "cbar1", "cbar2")


@cache
def _build() -> Dict[Tuple[str, str], Cochain2]:
    """Every stored (name, form) cochain, flat and covariant, built once.

    Only the flat forms are stored.  A flat form of derivative count s has
    value weight s - 2 and, unbarred, that module parameter; a barred one
    reaches its module after tensoring with the 1-form, so it is one higher.
    c0w has the trivial action and no covariant form; cbar0, a cocycle for
    every lam, keeps lam symbolic.  The covariant form replaces each f^(i),
    g^(i) of the flat form by nabla^i f, nabla^i g (weight -1 inputs).
    """
    top = max(flat.max_order("f") for flat in _FLAT.values())
    nabla = {(_RANK[fam], i): nabla_power(jet(fam, 0), -1, i)
             for fam in "fg" for i in range(top + 1)}
    table: Dict[Tuple[str, str], Cochain2] = {}
    for name, flat in _FLAT.items():
        (count,) = _derivative_counts(flat)
        weight = count - 2
        if name == "c0w":
            module = None
        elif name == "cbar0":
            module = LamPoly.lam()
        else:
            module = weight + (name in _OMEGA_PAIRED)
        table[name, "flat"] = Cochain2(flat, weight, module)
        if module is not None:
            table[name, "covariant"] = Cochain2(substitute_jets(flat, nabla), weight, module)
    return table


@cache
def _derived(name: str, form: str) -> Cochain2:
    """The connection form: the representative of charts.derive(name) with
    the flat form's value weight and module parameter (cbar0 stays symbolic,
    c0w trivial); or the omega form, that times the 1-form w, one weight up.
    An infeasible correction solve is a ValueError that names the generator."""
    from .charts import derive  # charts imports this module

    flat = _build()[name, "flat"]
    solved = derive(name)
    if not solved.feasible:
        raise ValueError(f"{name} has no {form} form: the correction solve of its "
                         "flat form is infeasible")
    coeff = solved.representative.coeff
    if form == "connection":
        return Cochain2(coeff, flat.value_weight, flat.module_lambda)
    weight = flat.value_weight + 1
    return Cochain2(coeff * jet("w", 0), weight, weight)


_MISSING = {
    "covariant": "{} has no covariant form",
    "omega": "{} has no omega-paired form",
}


def catalogue(name: str, form: str = "connection") -> Cochain2:
    """Look up a generator in one of its shapes: a stored flat or covariant
    form (see _build), or a connection or omega form derived by the
    correction solver on its first lookup (see _derived)."""
    key = _ALIASES.get(name, name)
    if key not in CATALOGUE_NAMES:
        raise KeyError(f"unknown cocycle name {name!r}")
    if form not in FORMS:
        raise KeyError(f"unknown form {form!r}; expected one of {FORMS}")
    if form == "connection" or (form == "omega" and key in _OMEGA_PAIRED):
        return _derived(key, form)
    try:
        return _build()[key, form]
    except KeyError:
        raise KeyError(_MISSING[form].format(key)) from None
