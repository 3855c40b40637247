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

Only the flat forms are stored, and _build reads their weights and modules
by one grading rule; every other shape is built from them on its first
lookup, so a flat lookup builds no covariant form and never solves.

The CE differential (ce_parts) reads a cochain as a sum of backgrounds m,
monomials in the non-slot jets (T, R, w, h, hinv), times slot blocks s:
f^(p) in a 1-cochain, det(p,q) in a 2-cochain.  The action differentiates
m too, so delta goes through each term by Leibniz,

    delta(m s) = m delta s + D(m) (f s(g,k) - g s(f,k) + k s(f,g)),

(f s(g) - g s(f) for a 1-cochain), and delta s = I + A + lam B splits into
the bracket insertions I, the lam-free action part A and the part B linear
in lam, which _ce_pieces keeps per block.  Under the trivial action a
2-cochain is closed iff its insertions are a total derivative, and their
class k E_k(sum m I) is taken block by block with the higher Euler
operators (_trivial_class).  Coefficients are rational, so at the symbolic
module delta is a linear pencil in lam.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Dict, Optional, Tuple, Union

from .expr import (
    DEFAULT_ORDER_CAP,
    _RANK,
    Atom,
    DiffExpr,
    Monomial,
    _ZERO,
    _expr,
    _derivative_into,
    _mul_into,
    check_order_cap,
    jet,
    substitute_jets,
    total_derivative,
)
from ._record import Record
from .calculus import covariant_derivative
from .lampoly import LamPoly, Rat, _rat

# the symbolic module parameter
LAM = LamPoly.lam()

# a module parameter: a rational, the symbolic LAM, or None (trivial action)
Module = Union[Rat, LamPoly, None]


def _module(module_lambda) -> Module:
    """A module parameter in its one form: None (the trivial action) stays,
    a LamPoly equal to lam is the symbolic LAM, a constant LamPoly reads as
    its value, and an exact rational becomes its ``_rat`` form.  Any other
    LamPoly is a ValueError, a float or other non-rational a TypeError."""
    if module_lambda is None:
        return None
    if type(module_lambda) is LamPoly:
        if module_lambda.is_constant():
            return module_lambda.eval(0)
        if module_lambda != LAM:
            raise ValueError(f"a symbolic module parameter must be lam itself, got "
                             f"{module_lambda!r}")
        return LAM
    return _rat(module_lambda)


_F, _G, _K = _RANK["f"], _RANK["g"], _RANK["k"]

# a slot block: (p,) for f^(p) in a 1-cochain, (p, q) for det(p,q) in a 2-cochain
_Block = Tuple[int, ...]

# arity -> the (rank, exponent) of the slot atoms a monomial starts with
_SLOT_HEADS = {1: [(_F, 1)], 2: [(_F, 1), (_G, 1)]}


@cache
def _ce_pieces(block: _Block) -> Tuple[DiffExpr, DiffExpr, DiffExpr, DiffExpr]:
    """The pieces of the CE differential of a block s on x_0, x_1[, x_2] =
    f, g[, k], each value s(...) at the other arguments:

        I   = sum_{i<j} (-1)^(i+j) s([x_i,x_j], ...),   the bracket insertions,
        A   = sum_i (-1)^i x_i D(s(...)),                the lam-free action part,
        B   = sum_i (-1)^i x_i' s(...),                  the part linear in lam,
        alt = sum_i (-1)^i x_i s(...),

    so that delta s = I + A + lam B, read term by term from the terms of s,
    with the bracket's jets D^n [x,y] = sum_a (C(n,a) - C(n,a-1)) x^(a)
    y^(n+1-a)."""
    n = len(block) + 1
    terms = [(1, block)] if n == 2 else [(1, block), (-1, block[::-1])]
    pieces = insertions, action, linear, alternating = {}, {}, {}, {}

    def add(piece, c, orders):
        key = tuple(orders)
        piece[key] = piece.get(key, 0) + c

    for i, j in itertools.combinations(range(n), 2):
        rest = [r for r in range(n) if r not in (i, j)]
        for c, (o, *others) in terms:
            c = -c if (i + j) % 2 else c
            orders = [0] * n
            for r, order in zip(rest, others):
                orders[r] = order
            for a in range(o + 2):
                b = math.comb(o, a) - (math.comb(o, a - 1) if a else 0)
                if b:
                    orders[i], orders[j] = a, o + 1 - a
                    add(insertions, b * c, orders)
    for i in range(n):
        rest = [r for r in range(n) if r != i]
        for c, block_orders in terms:
            c = -c if i % 2 else c
            orders = [0] * n
            for r, order in zip(rest, block_orders):
                orders[r] = order
            add(alternating, c, orders)
            for r in rest:
                orders[r] += 1
                add(action, c, orders)
                orders[r] -= 1
            orders[i] = 1
            add(linear, c, orders)
    # one (atom, exponent) pair per argument jet, shared by the monomials
    j0, j1, j2 = [[((r, o), 1) for o in range(max(block) + 2)] for r in range(3)]
    if n == 2:
        return tuple(_expr({(j0[a], j1[b]): v for (a, b), v in piece.items() if v})
                     for piece in pieces)
    return tuple(_expr({(j0[a], j1[b], j2[c]): v for (a, b, c), v in piece.items() if v})
                 for piece in pieces)


def _slot_blocks(coeff: DiffExpr, arity: int) -> Dict[_Block, Dict[Monomial, Rat]]:
    """coeff split into slot blocks: block -> the terms of its background,
    the atoms of a monomial other than its slot ones (f, and g for arity 2).
    A 1-cochain must be linear in f, a 2-cochain bilinear in f and g and
    antisymmetric under f <-> g (a ValueError otherwise).  Antisymmetry is
    read by relabeling: each monomial m f^(p) g^(q) with p >= q must meet
    m f^(q) g^(p) with the opposite coefficient, and as many monomials must
    have p < q as p >= q; the block (q, p) then stands for both, as
    m det(q,p)."""
    blocks: Dict[_Block, Dict[Monomial, Rat]] = {}
    upper = []
    for mono, c in coeff._terms.items():
        head, rest = mono[:arity], mono[arity:]
        if [(atom[0], e) for atom, e in head] != _SLOT_HEADS[arity] \
                or (rest and rest[0][0][0] < arity):
            raise ValueError("1-cochain must be linear in the f jets" if arity == 1
                             else "2-cochain must be bilinear in the f and g jets")
        block = tuple(atom[1] for atom, _e in head)
        if arity == 2 and block[0] >= block[1]:
            upper.append((block, rest, c))
        else:
            blocks.setdefault(block, {})[rest] = c
    terms = coeff._terms
    if arity == 2 and (2 * len(upper) != len(terms) or any(
            terms.get((((_F, q), 1), ((_G, p), 1)) + rest) != -c
            for (p, q), rest, c in upper)):
        raise ValueError("2-cochain must be antisymmetric under f <-> g")
    return blocks


def _refuse_arguments(coeff: DiffExpr, kind: str, families: Tuple[str, ...]):
    """A ValueError naming the first of the families that coeff carries:
    the arguments its differential is evaluated at besides its own slots,
    which ce_parts would read as background."""
    found = coeff.families()
    for fam in families:
        if fam in found:
            raise ValueError(f"{kind} must not carry {fam} jets: {fam} is an argument "
                             "of its differential")


class Cochain1(Record):
    """Linear 1-cochain on vector fields, written in the f jets (a g or k
    jet, an argument of its differential, is a ValueError); value_weight
    and module_lambda as for Cochain2, except that the module must be
    concrete or trivial: a symbolic one is a ValueError."""

    __slots__ = ("coeff", "value_weight", "module_lambda")

    def __init__(self, coeff: DiffExpr, value_weight: Rat, module_lambda: Module):
        module_lambda = _module(module_lambda)
        if type(module_lambda) is LamPoly:
            raise ValueError("a 1-cochain needs a concrete module parameter or the "
                             "trivial action")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "value_weight", _rat(value_weight))
        object.__setattr__(self, "module_lambda", module_lambda)
        _slot_blocks(coeff, 1)
        _refuse_arguments(coeff, "1-cochain", ("g", "k"))


class Cochain2(Record):
    """Antisymmetric bilinear 2-cochain in the f and g jet families; a k
    jet, the third argument of its differential, is a ValueError.

    value_weight is the density grading of the values (what the chart
    transform tests), a ``_rat`` rational; module_lambda is the action
    parameter (what the cocycle identity uses), in the one form of _module:
    a ``_rat`` rational (``LamPoly.const(2)`` is stored as ``2``), the
    symbolic LAM (``LamPoly.lam()``; any other non-constant LamPoly is a
    ValueError), or None for the trivial action, where the values pair to
    constants and the action is dropped.  A float is a TypeError.
    """

    __slots__ = ("coeff", "value_weight", "module_lambda")

    def __init__(self, coeff: DiffExpr, value_weight: Rat, module_lambda: Module = LAM):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "value_weight", _rat(value_weight))
        object.__setattr__(self, "module_lambda", _module(module_lambda))
        _slot_blocks(coeff, 2)
        _refuse_arguments(coeff, "2-cochain", ("k",))

    @property
    def trivial_action(self) -> bool:
        return self.module_lambda is None

    def is_symbolic(self) -> bool:
        """Is the module the symbolic lam?"""
        return type(self.module_lambda) is LamPoly

    def at_lambda(self, lam_value: Rat) -> "Cochain2":
        """The same coefficient and weight in the module F_lam_value.  A
        constant LamPoly reads as its value; lam itself, or None, is a
        TypeError, as is a float, and any other LamPoly a ValueError."""
        lam_value = _module(lam_value)
        if lam_value is None or type(lam_value) is LamPoly:
            raise TypeError(f"at_lambda needs a concrete module parameter, got {lam_value!r}")
        return Cochain2(self.coeff, self.value_weight, lam_value)


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
    q above cap raises OrderCapExceeded (cap, an int, bounds the input only)."""
    return Cochain2(check_order_cap(det_expr(p, q), cap), p + q - 2, LAM)


def ce_parts(coeff: DiffExpr, arity: int, lam: Module) -> Tuple[DiffExpr, DiffExpr]:
    """The pencil (X, Y) of a 1- or 2-cochain coefficient on x_i = f, g[, k]:

        delta c = sum_{i<j} (-1)^(i+j) c([x_i,x_j], ...) + sum_i (-1)^i L_{x_i} c(...)
                = X + lam Y,        L_x a = x a' + lam x' a.

    At the symbolic LAM, X and Y are the parts of the pencil; at a rational
    lam, X is delta c and Y is zero; under the trivial action (lam None), X
    is the bracket insertions and Y is zero.  Per term m s of coeff
    (_slot_blocks), X = m (I + A) + D(m) alt and Y = m B (_ce_pieces).  A
    coeff not linear (arity 1) or antisymmetric bilinear (arity 2) in the
    slots, or another arity, is a ValueError.
    """
    if arity not in (1, 2):
        raise ValueError(f"ce_parts needs a 1- or 2-cochain, got arity {arity!r}")
    x: Dict[Monomial, Rat] = {}
    symbolic = type(lam) is LamPoly
    y = {} if symbolic else x
    for block, background in _slot_blocks(coeff, arity).items():
        insertions, action, linear, alternating = _ce_pieces(block)
        _mul_into(x, background, insertions._terms)
        if lam is not None:
            m = _expr(background)
            _mul_into(x, background, action._terms)
            _mul_into(y, background if symbolic else m.scale(lam)._terms, linear._terms)
            _mul_into(x, total_derivative(m)._terms, alternating._terms)
    return _expr(x), _expr(y) if symbolic else _ZERO


def _ordered(e: DiffExpr, args: int) -> DiffExpr:
    """The terms of e, linear in each of its first args arguments f, g[, k],
    at which the argument orders increase: f^(a) g^(b) with a < b, or
    f^(a) g^(b) k^(c) with a < b < c.  Where e alternates in those arguments
    the term at any other order of the jets is the permutation's sign times
    the ordered one, so these terms say all of e."""
    if args == 2:
        return _expr({mono: c for mono, c in e._terms.items()
                      if mono[0][0][1] < mono[1][0][1]})
    return _expr({mono: c for mono, c in e._terms.items()
                  if mono[0][0][1] < mono[1][0][1] < mono[2][0][1]})


@cache
def _higher_euler(block: _Block, i: int) -> DiffExpr:
    """k E^(i)_k(I) at f < g, for the insertions I of a 2-cochain block:

        E^(i)_k(I) = sum_{c >= i} C(c,i) (-D)^(c-i) J_c,    J_c = dI/dk^(c).

    I alternates in (f, g, k), so each J_c is a sum of det(a,b), a < b, read
    from I's terms f^(a) g^(b) k^(c), and the sum is taken in Horner form on
    those keys by D det(a,b) = det(a+1,b) + det(a,b+1), det(b,b) = 0."""
    parts: Dict[int, Dict[Tuple[int, int], int]] = {}
    for (((_f, a), _), ((_g, b), _), ((_k, c), _)), v in _ce_pieces(block)[0]._terms.items():
        if a < b and c >= i:
            parts.setdefault(c, {})[a, b] = v
    table: Dict[Tuple[int, int], int] = {}
    for c in range(max(parts, default=-1), i - 1, -1):
        step: Dict[Tuple[int, int], int] = {}
        for (a, b), v in table.items():
            if a + 1 < b:
                step[a + 1, b] = step.get((a + 1, b), 0) - v
            step[a, b + 1] = step.get((a, b + 1), 0) - v
        w = math.comb(c, i)
        for key, v in parts.get(c, {}).items():
            step[key] = step.get(key, 0) + w * v
        table = step
    k0 = ((_K, 0), 1)
    return _expr({(((_F, a), 1), ((_G, b), 1), k0): v for (a, b), v in table.items() if v})


def _class_pieces(block: _Block, m: DiffExpr):
    """The pairs ((-D)^i(m), _higher_euler(block, i)) for i = 0, 1, ...
    while (-D)^i(m) is nonzero and i is at most the top k order of the
    block's insertions I, q + 1 for det(p,q): their products sum to the
    class k E_k(m I) at f < g, since E_k(m J) = sum_i (-D)^i(m) E^(i)_k(J)
    for a background m free of f, g and k."""
    for i in range(block[-1] + 2):
        yield m, _higher_euler(block, i)
        terms: Dict[Monomial, Rat] = {}
        _derivative_into(terms, m._terms, -1)
        if not terms:
            return
        m = _expr(terms)


def _trivial_class(coeff: DiffExpr) -> DiffExpr:
    """The bracket insertions I of a 2-cochain coefficient (one with no k
    jet) modulo total derivatives, k E_k(I): zero iff I is a total
    derivative.  Summed over its terms m det(p,q) (_slot_blocks) from
    _class_pieces at f < g, each term then joined by its mirror
    -f^(b) g^(a) at f^(a) g^(b)."""
    out: Dict[Monomial, Rat] = {}
    for block, background in _slot_blocks(coeff, 2).items():
        for m, table in _class_pieces(block, _expr(background)):
            _mul_into(out, m._terms, table._terms)
    mirror = {(((_F, m[1][0][1]), 1), ((_G, m[0][0][1]), 1)) + m[2:]: -v
              for m, v in out.items()}
    return _expr({**out, **mirror})


def ce_differential(c: Cochain2) -> DiffExpr:
    """delta c (f,g,k) at c's concrete module, or under the trivial action
    the class of the bracket insertions (_trivial_class); zero iff c is a
    2-cocycle for its module.  A symbolic module is a ValueError: its
    differential is the pencil X + lam Y of ce_parts.
    """
    if c.is_symbolic():
        raise ValueError("ce_differential needs a concrete module parameter or the "
                         "trivial action; a symbolic one gives the pencil of ce_parts")
    if c.trivial_action:
        return _trivial_class(c.coeff)
    return ce_parts(c.coeff, 2, c.module_lambda)[0]


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
    """The module parameters lam at which delta c vanishes identically, for
    a cochain c with the symbolic module (a ValueError otherwise).

    The answer is "all" when both parts of the pencil delta c = X + lam Y
    (ce_parts) vanish, else the one root -x/y of a monomial with y != 0 if
    it solves every monomial x + lam y = 0, else "none"; delta c alternates
    in (f, g, k), so only its ordered monomials (_ordered) are read.  The
    trivial-action verdict is the vanishing of _trivial_class.  cap, an int
    (anything else, a bool included, is a ValueError), bounds the jet orders
    of c only (OrderCapExceeded).
    """
    if not c.is_symbolic():
        raise ValueError("lambda_solutions needs a symbolic module parameter")
    x, y = ce_parts(check_order_cap(c.coeff, cap), 2, c.module_lambda)
    trivial_pass = _trivial_class(c.coeff).is_zero()
    xs, ys = _ordered(x, 3)._terms, _ordered(y, 3)._terms
    if not ys:
        return LambdaVerdict("none" if xs else "all", (), trivial_pass)
    mono, b = next(iter(ys.items()))
    root = _rat(Fraction(-xs.get(mono, 0)) / b)
    if xs.keys() <= ys.keys() and all(xs.get(m, 0) == -root * v for m, v in ys.items()):
        return LambdaVerdict("finite", (root,), trivial_pass)
    return LambdaVerdict("none", (), trivial_pass)


def coboundary(b: Cochain1) -> Cochain2:
    """delta b (f,g) = L_f b(g) - L_g b(f) - b([f,g]) at b's module (the
    insertions alone under the trivial action); always a cocycle."""
    lam = b.module_lambda
    return Cochain2(ce_parts(b.coeff, 1, lam)[0], b.value_weight, lam)


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
def _build() -> Dict[str, Cochain2]:
    """Every flat cochain, by name, built once.

    Only the flat forms are stored.  A flat form of derivative count s has
    value weight s - 2 and, unbarred, that module parameter; a barred one
    reaches its module after tensoring with the 1-form, so it is one higher.
    c0w has the trivial action; cbar0, a cocycle for every lam, keeps lam
    symbolic.
    """
    table: Dict[str, Cochain2] = {}
    for name, flat in _FLAT.items():
        (count,) = _derivative_counts(flat)
        weight = count - 2
        if name == "c0w":
            module = None
        elif name == "cbar0":
            module = LAM
        else:
            module = weight + (name in _OMEGA_PAIRED)
        table[name] = Cochain2(flat, weight, module)
    return table


@cache
def _nabla_jets() -> Dict[Atom, DiffExpr]:
    """nabla^i f and nabla^i g (weight -1 inputs) for every order i the flat
    forms carry, keyed by the jet they replace; each one nabla of the last."""
    top = max(flat.max_order("f") for flat in _FLAT.values())
    table: Dict[Atom, DiffExpr] = {}
    for fam in "fg":
        a = table[_RANK[fam], 0] = jet(fam, 0)
        for i in range(top):
            a = table[_RANK[fam], i + 1] = covariant_derivative(a, i - 1)
    return table


@cache
def _covariant(name: str) -> Cochain2:
    """The covariant form of a generator with a module (all but c0w), built
    on its first lookup: the flat form with each f^(i), g^(i) replaced by
    nabla^i f, nabla^i g."""
    flat = _build()[name]
    return Cochain2(substitute_jets(flat.coeff, _nabla_jets()), flat.value_weight,
                    flat.module_lambda)


@cache
def _derived(name: str, form: str) -> Cochain2:
    """The connection form: the representative of charts.derive(name) with
    the flat form's value weight and module parameter (cbar0 stays symbolic,
    c0w trivial); or the omega form, that times the 1-form w, one weight up.
    An infeasible correction solve is a ValueError that names the generator."""
    from .charts import derive  # charts imports this module

    flat = _build()[name]
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
    """Look up a generator in one of its shapes: a stored flat form (see
    _build), a covariant form built from it on its first lookup (see
    _covariant), or a connection or omega form derived by the correction
    solver on its first lookup (see _derived)."""
    key = _ALIASES.get(name, name)
    if key not in CATALOGUE_NAMES:
        raise KeyError(f"unknown cocycle name {name!r}")
    if form not in FORMS:
        raise KeyError(f"unknown form {form!r}; expected one of {FORMS}")
    if form == "flat":
        return _build()[key]
    if form == "covariant" and not _build()[key].trivial_action:
        return _covariant(key)
    if form == "connection" or (form == "omega" and key in _OMEGA_PAIRED):
        return _derived(key, form)
    raise KeyError(_MISSING[form].format(key))
