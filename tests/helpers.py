"""Shared test utilities: random expressions and exact evaluation points."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from jetcocycles.calculus import bracket, lie_action
from jetcocycles.charts import _linear_residual
from jetcocycles.cochains import ce_parts, det_expr
from jetcocycles.expr import (DiffExpr, FAMILIES, euler_derivative, jet, hinv, substitute,
                              total_derivative)
from jetcocycles.lampoly import LamPoly, gcd_all, rational_roots

DEFAULT_FAMILIES = ("f", "g", "T", "h")

LAM = LamPoly.lam()


def eval_rational(e: DiffExpr, point) -> Fraction:
    """Evaluate at an exact rational point: the numeric oracle.

    ``point`` maps (family, order) to rationals.  hinv is taken to be the
    reciprocal of h[1]'s value (assigning it explicitly and inconsistently
    is an error).  It reads the expression only through ``terms()``, so it
    shares no arithmetic with the kernel.
    """
    values = {}
    for (fam, order), v in point.items():
        if fam not in FAMILIES or type(order) is not int or order < (fam == "h") \
                or (fam == "hinv" and order):
            raise ValueError(f"not a jet symbol: {(fam, order)!r}")
        values[fam, order] = Fraction(v)
    h1 = values.get(("h", 1))
    if ("hinv", 0) in values:
        if h1 is None or values["hinv", 0] * h1 != 1:
            raise ValueError("hinv must be assigned the exact reciprocal of h[1]")
    elif h1 is not None:
        if h1 == 0:
            raise ValueError("h[1] assigned 0; the transition must be invertible")
        values["hinv", 0] = 1 / h1

    total = Fraction(0)
    for mono, coef in e.terms():
        acc = Fraction(coef)
        for (rank, order), exp in mono:
            v = values.get((FAMILIES[rank], order))
            if v is None:
                raise ValueError(f"unassigned jet symbol {FAMILIES[rank]}[{order}]")
            acc *= v ** exp
        total += acc
    return total


def is_total_derivative(e: DiffExpr) -> bool:
    """Exactness test: e = D(Y) for some differential polynomial Y.

    Valid for expressions in free jet families only (hinv's derivative rule
    is nonlinear, so expressions containing hinv are rejected).  A polynomial
    with no explicit z dependence is exact iff its constant term vanishes and
    every variational derivative is zero.
    """
    fams = e.families()
    if "hinv" in fams:
        raise ValueError("exactness test is only defined for hinv-free expressions")
    if any(mono == () for mono, _ in e.terms()):
        return False
    return all(euler_derivative(e, fam).is_zero() for fam in fams)


def exact_class(delta: DiffExpr) -> DiffExpr:
    """The class of a differential linear in k modulo total derivatives, by
    its definition: delta = k E_k(delta) + D(...), read as k E_k(delta)
    with the Euler derivative of the whole of delta.  The oracle of
    cochains._trivial_class."""
    return jet("k", 0) * euler_derivative(delta, "k")


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_expr(rng: random.Random, families=DEFAULT_FAMILIES, max_order: int = 3,
                terms: int = 3, factors: int = 2, with_hinv: bool = False) -> DiffExpr:
    out = DiffExpr.zero()
    for _ in range(rng.randrange(1, terms + 1)):
        piece = DiffExpr.rational(random_coeff(rng))
        for _ in range(rng.randrange(0, factors + 1)):
            if with_hinv and rng.random() < 0.2:
                piece = piece * hinv()
            else:
                fam = rng.choice(families)
                order = rng.randrange(1, max_order + 1) if fam == "h" \
                    else rng.randrange(0, max_order + 1)
                piece = piece * jet(fam, order)
        out = out + piece
    return out


def random_point(rng: random.Random, *exprs: DiffExpr) -> dict:
    """Exact rational assignment covering every jet in the expressions."""
    point = {}
    for e in exprs:
        for fam in e.families():
            if fam == "hinv":
                fam = "h"
                top = 1
            else:
                top = e.max_order(fam)
            lo = 1 if fam == "h" else 0
            for order in range(lo, top + 1):
                point.setdefault((fam, order),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if ("h", 1) in point or any("hinv" in e.families() for e in exprs):
        v = point.get(("h", 1), Fraction(0))
        if v == 0:
            point[("h", 1)] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return point


def random_lambda(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def is_canonical(q) -> bool:
    """The one form of an exact rational: an int when integral, otherwise a
    Fraction with denominator > 1; never a bool or a float."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def substitute_jets_reference(e: DiffExpr, table) -> DiffExpr:
    """substitute_jets one monomial at a time: the monomial's coefficient
    times the power of each bound jet's value, times the kept jets, with
    the same KeyError for an order missing from a bound family."""
    bound_ranks = {atom[0] for atom in table}
    out = DiffExpr.zero()
    for mono, coef in e.terms():
        piece = DiffExpr({(): coef})
        keep = []
        for atom, exp in mono:
            if atom in table:
                piece = piece * table[atom] ** exp
            elif atom[0] in bound_ranks:
                raise KeyError(f"binding table covers family {FAMILIES[atom[0]]!r} "
                               f"but not order {atom[1]}")
            else:
                keep.append((atom, exp))
        out = out + piece * DiffExpr({tuple(keep): 1})
    return out


def swap_fg_reference(e: DiffExpr) -> DiffExpr:
    """e with the families f and g exchanged, through substitute: the
    definitional form of the relabeling in the Cochain2 antisymmetry check."""
    return substitute(e, {"f": jet("g", 0), "g": jet("f", 0)})


def ce_parts_reference(coeff: DiffExpr, arity: int, lam):
    """(X, Y) as cochains.ce_parts defines them, by the definitional path:
    each value c(...) binds the slot families f, g to the arguments'
    order-0 expressions and prolongs them through substitute, with the
    bracket and the action from calculus.  At the symbolic LAM the pencil
    X + lam Y is read from delta at lam = 0 and lam = 1; otherwise Y is
    zero and X is delta (the bracket insertions under the trivial action,
    lam None)."""
    if lam == LAM:
        at_zero = ce_parts_reference(coeff, arity, 0)[0]
        return at_zero, ce_parts_reference(coeff, arity, 1)[0] - at_zero
    fams = "fgk"[:arity + 1]

    def value(*args):
        bindings = {slot: arg if isinstance(arg, DiffExpr) else jet(arg, 0)
                    for slot, arg in zip("fg", args)
                    if isinstance(arg, DiffExpr) or arg != slot}
        return substitute(coeff, bindings) if bindings else coeff

    delta = DiffExpr.zero()
    for (i, x), (j, y) in itertools.combinations(enumerate(fams), 2):
        term = value(bracket(jet(x, 0), jet(y, 0)), *fams.replace(x, "").replace(y, ""))
        delta = delta - term if (i + j) % 2 else delta + term
    if lam is not None:
        for i, x in enumerate(fams):
            term = lie_action(jet(x, 0), value(*fams.replace(x, "")), lam)
            delta = delta - term if i % 2 else delta + term
    return delta, DiffExpr.zero()


def lambda_solutions_reference(c):
    """(kind, values, trivial_action_pass) of lambda_solutions by the gcd
    path: the pencil X + lam Y of delta c from ce_parts_reference, one
    LamPoly x + y lam per ordered monomial (ordered_partner), and the
    rational roots of their gcd over Q[lam]; the trivial-action verdict is
    the exactness of the insertions (is_total_derivative)."""
    x, y = ce_parts_reference(c.coeff, 2, LAM)
    xs, ys = dict(x.terms()), dict(y.terms())
    polys = [LamPoly((xs.get(m, 0), ys.get(m, 0))) for m in xs.keys() | ys.keys()
             if ordered_partner(m, 3) == (1, m)]
    trivial = is_total_derivative(ce_parts_reference(c.coeff, 2, None)[0])
    gcd = gcd_all(polys)
    if gcd.is_zero():
        return "all", (), trivial
    roots = tuple(rational_roots(gcd))
    return ("finite" if roots else "none"), roots, trivial


def solver_rows_reference(result) -> dict:
    """The constraint rows of a solve (a CorrectionResult), assembled the
    expression way: the symbol and each ansatz term m det(p,q) give one
    globality expression, m L(c) + c L(m) for a term, and one cocycle
    expression, m delta c + D(m) alt for a term (under the trivial action
    the class of m times the insertions by the oracle exact_class, with no
    D(m) alt).  Each is built whole, at every monomial, as a DiffExpr,
    products and sum, with delta c from ce_parts and alt = f c(g,k) -
    g c(f,k) + k c(f,g) written out, and read in sorted terms() order.  Rows are keyed by (space, monomial) with
    the value [entries, rhs]."""
    trivial = result.trivial_action
    rows: dict = {}

    def add(e, space, index):
        for mono, c in e.terms():
            row = rows.setdefault((space, mono), [{}, 0])
            if index is None:
                row[1] -= c
            else:
                row[0][index] = row[0].get(index, 0) + c

    def add_cocycle(delta, index):
        add(exact_class(delta) if trivial else delta, 1, index)

    add(_linear_residual(result.symbol, result.weight), 0, None)
    add_cocycle(ce_parts(result.symbol, 2, result.module_lambda)[0], None)
    for i, term in enumerate(result.ansatz):
        p, q = term.p, term.q
        c = det_expr(p, q)
        delta_c = ce_parts(c, 2, result.module_lambda)[0]
        alternating = sum((sign * jet(x, 0) * (jet(y, p) * jet(z, q) - jet(y, q) * jet(z, p))
                           for sign, x, y, z in ((1, "f", "g", "k"), (-1, "g", "f", "k"),
                                                 (1, "k", "f", "g"))), DiffExpr.zero())
        add(term.m * _linear_residual(c, p + q - 2)
            + c * _linear_residual(term.m, result.weight - (p + q - 2)), 0, i)
        delta = term.m * delta_c
        if not trivial:
            delta = delta + total_derivative(term.m) * alternating
        add_cocycle(delta, i)
    return rows


def combination_reference(result, coords) -> DiffExpr:
    """symbol + sum_i coords[i] ansatz[i].expr for a CorrectionResult, added
    one whole term at a time: the oracle of the points that member,
    representative and contains read."""
    out = result.symbol
    for i, v in coords.items():
        out = out + result.ansatz[i].expr.scale(v)
    return out


def antisymmetric_cochain(rng: random.Random, backgrounds=("T", "R", "w"),
                          max_order: int = 4) -> DiffExpr:
    """e - swap(e) for a random sum e of terms c m f^(a) g^(b), m a random
    monomial in the background families: an antisymmetric bilinear
    coefficient (possibly zero)."""
    e = DiffExpr.zero()
    for _ in range(rng.randrange(1, 5)):
        m = random_expr(rng, families=backgrounds, max_order=2, terms=1)
        e = e + m * jet("f", rng.randrange(max_order + 1)) * jet("g", rng.randrange(max_order + 1))
    return e - swap_fg_reference(e)


def solver_arguments(result, space: int) -> int:
    """How many of f, g, k a solve's rows in the space alternate in: f and g
    for the globality rows (space 0), where k carries the coordinate change,
    and for the trivial action's rows k E_k(delta); f, g and k for the
    cocycle rows at a concrete module."""
    return 2 if space == 0 or result.trivial_action else 3


def ordered_partner(mono, args: int):
    """(sign, monomial): the monomial with the jet orders of its first args
    atoms, one jet each of f, g[, k], sorted increasing, and the sign of the
    sorting permutation, or 0 when two of the orders are equal."""
    head, rest = mono[:args], mono[args:]
    assert [(atom[0], e) for atom, e in head] == [(rank, 1) for rank in range(args)], mono
    orders = [atom[1] for atom, _e in head]
    inversions = sum(a > b for a, b in itertools.combinations(orders, 2))
    sign = 0 if len(set(orders)) < args else (-1) ** inversions
    return sign, tuple(((rank, order), 1) for rank, order in enumerate(sorted(orders))) + rest


def ordered_rows(result, rows: dict) -> dict:
    """The rows keyed (space, monomial) at the monomials whose argument
    orders increase (solver_arguments, ordered_partner)."""
    return {(space, mono): row for (space, mono), row in rows.items()
            if ordered_partner(mono, solver_arguments(result, space)) == (1, mono)}


def laurent_action_reference(fld, a):
    """laurent_action by the basis rule in the order it is written,
    x c (s + lam k) summed per degree, every result taken through
    LaurentDensity.of: the validating path."""
    from jetcocycles.wittmodel import LaurentDensity

    lam = a.weight
    out: dict = {}
    for k, x in fld.coeffs:      # k = m + 1
        for s, c in a.coeffs:
            d = k - 1 + s
            out[d] = out.get(d, 0) + x * c * (s + lam * k)
    return LaurentDensity.of(out, lam)


def evaluate_cochain_reference(c, m: int, n: int, weight=None):
    """evaluate_cochain one monomial at a time in rationals: each factor
    f^(j) = z^(m+1) (or g^(j) = z^(n+1)) differentiated j times by a loop
    over the falling factorial, once per unit of its exponent, the sum
    taken through LaurentDensity.of."""
    from jetcocycles.cochains import Cochain2, coeff_and_weight
    from jetcocycles.wittmodel import LaurentDensity

    if weight is None and isinstance(c, Cochain2) and not (c.trivial_action or c.is_symbolic()):
        weight = c.module_lambda
    expr, weight = coeff_and_weight(c, weight)
    fams = expr.families()
    if fams - {"f", "g"}:
        raise ValueError(f"flat cochain expected; found families {sorted(fams - {'f', 'g'})}")
    exps = {"f": m + 1, "g": n + 1}
    out: dict = {}
    for mono, cval in expr.terms():
        z = 0
        for (rank, order), e in mono:
            base = exps[FAMILIES[rank]]
            for _ in range(e):
                fall = 1
                for i in range(order):
                    fall *= base - i
                cval *= fall
                z += base - order
        if cval:
            out[z] = out.get(z, 0) + cval
    return LaurentDensity.of(out, weight)


# symbols the correction solver must reject, with a word its message names
BAD_SYMBOLS = (
    ("0", "is zero"),
    ("f[0]", "bilinear"),
    ("f[1]*g[2]", "antisymmetric"),
)
