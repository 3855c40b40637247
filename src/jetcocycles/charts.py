"""Chart transforms: pushforward through a formal transition, globality
certification, and the correction solver.

The transition h is kept formal (free jets h[1], h[2], ... plus hinv), so a
single polynomial identity certifies covariance under every coordinate
change.  Each jet family u is a density of a weight w(u), and the affine
and projective connections T and R carry an inhomogeneous part a(u):

    w = -1 for f, g, k;   w = 1 for T, w;   w = 2 for R;
    a(T) = h''/h' (eta),  a(R) = S (the Schwarzian),  a(u) = 0 otherwise.

Both transformation laws are read from that one table.  The frame's
bindings express each beta-frame jet in alpha-frame jets by the finite law

    u_beta = (h')^(-w) (u + a(u)),   D_beta = hinv * D for higher orders,

up to the order BINDING_ORDER_BOUND, which is_global checks.  The
correction solver imposes the infinitesimal law instead: the first-order
part of the finite law at h = z + eps X, with X a free vector field carried
by the family k,

    delta u = -w X' u + X^(w+1) (the last term for T and R only),
    delta u^(n+1) = D(delta u^(n)) - X' u^(n+1),

and e is a weight-w density iff w X' e + sum_n (de/du^(n)) delta u^(n)
vanishes.  The two laws give the same constraints.  The formal coordinate
changes with h' > 0 form a connected group, so invariance under its Lie
algebra is invariance under the group (Kolar, Michor and Slovak, Natural
Operations in Differential Geometry, 1993, on natural operators and their
infinitesimal characterization).  The finite residual is polynomial in the
jets of h and in 1/h', so vanishing for h' > 0 it vanishes for h' < 0 too.

The pure pieces (_binding, _jet_variation, _connection_monomials,
_det_pieces) and each generator's solve (derive) are kept per process by
functools.cache on small keys; _linear_residual is not kept.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .calculus import eta, projective_from_affine, schwarzian
from .cochains import (LAM, Cochain2, Module, _ce_pieces, _class_pieces, _derivative_counts,
                       _module, _ordered, _trivial_class, catalogue, ce_parts,
                       coeff_and_weight, det_expr)
from .expr import (
    DEFAULT_ORDER_CAP,
    _RANK,
    DiffExpr,
    OrderCapExceeded,
    _check_atom,
    _expr,
    _mono_mul,
    _mul_into,
    _partials,
    check_order_cap,
    hinv,
    hinv_power,
    jet,
    substitute,
    substitute_jets,
    total_derivative,
)
from .lampoly import Rat, _rat
from .linalg import AffineSolution, Row, solve_affine

# family -> density weight, and the inhomogeneous part of each connection
_WEIGHTS = {"f": -1, "g": -1, "k": -1, "T": 1, "R": 2, "w": 1}
_AFFINE = {"T": eta, "R": schwarzian}


# the highest jet order the frame binds: twice DEFAULT_ORDER_CAP, the
# default bound on an input's orders
BINDING_ORDER_BOUND = 24


@cache
def _binding(family: str, order: int) -> DiffExpr:
    """ChartFrame.binding, built once per process: the finite law at order
    0, and above it hinv * D of the binding one order below."""
    if order:
        return hinv() * total_derivative(_binding(family, order - 1))
    u = jet(family, 0)
    return hinv_power(_WEIGHTS[family]) * (u + _AFFINE[family]() if family in _AFFINE else u)


def _check_binding_order(family: str, order: int):
    if order > BINDING_ORDER_BOUND:
        raise OrderCapExceeded(f"the frame binds jet orders up to {BINDING_ORDER_BOUND}, "
                               f"got {family}[{order}]")


class ChartFrame:
    """The formal coordinate change, through the bindings kept for the
    process by _binding."""

    def binding(self, family: str, order: int) -> DiffExpr:
        """Alpha-frame expression of the beta-frame jet family[order]; the
        order must be a non-negative int (ValueError otherwise) of at most
        BINDING_ORDER_BOUND (OrderCapExceeded)."""
        if family not in _WEIGHTS:
            raise ValueError(f"no transformation law for family {family!r}")
        _check_atom(family, order)
        _check_binding_order(family, order)
        return _binding(family, order)

    def pushforward(self, e: DiffExpr) -> DiffExpr:
        """Rewrite the beta-frame evaluation of e in alpha-frame jets; a jet
        order above BINDING_ORDER_BOUND raises OrderCapExceeded first."""
        bad = e.families() & {"h", "hinv"}
        if bad:
            raise ValueError(f"pushforward input must be transition-free, found {sorted(bad)}")
        tops = {fam: e.max_order(fam) for fam in _WEIGHTS}
        for fam, top in tops.items():
            _check_binding_order(fam, top)
        table: Dict[Tuple[int, int], DiffExpr] = {}
        for fam, top in tops.items():
            for order in range(top + 1):
                table[(_RANK[fam], order)] = _binding(fam, order)
        return substitute_jets(e, table)


def pushforward(e: DiffExpr) -> DiffExpr:
    """Module-level convenience for ChartFrame.pushforward."""
    return ChartFrame().pushforward(e)


class GlobalityResult(Record):
    __slots__ = ("ok", "weight", "residual")

    def __init__(self, ok: bool, weight: int, residual: DiffExpr):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "residual", residual)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def _integer_weight(weight) -> int:
    """A density weight as an int: an exact rational (TypeError otherwise)
    that is integral and not a bool (ValueError otherwise)."""
    if type(weight) is not bool:
        weight = _rat(weight)
    if type(weight) is not int:
        raise ValueError(f"globality needs an integer weight, got {weight}")
    return weight


def is_global(
    target: Union[Cochain2, DiffExpr],
    weight: Optional[int] = None,
) -> GlobalityResult:
    """Check pushforward(e) == (h')^(-weight) * e; FAIL keeps the residual.

    The weight of a Cochain2 defaults to its value weight; a bare
    expression needs one.  The weight must be an integer, not a bool; the
    pushforward bounds the jet orders of the expression (BINDING_ORDER_BOUND).
    """
    expr, weight = coeff_and_weight(target, weight)
    weight = _integer_weight(weight)
    residual = ChartFrame().pushforward(expr) - hinv_power(weight) * expr
    return GlobalityResult(residual.is_zero(), weight, residual)


# -- correction solver ---------------------------------------------------

# a T/R monomial as its (family, order) factors, with multiplicity
_Symbols = Tuple[Tuple[str, int], ...]


@cache
def _connection_monomials(
        weight: int) -> Tuple[Tuple[_Symbols, DiffExpr, DiffExpr, DiffExpr], ...]:
    """Monomials in T/R derivative symbols of the given total weight.

    T^(j) weighs j + w(T), R^(j) weighs j + w(R).  Each comes as its tuple
    of (family, order) with multiplicity, its expression m, L(m) at the
    weight (_linear_residual) and D(m), in increasing order of the tuples:
    the search picks from the sorted symbols in nondecreasing position, so
    it meets the tuples in that order.
    """
    items = sorted((fam, w - _WEIGHTS[fam], w)
                   for fam in _AFFINE for w in range(_WEIGHTS[fam], weight + 1))
    out: List[Tuple[_Symbols, DiffExpr]] = []

    def rec(start: int, remaining: int, picked: _Symbols, m: DiffExpr):
        if remaining == 0:
            out.append((picked, m))
            return
        for i in range(start, len(items)):
            fam, order, w = items[i]
            if w <= remaining:
                rec(i, remaining - w, picked + ((fam, order),), m * jet(fam, order))

    rec(0, weight, (), DiffExpr.one())
    return tuple((symbols, m, _linear_residual(m, weight), total_derivative(m))
                 for symbols, m in out)


class AnsatzTerm(Record):
    """The ansatz term m det(p,q), m a monomial in T, R and their derivatives."""

    __slots__ = ("p", "q", "symbols", "m")

    def __init__(self, p: int, q: int, symbols: _Symbols, m: DiffExpr):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "m", m)

    @property
    def expr(self) -> DiffExpr:
        return self.m * det_expr(self.p, self.q)

    def label(self) -> str:
        coef = "*".join(f"{fam}[{order}]" for fam, order in self.symbols)
        return f"{coef}*det({self.p},{self.q})" if coef else f"det({self.p},{self.q})"


class CorrectionResult(Record):
    """Affine solution set of the globality and cocycle constraints.

    A point x of the solution (None when the constraints are inconsistent)
    stands for symbol + sum_i x_i ansatz[i].expr; the particular point of
    the stored solution is the canonical representative.  module_lambda is
    the concrete module, a ``_rat`` rational, or None for the trivial action.
    """

    __slots__ = ("symbol", "weight", "module_lambda", "ansatz", "solution")

    def __init__(self, symbol: DiffExpr, weight: int, module_lambda: Optional[Rat],
                 ansatz: Tuple[AnsatzTerm, ...], solution: Optional[AffineSolution]):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "module_lambda", module_lambda)
        object.__setattr__(self, "ansatz", ansatz)
        object.__setattr__(self, "solution", solution)

    @property
    def trivial_action(self) -> bool:
        return self.module_lambda is None

    @property
    def feasible(self) -> bool:
        return self.solution is not None

    @property
    def dimension(self) -> int:
        return self.solution.dimension if self.feasible else 0

    @property
    def representative(self) -> Optional[Cochain2]:
        return self.member((0,) * self.dimension) if self.feasible else None

    def _combination(self, coords: Row) -> DiffExpr:
        out = DiffExpr.zero()
        for i, v in coords.items():
            out = out + self.ansatz[i].expr.scale(v)
        return out

    def member(self, gauge: Sequence[Rat]) -> Cochain2:
        """The solution point at the given gauge coordinates, one per
        nullspace direction (ValueError otherwise), as a cochain."""
        if not self.feasible:
            raise ValueError("empty solution set")
        coeff = self.symbol + self._combination(self.solution.point(gauge))
        return Cochain2(coeff, self.weight, self.module_lambda)

    def contains(self, coeff: DiffExpr) -> bool:
        """Is the given cochain coefficient in the solution set, that is, is
        coeff - representative in the span of the nullspace directions?
        Every row is kept here, since coeff need not be antisymmetric."""
        if not self.feasible:
            return False
        rows: Dict = {}
        _product_rows(self.representative.coeff - coeff, DiffExpr.one(), 0, None, rows)
        for j, vec in enumerate(self.solution.nullspace):
            _product_rows(self._combination(vec), DiffExpr.one(), 0, j, rows)
        return solve_affine(_affine_rows(rows), self.dimension) is not None


@cache
def _jet_variation(family: str, order: int) -> DiffExpr:
    """delta family[order] under z -> z + eps X, X carried by the family k:
    delta u = -w X' u + X^(w+1) for the connections,
    delta u^(n+1) = D(delta u^(n)) - X' u^(n+1)."""
    x1 = jet("k", 1)
    if order:
        return total_derivative(_jet_variation(family, order - 1)) - x1 * jet(family, order)
    w = _WEIGHTS[family]
    out = (x1 * jet(family, 0)).scale(-w)
    return jet("k", w + 1) + out if family in _AFFINE else out


def _linear_residual(e: DiffExpr, weight: int) -> DiffExpr:
    """First-order part of pushforward(e) - hinv_power(weight) * e at
    h = z + eps X: weight X' e + sum_n (de/du^(n)) delta u^(n).  The family
    k carries X itself, so it takes no variation.  One pass per family
    splits e into its partials (expr._partials), and each product with its
    variation is added into one dict."""
    out = dict((jet("k", 1) * e).scale(weight)._terms)
    for fam in _WEIGHTS:
        if fam != "k":
            for order, part in _partials(e, _RANK[fam]).items():
                _mul_into(out, part, _jet_variation(fam, order)._terms)
    return _expr(out)


@cache
def _det_pieces(p: int, q: int, module_lambda: Optional[Rat]) -> Tuple[
        DiffExpr, DiffExpr, Optional[DiffExpr], Optional[DiffExpr]]:
    """(c, L(c), delta c at the module, f c(g,k) - g c(f,k) + k c(f,g)) for
    c = det(p,q), each at its ordered monomials only (cochains._ordered):
    c as its term f^(p) g^(q), L(c) = _linear_residual(c, p+q-2) at f < g,
    and delta c = I + A + lam B (cochains._ce_pieces) and the alternating
    sum at f < g < k.  Under the trivial action, whose rows come from
    cochains._class_pieces, the last two are None."""
    c = jet("f", p) * jet("g", q)
    linear = _ordered(_linear_residual(det_expr(p, q), p + q - 2), 2)
    if module_lambda is None:
        return c, linear, None, None
    insertions, action, lam_part, alternating = _ce_pieces((p, q))
    return (c, linear, _ordered(insertions + action + lam_part.scale(module_lambda), 3),
            _ordered(alternating, 3))


def _product_rows(a: DiffExpr, b: DiffExpr, space: int, index: Optional[int], rows: Dict):
    """Add the coefficients of a * b into sparse constraint rows, with no
    product built: the one row accumulator.  rows maps (space, monomial) to
    a dict whose entry i (index i) is the coefficient of x_i and whose key
    None (index None) holds the constant: the row reads
    sum_i row[i] x_i + row[None] = 0.  An entry that sums to zero is
    dropped, and so is a row left empty; the order of the rows does not
    change solve_affine's answer.  Pass DiffExpr.one() as b for the rows of
    a alone."""
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            c = c1 * c2
            key = (space, _mono_mul(m1, m2))
            row = rows.get(key)
            if row is None:
                rows[key] = {index: c}
                continue
            s = row.get(index, 0) + c
            if s:
                row[index] = s
            else:
                del row[index]
                if not row:
                    del rows[key]


def _affine_rows(rows: Dict):
    """The rows of _product_rows as solve_affine's (entries, -row[None])
    pairs; the key None is popped from each row, so the rows are read
    once."""
    return ((row, -row.pop(None, 0)) for row in rows.values())


def solve_corrections(
    symbol: Union[Cochain2, DiffExpr],
    weight: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_CAP,
    module_lambda: Module = None,
) -> CorrectionResult:
    """Solve for connection corrections making the symbol global and closed.

    The ansatz spans (monomial in T, R and derivatives) x det(p,q) with the
    symbol's weight, p+q below the symbol's derivative count and single jets
    no deeper than its top order.  The module parameter is module_lambda
    when given, else the cochain's own (None is the trivial action); the
    symbolic lam, given or a bare expression's, reads lam = weight
    (cochains._module; another LamPoly is a ValueError).  The result holds
    the ansatz, sorted by (p, q, symbols), and its affine solution set,
    whose particular point is the canonical representative (None if
    empty): the minimal-support point (ties broken lexicographically) when
    the gauge dimension is at most 3 and at most 26 coordinates are
    involved (_canonical_point), else the echelon particular solution (c5
    and c7).  A zero, non-flat or
    non-antisymmetric symbol, a non-int max_order (a bool included) or a
    non-integer weight is a ValueError (a float weight a TypeError); a jet
    of the symbol or ansatz above max_order is an OrderCapExceeded.

    The rows are exact linear constraints, built by Leibniz for a term m c,
    c = det(p,q): globality by the infinitesimal law of the module
    docstring, L_w(m c) = m L_b(c) + c L_a(m) over a + b = w, with the
    solutions of the finite law is_global checks; the cocycle identity by
    delta(m c) = m delta c + D(m) (f c(g,k) - g c(f,k) + k c(f,g)), or under
    the trivial action by the class of the insertions, the products
    (-D)^i(m) E^(i)_k(I_c) of cochains._class_pieces.  Every source of a
    row alternates in f, g (globality, where k carries the coordinate
    change, and the trivial class) or f, g, k (the cocycle rows at a
    concrete module), so only the rows at increasing orders are emitted
    (cochains._ordered), with the same solution; m and its derivatives
    carry no f or g jet, so products with ordered pieces stay ordered.
    """
    expr, weight = coeff_and_weight(symbol, weight)
    weight = _integer_weight(weight)
    if module_lambda is None:
        module_lambda = symbol.module_lambda if isinstance(symbol, Cochain2) else LAM
    module_lambda = _module(module_lambda)
    if module_lambda is LAM:
        module_lambda = weight
    trivial = module_lambda is None

    if expr.is_zero():
        raise ValueError("the symbol is zero")
    if expr.families() - {"f", "g"}:
        raise ValueError("the symbol must be a flat bilinear expression in f and g")
    if type(max_order) is not int:
        raise ValueError(f"max_order must be an integer, got {max_order!r}")
    check_order_cap(expr, max_order)
    Cochain2(expr, weight)  # raises unless bilinear and antisymmetric

    top_pq = max(_derivative_counts(expr))
    top_single = expr.max_order("f")  # that of g too: the symbol is antisymmetric

    ansatz: List[AnsatzTerm] = []
    monomial_pieces: List[Tuple[DiffExpr, DiffExpr]] = []
    for p in range(top_single):
        for q in range(p + 1, top_single + 1):
            if p + q >= top_pq:
                continue
            coef_weight = weight - (p + q - 2)
            if coef_weight < 1:
                continue
            if coef_weight - 1 > max_order:
                raise OrderCapExceeded(
                    f"ansatz needs connection jets of order {coef_weight - 1} > cap {max_order}"
                )
            for symbols, m, lm, dm in _connection_monomials(coef_weight):
                ansatz.append(AnsatzTerm(p, q, symbols, m))
                monomial_pieces.append((lm, dm))

    rows: Dict = {}
    one = DiffExpr.one()
    _product_rows(_ordered(_linear_residual(expr, weight), 2), one, 0, None, rows)
    if trivial:
        _product_rows(_ordered(_trivial_class(expr), 2), one, 1, None, rows)
    else:
        _product_rows(_ordered(ce_parts(expr, 2, module_lambda)[0], 3), one, 1, None, rows)
    for i, (term, (lm, dm)) in enumerate(zip(ansatz, monomial_pieces)):
        m = term.m
        c, lc, delta_c, alternating = _det_pieces(term.p, term.q, module_lambda)
        _product_rows(m, lc, 0, i, rows)
        _product_rows(c, lm, 0, i, rows)
        if trivial:
            for dm_i, table in _class_pieces((term.p, term.q), m):
                _product_rows(dm_i, table, 1, i, rows)
        else:
            _product_rows(m, delta_c, 1, i, rows)
            _product_rows(dm, alternating, 1, i, rows)

    solution = solve_affine(_affine_rows(rows), len(ansatz))
    if solution is not None:
        solution = AffineSolution(solution.nvars, _canonical_point(solution),
                                  solution.nullspace)
    return CorrectionResult(expr, weight, module_lambda, tuple(ansatz), solution)


def _canonical_point(solution: AffineSolution) -> Row:
    """Canonical point of the affine set.

    When the gauge dimension d is at most 3 and at most 26 coordinates occur
    in the nullspace, vertex enumeration picks the point of minimal support,
    ties broken lexicographically.  Coordinate i vanishes on the gauge
    hyperplane sum_j N_j[i] t_j = -p_i (N the nullspace, p the particular
    point), and coordinates often share one, so the enumeration solves for
    the vertex of each d-subset of distinct hyperplanes: d coordinates with
    two on one hyperplane fix no vertex, so the candidates are those of
    every d-subset of coordinates (det(2,3) at weight 3: 16 coordinates on
    10 hyperplanes, 120 sub-solves instead of 560).  Otherwise it is the
    echelon particular solution with the free variables set to zero; this
    applies to c5 (dimension 8) and c7 (dimension 17).
    """
    d = solution.dimension
    if d == 0:
        return dict(solution.particular)
    relevant = sorted({i for vec in solution.nullspace for i in vec})
    if d > 3 or len(relevant) > 26:
        return dict(solution.particular)

    # each distinct hyperplane, keyed by its equation scaled to a leading 1,
    # keeps its first coordinate
    hyperplanes: Dict[Tuple[Rat, ...], Tuple[Row, Rat]] = {}
    for i in relevant:
        coefrow = {j: vec[i] for j, vec in enumerate(solution.nullspace) if i in vec}
        rhs = -solution.particular.get(i, 0)
        inv = Fraction(1) / coefrow[min(coefrow)]
        plane = tuple(_rat(coefrow.get(j, 0) * inv) for j in range(d)) + (_rat(rhs * inv),)
        hyperplanes.setdefault(plane, (coefrow, rhs))

    candidates = [()]
    candidates += itertools.combinations(hyperplanes.values(), d)
    best = None
    for rows in candidates:
        if rows:
            sub = solve_affine(rows, d)
            if sub is None or sub.dimension != 0:
                continue
            gauge = [sub.particular.get(j, 0) for j in range(d)]
        else:
            gauge = [0] * d
        point = solution.point(gauge)
        key = (len(point), tuple(point.get(i, 0) for i in range(solution.nvars)))
        if best is None or key < best[0]:
            best = (key, point)
    return best[1]


# -- covariant equivalence -------------------------------------------------


class EquivalenceResult(Record):
    __slots__ = ("name", "ok", "residual")

    def __init__(self, name: str, ok: bool, residual: DiffExpr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "residual", residual)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


@cache
def derive(name: str) -> CorrectionResult:
    """The correction solve of a catalogued generator's flat form, whose
    representative is its connection form; solved once per name and process
    (derive.cache_clear() forgets them)."""
    return solve_corrections(catalogue(name, "flat"))


def covariant_equivalence(name: str) -> EquivalenceResult:
    """Covariant form == connection form under R := T' + T^2/2.

    Both sides are written in the same sign package (nabla a = a' + w T a);
    the opposite-sign package corresponds to Gamma = -T with R negated and
    needs no extra normalization here beyond that documented flip.
    """
    cov = catalogue(name, "covariant")
    conn = catalogue(name, "connection")
    conn_in_T = substitute(conn.coeff, {"R": projective_from_affine()})
    residual = conn_in_T - cov.coeff
    return EquivalenceResult(name, residual.is_zero(), residual)
