"""Chart transforms: pushforward through a formal transition, globality
certification, connection transformation, and the correction solver.

The transition h is kept formal (free jets h[1], h[2], ... plus hinv), so a
single polynomial identity certifies covariance under every coordinate
change.  The frame's binding table expresses each beta-frame jet in
alpha-frame jets:

    f_beta = h' f,   T_beta = (T + h''/h')/h',   R_beta = (R + S)/h'^2,
    w_beta = w/h',

with higher orders generated by D_beta = hinv * D.  is_global checks this
finite law.

The correction solver imposes the infinitesimal law instead: the first-order
part of the binding table at h = z + eps X, with X a free vector field
carried by the family k,

    delta f = X' f,   delta T = X'' - X' T,   delta R = X^(3) - 2 X' R,
    delta w = -X' w,  delta u^(n+1) = D(delta u^(n)) - X' u^(n+1),

and e is a weight-w density iff w X' e + sum_n (de/du^(n)) delta u^(n)
vanishes.  The two laws give the same constraints.  The formal coordinate
changes with h' > 0 form a connected group, so invariance under its Lie
algebra is invariance under the group (Kolar, Michor and Slovak, Natural
Operations in Differential Geometry, 1993, on natural operators and their
infinitesimal characterization).  The finite residual is polynomial in the
jets of h and in 1/h', so vanishing for h' > 0 it vanishes for h' < 0 too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .calculus import Density, eta, projective_from_affine, schwarzian
from .cochains import Cochain2, catalogue, ce_parts, det_expr
from .expr import (
    DEFAULT_ORDER_CAP,
    _RANK,
    DiffExpr,
    OrderCapExceeded,
    euler_derivative,
    hinv,
    hinv_power,
    jet,
    partial_derivative,
    substitute,
    substitute_jets,
    total_derivative,
)
from .linalg import AffineSolution, solve_affine

_TRANSFORMABLE = ("f", "g", "k", "T", "R", "w")


class ChartFrame:
    """Binding table for one formal coordinate change, built on demand."""

    def __init__(self, cap: int = DEFAULT_ORDER_CAP):
        self.cap = cap
        self._bindings: Dict[Tuple[str, int], DiffExpr] = {}

    @property
    def eta(self) -> DiffExpr:
        return eta(self.cap)

    @property
    def schwarzian(self) -> DiffExpr:
        return schwarzian(self.cap)

    def binding(self, family: str, order: int) -> DiffExpr:
        """Alpha-frame expression of the beta-frame jet family[order]."""
        if family not in _TRANSFORMABLE:
            raise ValueError(f"no transformation law for family {family!r}")
        key = (family, order)
        got = self._bindings.get(key)
        if got is not None:
            return got
        if order == 0:
            if family in ("f", "g", "k"):
                out = jet("h", 1, self.cap) * jet(family, 0, self.cap)
            elif family == "T":
                out = hinv() * (jet("T", 0, self.cap) + self.eta)
            elif family == "R":
                out = hinv() ** 2 * (jet("R", 0, self.cap) + self.schwarzian)
            else:
                out = hinv() * jet("w", 0, self.cap)
        else:
            out = hinv() * total_derivative(self.binding(family, order - 1), self.cap)
        self._bindings[key] = out
        return out

    def pushforward(self, e: DiffExpr) -> DiffExpr:
        """Rewrite the beta-frame evaluation of e in alpha-frame jets."""
        bad = e.families() & {"h", "hinv"}
        if bad:
            raise ValueError(f"pushforward input must be transition-free, found {sorted(bad)}")
        table: Dict[Tuple[int, int], DiffExpr] = {}
        for fam in _TRANSFORMABLE:
            top = e.max_order(fam)
            for order in range(top + 1):
                table[(_RANK[fam], order)] = self.binding(fam, order)
        return substitute_jets(e, table)


def pushforward(e: DiffExpr, frame: Optional[ChartFrame] = None) -> DiffExpr:
    """Module-level convenience for ChartFrame.pushforward."""
    return (frame or ChartFrame()).pushforward(e)


@dataclass(frozen=True)
class GlobalityResult:
    ok: bool
    weight: int
    residual: DiffExpr

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def is_global(
    target: Union[Cochain2, Density, DiffExpr],
    weight: Optional[int] = None,
    frame: Optional[ChartFrame] = None,
) -> GlobalityResult:
    """Check pushforward(e) == (h')^(-weight) * e; FAIL keeps the residual."""
    if isinstance(target, (Cochain2, Density)):
        expr = target.coeff
        if weight is None:
            w = target.value_weight if isinstance(target, Cochain2) else target.weight
            if Fraction(w).denominator != 1:
                raise ValueError("globality needs an integer weight")
            weight = int(w)
    else:
        expr = target
        if weight is None:
            raise ValueError("weight is required for a bare expression")
    frame = frame or ChartFrame()
    residual = frame.pushforward(expr) - hinv_power(weight) * expr
    return GlobalityResult(residual.is_zero(), weight, residual)


def transform_connection(which: str, frame: Optional[ChartFrame] = None) -> DiffExpr:
    if which not in ("T", "R"):
        raise ValueError("which must be 'T' or 'R'")
    frame = frame or ChartFrame()
    return frame.binding(which, 0)


# -- correction solver ---------------------------------------------------


def _connection_monomials(weight: int, cap: int) -> List[Tuple[Tuple[str, int], ...]]:
    """Multisets of T/R derivative symbols of the given total weight.

    T^(j) weighs j+1, R^(j) weighs j+2.  Returned in a fixed deterministic
    order as tuples of (family, order) with multiplicity.
    """
    items: List[Tuple[str, int, int]] = []  # (family, order, weight)
    for w in range(1, weight + 1):
        items.append(("T", w - 1, w))
        if w >= 2:
            items.append(("R", w - 2, w))
    items.sort()
    out: List[Tuple[Tuple[str, int], ...]] = []

    def rec(start: int, remaining: int, picked: List[Tuple[str, int]]):
        if remaining == 0:
            out.append(tuple(picked))
            return
        for i in range(start, len(items)):
            fam, order, w = items[i]
            if w <= remaining and order <= cap:
                picked.append((fam, order))
                rec(i, remaining - w, picked)
                picked.pop()

    rec(0, weight, [])
    return sorted(out)


def _mono_expr(symbols: Sequence[Tuple[str, int]], cap: int) -> DiffExpr:
    out = DiffExpr.one()
    for fam, order in symbols:
        out = out * jet(fam, order, cap)
    return out


@dataclass(frozen=True)
class AnsatzTerm:
    p: int
    q: int
    symbols: Tuple[Tuple[str, int], ...]
    expr: DiffExpr

    def label(self) -> str:
        coef = "*".join(f"{fam}[{order}]" for fam, order in self.symbols)
        return f"{coef}*det({self.p},{self.q})" if coef else f"det({self.p},{self.q})"


@dataclass
class CorrectionResult:
    """Affine solution set of the globality+cocycle constraints."""

    symbol: DiffExpr
    weight: int
    module_lambda: Optional[Fraction]
    trivial_action: bool
    ansatz: Tuple[AnsatzTerm, ...]
    feasible: bool
    dimension: int
    coefficients: Dict[int, Fraction]
    nullspace: Tuple[Dict[int, Fraction], ...]

    @property
    def representative(self) -> Optional[Cochain2]:
        return self.member(()) if self.feasible else None

    def member(self, gauge: Sequence[Fraction]) -> Cochain2:
        if not self.feasible:
            raise ValueError("empty solution set")
        coeffs = dict(self.coefficients)
        for t, vec in zip(gauge, self.nullspace):
            for i, v in vec.items():
                coeffs[i] = coeffs.get(i, Fraction(0)) + t * v
        coeff = self.symbol
        for i, v in coeffs.items():
            if v:
                coeff = coeff + self.ansatz[i].expr.scale(v)
        return Cochain2(coeff, self.weight, self.module_lambda or 0, self.trivial_action)

    def contains(self, coeff: DiffExpr) -> bool:
        """Is the given cochain coefficient in the solution set?"""
        if not self.feasible:
            return False
        # decompose by matching leading monomials against the (independent)
        # ansatz expressions
        remaining = coeff - self.symbol
        coords: Dict[int, Fraction] = {}
        for i, term in enumerate(self.ansatz):
            mono, c0 = term.expr.terms()[0]
            c = remaining.coefficient_of(mono)
            if not c.is_zero():
                ratio = c.constant_value() / c0.constant_value()
                coords[i] = ratio
                remaining = remaining - term.expr.scale(ratio)
        if not remaining.is_zero():
            return False
        # verify coords solve the constraints: compare against particular
        # modulo the nullspace
        delta = {i: coords.get(i, Fraction(0)) - self.coefficients.get(i, Fraction(0))
                 for i in range(len(self.ansatz))}
        rows = []
        for i, v in delta.items():
            rows.append(({j: vec.get(i, Fraction(0)) for j, vec in enumerate(self.nullspace)}, v))
        return solve_affine(rows, len(self.nullspace)) is not None


def _jet_variation(family: str, order: int, table: Dict, cap: int) -> DiffExpr:
    """delta family[order] under z -> z + eps X, X carried by the family k
    (memoized in table): delta u^(n+1) = D(delta u^(n)) - X' u^(n+1)."""
    key = (family, order)
    got = table.get(key)
    if got is not None:
        return got
    x1 = jet("k", 1, cap)
    if order:
        out = (total_derivative(_jet_variation(family, order - 1, table, cap), cap)
               - x1 * jet(family, order, cap))
    elif family in ("f", "g"):
        out = x1 * jet(family, 0, cap)
    elif family == "T":
        out = jet("k", 2, cap) - x1 * jet("T", 0, cap)
    elif family == "R":
        out = jet("k", 3, cap) - 2 * x1 * jet("R", 0, cap)
    else:
        out = -x1 * jet("w", 0, cap)
    table[key] = out
    return out


def _linear_residual(e: DiffExpr, weight: int, table: Dict, cap: int) -> DiffExpr:
    """First-order part of pushforward(e) - hinv_power(weight) * e at
    h = z + eps X: weight X' e + sum_n (de/du^(n)) delta u^(n)."""
    out = (jet("k", 1, cap) * e).scale(weight)
    for fam in ("f", "g", "T", "R", "w"):
        for order in range(e.max_order(fam) + 1):
            part = partial_derivative(e, fam, order)
            if not part.is_zero():
                out = out + part * _jet_variation(fam, order, table, cap)
    return out


def _scalar_rows(e: DiffExpr, space: int, index: Optional[int], rows: Dict):
    """Accumulate the coefficients of e into sparse constraint rows."""
    for mono, coef in e.terms():
        c = coef.constant_value()
        row = rows.setdefault((space, mono), [{}, Fraction(0)])
        if index is None:
            row[1] -= c
        else:
            row[0][index] = row[0].get(index, Fraction(0)) + c


def solve_corrections(
    symbol: Union[Cochain2, DiffExpr],
    weight: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_CAP,
    module_lambda: Optional[Union[int, Fraction]] = None,
) -> CorrectionResult:
    """Solve for connection corrections making the symbol global and closed.

    The ansatz spans (monomial in T, R and derivatives) x det(p,q) with the
    same total weight, determinant derivative count p+q strictly below the
    symbol's, and single jets no deeper than the symbol's top order; pure
    determinants are excluded so the symbol is preserved.  Globality and the
    cocycle identity at the module parameter are imposed as exact linear
    constraints; the result is the full affine solution set with a canonical
    representative.

    Globality is imposed by the infinitesimal law of the module docstring,
    w X' e + sum_n (de/du^(n)) delta u^(n) = 0, whose solution set is that
    of the finite law is_global checks, since the group of formal coordinate
    changes with h' > 0 is connected (Kolar-Michor-Slovak 1993).  The cocycle
    rows of an ansatz term m c, with m a T/R monomial and c = det(p,q), come
    by Leibniz from delta c, computed once per (p,q):

        delta(m c) = m delta c + D(m) (f c(g,k) - g c(f,k) + k c(f,g)),

    and the trivial action drops the D(m) part.  The canonical
    representative is the minimal-support point (ties broken
    lexicographically) when the gauge dimension is at most 3 and at most 26
    coordinates are involved, and otherwise the echelon particular solution
    with the free variables set to zero (c5 and c7).
    """
    trivial = False
    if isinstance(symbol, Cochain2):
        expr = symbol.coeff
        weight = symbol.value_weight if weight is None else weight
        trivial = symbol.trivial_action
        if module_lambda is None and not trivial and not symbol.is_symbolic():
            module_lambda = symbol.module_lambda.constant_value()
    else:
        expr = symbol
        if weight is None:
            raise ValueError("weight is required for a bare expression")
    module_lambda = None if trivial else Fraction(
        weight if module_lambda is None else module_lambda)

    if expr.is_zero():
        raise ValueError("the symbol is zero")
    if expr.families() - {"f", "g"}:
        raise ValueError("the symbol must be a flat bilinear expression in f and g")
    if any(coef.degree for coef in expr.coefficient_polys()):
        raise ValueError("the symbol must have rational coefficients, found lam")
    Cochain2(expr, weight)  # raises unless bilinear and antisymmetric

    pq_degrees = set()
    top_single = 0
    for mono, _c in expr.terms():
        orders = [order for (rank, order), e in mono for _ in range(e)]
        pq_degrees.add(sum(orders))
        top_single = max(top_single, max(orders))
    top_pq = max(pq_degrees)

    ansatz: List[AnsatzTerm] = []
    for q in range(1, top_single + 1):
        for p in range(0, q):
            if p + q >= top_pq:
                continue
            coef_weight = weight - (p + q - 2)
            if coef_weight < 1:
                continue
            if coef_weight - 1 > max_order:
                raise OrderCapExceeded(
                    f"ansatz needs connection jets of order {coef_weight - 1} > cap {max_order}"
                )
            for symbols in _connection_monomials(coef_weight, max_order):
                term = _mono_expr(symbols, max_order) * det_expr(p, q, max_order)
                ansatz.append(AnsatzTerm(p, q, symbols, term))
    ansatz.sort(key=lambda t: (t.p, t.q, t.symbols))

    rows: Dict = {}
    variations: Dict[Tuple[str, int], DiffExpr] = {}

    def add_cocycle(delta: DiffExpr, index: Optional[int]):
        if trivial:
            for fam_i, fam in enumerate(_TRANSFORMABLE):
                _scalar_rows(euler_derivative(delta, fam, max_order), 10 + fam_i, index, rows)
        else:
            _scalar_rows(delta, 1, index, rows)

    _scalar_rows(_linear_residual(expr, weight, variations, max_order), 0, None, rows)
    add_cocycle(ce_parts(expr, 2, module_lambda, max_order)[1], None)
    # (p, q) -> (delta c, f c(g,k) - g c(f,k) + k c(f,g)) for c = det(p,q)
    dets: Dict[Tuple[int, int], Tuple[DiffExpr, DiffExpr]] = {}
    for i, term in enumerate(ansatz):
        _scalar_rows(_linear_residual(term.expr, weight, variations, max_order), 0, i, rows)
        p, q = term.p, term.q
        if (p, q) not in dets:
            alternating = sum(
                jet(x, 0, max_order) * (jet(y, p, max_order) * jet(z, q, max_order)
                                        - jet(y, q, max_order) * jet(z, p, max_order))
                for x, y, z in ("fgk", "gkf", "kfg"))
            dets[p, q] = (ce_parts(det_expr(p, q, max_order), 2, module_lambda, max_order)[1],
                          alternating)
        delta_c, alternating = dets[p, q]
        m = _mono_expr(term.symbols, max_order)
        delta = m * delta_c
        if not trivial:
            delta = delta + total_derivative(m, max_order) * alternating
        add_cocycle(delta, i)

    solution = solve_affine(
        ((row, rhs) for row, rhs in rows.values()), len(ansatz)
    )
    if solution is None:
        return CorrectionResult(expr, weight, module_lambda,
                                trivial, tuple(ansatz), False, 0, {}, ())
    coeffs = _canonical_point(solution)
    return CorrectionResult(
        expr, weight, module_lambda, trivial,
        tuple(ansatz), True, solution.dimension, coeffs,
        tuple(solution.nullspace),
    )


def _canonical_point(solution: AffineSolution) -> Dict[int, Fraction]:
    """Canonical point of the affine set.

    When the gauge dimension is at most 3 and at most 26 coordinates occur
    in the nullspace, vertex enumeration over the gauge coordinates picks
    the point of minimal support, ties broken lexicographically.  Otherwise
    it is the echelon particular solution with the free variables set to
    zero; this applies to c5 (dimension 8) and c7 (dimension 17).
    """
    d = solution.dimension
    if d == 0:
        return dict(solution.particular)
    relevant = sorted({i for vec in solution.nullspace for i in vec})
    if d > 3 or len(relevant) > 26:
        return dict(solution.particular)

    candidates = [tuple()]
    candidates += list(itertools.combinations(relevant, d))
    best = None
    for zero_set in candidates:
        if zero_set:
            rows = []
            for i in zero_set:
                coefrow = {j: vec.get(i, Fraction(0)) for j, vec in enumerate(solution.nullspace)}
                rhs = -solution.particular.get(i, Fraction(0))
                rows.append((coefrow, rhs))
            sub = solve_affine(rows, d)
            if sub is None or sub.dimension != 0:
                continue
            gauge = [sub.particular.get(j, Fraction(0)) for j in range(d)]
        else:
            gauge = [Fraction(0)] * d
        point = solution.point(gauge)
        key = (len(point), tuple(point.get(i, Fraction(0)) for i in range(solution.nvars)))
        if best is None or key < best[0]:
            best = (key, point)
    return best[1]


# -- covariant equivalence -------------------------------------------------


@dataclass(frozen=True)
class EquivalenceResult:
    name: str
    ok: bool
    residual: DiffExpr

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


_C7_CACHE: Dict[int, CorrectionResult] = {}


def derive_c7(max_order: int = DEFAULT_ORDER_CAP) -> CorrectionResult:
    """Connection form of the weight-7 generator, from the solver (cached)."""
    got = _C7_CACHE.get(max_order)
    if got is None:
        got = solve_corrections(catalogue("c7", "flat"), max_order=max_order)
        _C7_CACHE[max_order] = got
    return got


def connection_form(name: str, cap: int = DEFAULT_ORDER_CAP) -> Cochain2:
    """Catalogue connection form; the weight-7 one comes from the solver."""
    from .cochains import _ALIASES

    if _ALIASES.get(name, name) == "c7":
        result = derive_c7(cap)
        if not result.feasible:
            raise RuntimeError("the weight-7 correction system is infeasible")
        return result.representative
    return catalogue(name, "connection")


def covariant_equivalence(name: str, cap: int = DEFAULT_ORDER_CAP) -> EquivalenceResult:
    """Covariant form == connection form under R := T' + T^2/2.

    Both sides are written in the same sign package (nabla a = a' + w T a);
    the opposite-sign package corresponds to Gamma = -T with R negated and
    needs no extra normalization here beyond that documented flip.
    """
    cov = catalogue(name, "covariant")
    conn = connection_form(name, cap)
    conn_in_T = substitute(conn.coeff, {"R": projective_from_affine(cap)}, cap)
    residual = conn_in_T - cov.coeff
    return EquivalenceResult(name, residual.is_zero(), residual)
