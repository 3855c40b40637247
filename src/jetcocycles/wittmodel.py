"""Concrete realization on the punctured plane.

Genus 0 with two punctures is the flat setting: a global coordinate z, all
bundles trivialized, T = R = 0.  Vector fields are Laurent polynomials
times d/dz with basis L_m = z^(m+1) d/dz, densities are Laurent polynomials
times (dz)^w, and the pairing against the cycle around the puncture is the
residue at 0.  Everything is exact.

Grading: z^s (dz)^w has degree s and L_m degree m, so a determinant cochain
built from orders p, q shifts degree by 2-(p+q).  The graded structure is
what makes the non-triviality certificates finite: if c = delta b globally,
the degree-d component of b solves the windowed system, so infeasibility of
that exact linear system proves the class nonzero.  Feasibility proves
nothing (hence INCONCLUSIVE).
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, Optional, Tuple, Union

from ._record import Record
from .cochains import Cochain2, _derivative_counts, catalogue, ce_differential, coeff_and_weight
from .expr import DiffExpr, FAMILIES
from .lampoly import LamPoly, Rat, _rat
from .linalg import solve_affine
from .syntax import _join


def _laurent_coeffs(coeffs: Dict[int, Rat]) -> Tuple[Tuple[int, Rat], ...]:
    """Sorted (degree, coefficient) pairs in the ``_rat`` form, zeros dropped;
    a degree that is not an integer is a TypeError."""
    clean = {operator.index(s): _rat(c) for s, c in coeffs.items()}
    return tuple(sorted((s, q) for s, q in clean.items() if q))


class LaurentDensity(Record):
    """Finite Laurent polynomial sum a_s z^s carrying (dz)^weight, a ``_rat``
    rational (``of`` refuses any other): the lam of laurent_action."""

    __slots__ = ("coeffs", "weight")

    def __init__(self, coeffs: Tuple[Tuple[int, Rat], ...], weight: Rat):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weight", weight)

    @staticmethod
    def of(coeffs: Dict[int, Rat], weight: Rat) -> "LaurentDensity":
        return LaurentDensity(_laurent_coeffs(coeffs), _rat(weight))

    @staticmethod
    def monomial(s: int, weight: Rat, coeff: Rat = 1) -> "LaurentDensity":
        return LaurentDensity.of({s: coeff}, weight)

    def as_dict(self) -> Dict[int, Rat]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentDensity") -> "LaurentDensity":
        if self.weight != other.weight:
            raise ValueError("cannot add densities of different weights")
        out = self.as_dict()
        for s, c in other.coeffs:
            out[s] = out.get(s, 0) + c
        return LaurentDensity.of(out, self.weight)

    def __neg__(self) -> "LaurentDensity":
        return LaurentDensity(tuple((s, -c) for s, c in self.coeffs), self.weight)

    def __sub__(self, other: "LaurentDensity") -> "LaurentDensity":
        return self + (-other)

    def scale(self, q: Rat) -> "LaurentDensity":
        q = _rat(q)
        if not q:
            return LaurentDensity((), self.weight)
        return LaurentDensity(tuple((s, _rat(c * q)) for s, c in self.coeffs), self.weight)

    def describe(self) -> str:
        pieces = []
        for s, c in self.coeffs:
            mag = abs(c)
            z = "1" if s == 0 else ("z" if s == 1 else f"z^{s}")
            piece = z if (mag == 1 and s != 0) else (str(mag) if s == 0 else f"{mag}*{z}")
            pieces.append(("-" if c < 0 else "+", piece))
        return f"({_join(pieces)}) (dz)^{self.weight}"


class WittField(Record):
    """Laurent vector field: coefficient of d/dz; L_m is z^(m+1) d/dz."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[Tuple[int, Rat], ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def basis(m: int) -> "WittField":
        return WittField.of({m + 1: 1})

    @staticmethod
    def of(coeffs: Dict[int, Rat]) -> "WittField":
        return WittField(_laurent_coeffs(coeffs))

    def as_density(self) -> LaurentDensity:
        return LaurentDensity(self.coeffs, -1)

    def bracket(self, other: "WittField") -> "WittField":
        """[x, y] = x y' - x' y: the action on vector fields, at lam = -1."""
        return WittField(laurent_action(self, other.as_density()).coeffs)


def laurent_action(fld: WittField, a: LaurentDensity) -> LaurentDensity:
    """L_fld a = fld a' + lam fld' a, where lam is the weight of a: the one
    module parameter of the Laurent layer, a ``_rat`` rational.  Computed by
    the basis rule, summed over the terms x z^(m+1) d/dz of fld and c z^s of a:

        L_m z^s (dz)^lam = (s + lam (m+1)) z^(m+s) (dz)^lam.
    """
    lam = a.weight
    out: Dict[int, Rat] = {}
    for k, x in fld.coeffs:      # k = m + 1
        for s, c in a.coeffs:
            d = k - 1 + s
            out[d] = out.get(d, 0) + x * c * (s + lam * k)
    return LaurentDensity.of(out, lam)


def evaluate_cochain(c: Union[Cochain2, DiffExpr], m: int, n: int,
                     weight: Optional[Rat] = None) -> LaurentDensity:
    """Value of a flat cochain on (L_m, L_n): substitute f = z^(m+1),
    g = z^(n+1) and differentiate exactly.  The coefficient must be free of
    lam (see Cochain2.at_lambda).  The value's weight, which laurent_action
    acts at, is a given weight, else a Cochain2's concrete module parameter,
    else its value weight (trivial action or symbolic module)."""
    if weight is None and isinstance(c, Cochain2) and not (c.trivial_action or c.is_symbolic()):
        weight = c.module_lambda
    expr, weight = coeff_and_weight(c, weight)
    fams = expr.families()
    if fams - {"f", "g"}:
        raise ValueError(f"flat cochain expected; found families {sorted(fams - {'f', 'g'})}")
    exps = {"f": m + 1, "g": n + 1}
    out: Dict[int, Rat] = {}
    for mono, cval in expr.terms():
        if type(cval) is LamPoly:
            raise ValueError("cochain depends on lam; substitute a value first")
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


def residue_pair(a: LaurentDensity) -> Rat:
    """Pairing of a 1-form with the cycle around the puncture: the z^-1
    coefficient.  Genus 0 with two punctures has a single cycle class."""
    if a.weight != 1:
        raise ValueError(f"residue pairing needs a 1-form, got weight {a.weight}")
    return a.as_dict().get(-1, 0)


def kn_value(m: int, n: int) -> Rat:
    """Residue-paired value of the weight-1 integrand (flat chart, R = 0):
    Res_0[ (f g''' - g f''')/2 ] = -(m^3 - m) when n = -m, else 0."""
    integrand = evaluate_cochain(catalogue("c0w", "flat"), m, n)
    return residue_pair(integrand)


# -- non-triviality certificates -----------------------------------------


class CertificateResult(Record):
    """verdict is "NONTRIVIAL" or "INCONCLUSIVE"; module_lambda is the
    cochain's own, None for the trivial action."""

    __slots__ = ("verdict", "window", "module_lambda", "degree_shift")

    def __init__(self, verdict: str, window: int, module_lambda: Optional[Rat],
                 degree_shift: Optional[int]):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "module_lambda", module_lambda)
        object.__setattr__(self, "degree_shift", degree_shift)

    @property
    def trivial_action(self) -> bool:
        return self.module_lambda is None

    @property
    def ok(self) -> bool:
        return self.verdict == "NONTRIVIAL"


def _coboundary_rows(window: int, lam: Optional[Rat],
                     shift: Optional[int]) -> Iterator[Tuple[int, int, Dict[int, Rat]]]:
    """(m, n, row) for m < n and |m|, |n|, |m+n| <= window: the row holds
    delta b(L_m, L_n) = L_m b(L_n) - L_n b(L_m) - b([L_m, L_n]) in the
    unknowns b(L_j) = beta_j z^(j+shift) (dz)^lam, beta_j in column
    window + j; the trivial action (lam None) keeps -b([L_m, L_n]) alone."""
    for m in range(-window, window + 1):
        for n in range(m + 1, window + 1):
            if abs(m + n) > window:
                continue
            row: Dict[int, Rat] = {}
            if lam is not None:
                row[window + n] = n + shift + lam * (m + 1)
                row[window + m] = -(m + shift + lam * (n + 1))
            row[window + m + n] = row.get(window + m + n, 0) - (n - m)
            yield m, n, {i: q for i, q in row.items() if q}


def _require_window(window: int) -> None:
    if window < 1:
        raise ValueError(f"the window must be at least 1, got {window}")


def nontriviality_certificate(c: Cochain2, window: int = 6) -> CertificateResult:
    """Exact graded obstruction to c = delta b on the window.

    For a graded density-valued cochain the unknowns are the coefficients
    b(L_m) = beta_m z^(m+d) (dz)^lam for |m| <= window; the equations are
    delta b (L_m, L_n) = c(L_m, L_n) for all |m|, |n|, |m+n| <= window.  Any
    global primitive restricts to a solution of this projected system, so
    infeasibility is a proof of non-triviality.  The grading is read from
    the symbol: f^(a) g^(b) sends (L_m, L_n) to degree m + n + 2 - (a+b), so
    every monomial must have the same derivative count a+b, and the shift
    is d = 2 - (a+b).  With trivial action (module_lambda None) the values
    pair to constants: the right-hand side is the residue, so the values
    must be 1-forms (value weight 1, refused first otherwise).  A symbolic
    module is refused, and c must be a cocycle for its module (zero
    ce_differential).  A non-cocycle would make the system infeasible
    without being non-trivial.  The window must be at least 1.
    """
    _require_window(window)
    if c.trivial_action and c.value_weight != 1:
        raise ValueError("the trivial action pairs 1-form values to constants, "
                         f"got value weight {c.value_weight}")
    if c.is_symbolic():
        raise ValueError("a concrete module parameter is required")
    if not ce_differential(c).is_zero():
        raise ValueError("the cochain is not a cocycle for its module")

    lam, shift = c.module_lambda, None
    if lam is not None:
        counts = _derivative_counts(c.coeff)
        if not counts:
            return CertificateResult("INCONCLUSIVE", window, c.module_lambda, None)
        if len(counts) > 1:
            raise ValueError(f"cochain is not graded: derivative counts {sorted(counts)} occur")
        shift = 2 - counts.pop()

    rows = []
    for m, n, row in _coboundary_rows(window, lam, shift):
        value = evaluate_cochain(c, m, n)
        rhs = residue_pair(value) if lam is None else value.as_dict().get(m + n + shift, 0)
        rows.append((row, rhs))
    feasible = solve_affine(rows, 2 * window + 1) is not None
    return CertificateResult("INCONCLUSIVE" if feasible else "NONTRIVIAL",
                             window, c.module_lambda, shift)
