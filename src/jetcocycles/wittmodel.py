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

A flat cochain is evaluated from one integer table (_compile), and
``LaurentDensity.of`` is the one validator of outside input.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import lcm
from typing import Dict, Iterator, Optional, Tuple, Union

from ._record import Record
from .cochains import Cochain2, _derivative_counts, catalogue, ce_differential, coeff_and_weight
from .expr import DiffExpr, Monomial
from .lampoly import Rat, _rat
from .linalg import solve_affine
from .syntax import _join


def _sorted_nonzero(out: Dict[int, Rat]) -> Tuple[Tuple[int, Rat], ...]:
    """Sorted (degree, coefficient) pairs, each coefficient in the ``_rat``
    form (anything else, floats included, is a TypeError), zeros dropped."""
    return tuple(sorted([(s, q) for s, v in out.items() if (q := _rat(v))]))


def _index(x) -> int:
    """x as an int: a bool, a float or another non-integer is a TypeError."""
    if type(x) is bool:
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


def _laurent_coeffs(coeffs: Dict[int, Rat]) -> Tuple[Tuple[int, Rat], ...]:
    """_sorted_nonzero of outside input: a degree that is not an integer (a
    bool included) is also a TypeError."""
    return _sorted_nonzero({_index(s): c for s, c in coeffs.items()})


class LaurentDensity(Record):
    """Finite Laurent polynomial sum a_s z^s carrying (dz)^weight, a ``_rat``
    rational (``of`` refuses any other): the lam of laurent_action.  The
    constructor takes its canonical tuple as given."""

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

    def _merged(self, other: "LaurentDensity", op) -> "LaurentDensity":
        """self op other degree by degree, op being operator.add or .sub."""
        if self.weight != other.weight:
            raise ValueError("cannot add densities of different weights")
        out = dict(self.coeffs)
        for s, c in other.coeffs:
            out[s] = op(out.get(s, 0), c)
        return LaurentDensity(_sorted_nonzero(out), self.weight)

    def __add__(self, other: "LaurentDensity") -> "LaurentDensity":
        return self._merged(other, operator.add)

    def __neg__(self) -> "LaurentDensity":
        return LaurentDensity(tuple((s, -c) for s, c in self.coeffs), self.weight)

    def __sub__(self, other: "LaurentDensity") -> "LaurentDensity":
        return self._merged(other, operator.sub)

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
        return WittField.of({_index(m) + 1: 1})

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

        L_m z^s (dz)^lam = (s + lam (m+1)) z^(m+s) (dz)^lam,

    as c * (x * (s + lam (m+1))), the integers first.  A float coefficient,
    degree or weight in a density built past ``of`` is still a TypeError at
    the ``_rat`` of the weight or of a value, where a float degree lands.
    """
    lam = _rat(a.weight)
    out: Dict[int, Rat] = {}
    for k, x in fld.coeffs:      # k = m + 1
        for s, c in a.coeffs:
            d = k - 1 + s
            v = c * (x * (s + lam * k))
            out[d] = out[d] + v if d in out else v
    return LaurentDensity(_sorted_nonzero(out), lam)


# A flat, lam-free coefficient in integers: (D, top, terms) with D the common
# denominator, top the highest jet order, and per monomial its numerator over
# D and the monomial, whose ((rank, order), exponent) factors have rank 0 for
# f and 1 for g (their places in expr.FAMILIES).
Table = Tuple[int, int, Tuple[Tuple[int, Monomial], ...]]


def _compile(expr: DiffExpr) -> Table:
    """The table of a flat coefficient; a family other than f and g is a
    ValueError."""
    fams = expr.families()
    if fams - {"f", "g"}:
        raise ValueError(f"flat cochain expected; found families {sorted(fams - {'f', 'g'})}")
    terms = expr._terms.items()
    den, top = 1, 0
    for mono, c in terms:
        den = lcm(den, c.denominator)
        for (_rank, order), _e in mono:
            top = max(top, order)
    return den, top, tuple((c.numerator * (den // c.denominator), mono) for mono, c in terms)


def _numerators(table: Table, m: int, n: int) -> Dict[int, int]:
    """Degree -> numerator over D of the table's value at (L_m, L_n), with
    f = z^(m+1), g = z^(n+1): a monomial prod u^(j)^e gives its numerator
    times the falling factorials prod (base)_j^e at degree sum e (base - j).
    An m or n that is not an integer (a bool included) is a TypeError."""
    _den, top, terms = table
    bases = (_index(m) + 1, _index(n) + 1)
    # falls[rank][j] = base (base-1) ... (base-j+1), what d^j/dz^j brings down
    falls = [list(accumulate(range(b, b - top, -1), operator.mul, initial=1)) for b in bases]
    out: Dict[int, int] = {}
    for num, factors in terms:
        z = 0
        for (rank, order), e in factors:
            num *= falls[rank][order] ** e
            z += e * (bases[rank] - order)
        out[z] = out.get(z, 0) + num
    return out


def _coefficient(table: Table, m: int, n: int, degree: int) -> Rat:
    """The z^degree coefficient of the table's value at (L_m, L_n)."""
    return _rat(Fraction(_numerators(table, m, n).get(degree, 0), table[0]))


def evaluate_cochain(c: Union[Cochain2, DiffExpr], m: int, n: int,
                     weight: Optional[Rat] = None) -> LaurentDensity:
    """Value of a flat cochain on (L_m, L_n): f = z^(m+1), g = z^(n+1),
    differentiated exactly, at a given weight, else a Cochain2's concrete
    module parameter, else its value weight (trivial action or symbolic
    module).  A jet other than f and g is a ValueError; a non-integer m or
    n (a bool included), or a float weight, is a TypeError."""
    if weight is None and isinstance(c, Cochain2) and not (c.trivial_action or c.is_symbolic()):
        weight = c.module_lambda
    expr, weight = coeff_and_weight(c, weight)
    table = _compile(expr)
    weight = _rat(weight)
    den = table[0]
    out = {s: Fraction(v, den) for s, v in _numerators(table, m, n).items()}
    return LaurentDensity(_sorted_nonzero(out), weight)


def residue_pair(a: LaurentDensity) -> Rat:
    """Pairing of a 1-form with the cycle around the puncture: the z^-1
    coefficient.  Genus 0 with two punctures has a single cycle class."""
    if a.weight != 1:
        raise ValueError(f"residue pairing needs a 1-form, got weight {a.weight}")
    return a.as_dict().get(-1, 0)


@cache
def _kn_table() -> Table:
    """c0w's flat form compiled: a catalogue constant, once per process."""
    return _compile(catalogue("c0w", "flat").coeff)


def kn_value(m: int, n: int) -> Rat:
    """Residue-paired value of the weight-1 integrand (flat chart, R = 0):
    Res_0[ (f g''' - g f''')/2 ] = -(m^3 - m) when n = -m, else 0: the z^-1
    coefficient of c0w's 1-form value, read from c0w's table."""
    return _coefficient(_kn_table(), m, n, -1)


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
    """A ValueError unless the window is an int (not a bool) of at least 1."""
    if type(window) is not int:
        raise ValueError(f"the window must be an int, got {window!r}")
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

    table = _compile(c.coeff)
    rows = [(row, _coefficient(table, m, n, -1 if lam is None else m + n + shift))
            for m, n, row in _coboundary_rows(window, lam, shift)]
    feasible = solve_affine(rows, 2 * window + 1) is not None
    return CertificateResult("INCONCLUSIVE" if feasible else "NONTRIVIAL",
                             window, c.module_lambda, shift)
