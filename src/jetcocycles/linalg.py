"""Exact rational linear algebra for the correction solver and certificates.

Systems arrive as sparse rows of exact rationals, and the correction systems are
redundant: the weight-7 one has 507 rows (the solver emits each row only at
its ordered monomial; 1,682 in all), 493 of them distinct up to scale, and
rank 249.  So ``solve_affine`` brings each row to its
primitive integer form and keeps each form once, dropping zero rows and
rows that repeat another up to scale before any elimination.  It then
reduces the distinct rows sparse-first against pivot rows that it keeps
fully reduced, fraction-free as in Bareiss (Math. Comp. 22, 1968), except
that a gcd removes each common factor: every row and its right-hand side
stay one integer vector with no common factor, and values become
rationals only in the answer.  That answer is the reduced echelon form,
which does not depend on the order or the repetition of the rows.  Every
value it returns is in the one canonical form of ``lampoly._rat``: an int
when integral, otherwise a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._record import Record
from .lampoly import Rat, _rat

Row = Dict[int, Rat]


class AffineSolution(Record, frozen=False):
    """Solution set of A x = b: particular point plus nullspace basis."""

    __slots__ = ("nvars", "particular", "nullspace")

    def __init__(self, nvars: int, particular: Row, nullspace: List[Row]):
        self.nvars = nvars
        self.particular = particular
        self.nullspace = nullspace

    @property
    def dimension(self) -> int:
        return len(self.nullspace)

    def point(self, gauge: Sequence[Rat]) -> Row:
        """particular + sum_j gauge[j] nullspace[j]; len(gauge) must be the dimension."""
        if len(gauge) != self.dimension:
            raise ValueError(f"the gauge needs {self.dimension} coordinates, got {len(gauge)}")
        out = dict(self.particular)
        for t, vec in zip(gauge, self.nullspace):
            if t:
                for i, v in vec.items():
                    out[i] = _rat(out.get(i, 0) + t * v)
        return {i: v for i, v in out.items() if v}


def solve_affine(rows: Iterable[Tuple[Row, Rat]], nvars: int) -> Optional[AffineSolution]:
    """Solve the sparse system; None when inconsistent.

    Every row index must be an int in range(nvars) (ValueError otherwise),
    and every entry and right-hand side an exact rational (TypeError
    otherwise).  Each row is scaled to its primitive integer form (cleared
    of denominators, divided by the gcd of its entries, with a positive
    entry of smallest index) and kept once: a zero row with a nonzero
    right-hand side, or two equal forms whose right-hand sides differ, is
    inconsistent at once.  The distinct rows are reduced sparse-first in
    fraction-free integer arithmetic, the pivot rows kept fully reduced;
    values become rationals only in the answer.

    The result is the reduced echelon form, which does not depend on the
    order or the repetition of the rows: the particular solution sets all
    free variables to zero, there is one nullspace vector per free variable,
    and every returned dict is keyed in increasing variable index.
    """
    distinct: Dict[Tuple[Tuple[int, int], ...], Rat] = {}
    for row, rhs in rows:
        rhs = _rat(rhs)
        entries = []
        den = 1
        for i, v in row.items():
            if type(i) is not int or not 0 <= i < nvars:
                raise ValueError(f"row index {i!r} is not an int in range({nvars})")
            if type(v) is not int:
                v = _rat(v)
                if type(v) is not int:
                    den = lcm(den, v.denominator)
            if v:
                entries.append((i, v))
        if not entries:
            if rhs:
                return None
            continue
        entries.sort()
        ints = entries if den == 1 else [(i, v.numerator * (den // v.denominator))
                                         for i, v in entries]
        g = gcd(*[v for _, v in ints])
        if ints[0][1] < 0:
            g = -g
        if g != 1:
            ints = [(i, v // g) for i, v in ints]
        if den != g:
            rhs = _rat(rhs * Fraction(den, g))
        if distinct.setdefault(tuple(ints), rhs) != rhs:
            return None

    # lead -> pivot row, an integer vector over the variables and the
    # right-hand side (at index nvars): p x_lead + sum_j P[j] x_j = P[nvars]
    # with p > 0, content 1, and only free variables besides x_lead
    pivots: Dict[int, Dict[int, int]] = {}
    # the sort is stable, so ties keep arrival order
    for key, rhs in sorted(distinct.items(), key=lambda item: (len(item[0]), item[0][0][0])):
        d = rhs.denominator
        work = {i: v * d for i, v in key}
        if rhs:
            work[nvars] = rhs.numerator
        for col in [i for i in work if i in pivots]:
            _combine(work, pivots[col], col)
        lead = min(work, default=nvars)
        if lead == nvars:
            if work:
                return None
            continue
        if work[lead] < 0:
            work = {i: -v for i, v in work.items()}
        for prow in pivots.values():
            if lead in prow:
                _combine(prow, work, lead)
        pivots[lead] = work

    leads = sorted(pivots)
    particular = {}
    for lead in leads:
        rhs = pivots[lead].get(nvars)
        if rhs:
            particular[lead] = _quotient(rhs, pivots[lead][lead])
    nullspace = []
    for fv in range(nvars):
        if fv not in pivots:
            vec: Row = {lead: _quotient(-pivots[lead][fv], pivots[lead][lead])
                        for lead in leads if fv in pivots[lead]}
            vec[fv] = 1
            nullspace.append(vec)
    return AffineSolution(nvars, particular, nullspace)


def _combine(work: Dict[int, int], pivot: Dict[int, int], col: int) -> None:
    """work := p*work - a*pivot in place, with p = pivot[col] and
    a = work[col] after cancelling their gcd, which clears work[col]; then
    divide work by the gcd of its entries."""
    p, a = pivot[col], work[col]
    g = gcd(p, a)
    if g != 1:
        p //= g
        a //= g
    if p != 1:
        for i in work:
            work[i] *= p
    for i, v in pivot.items():
        nv = work.get(i, 0) - a * v
        if nv:
            work[i] = nv
        else:
            del work[i]
    g = gcd(*work.values())
    if g > 1:
        for i in work:
            work[i] //= g


def _quotient(a: int, b: int) -> Rat:
    """a / b in the ``_rat`` form, for b > 0."""
    g = gcd(a, b)
    return a // g if b == g else Fraction(a // g, b // g)
