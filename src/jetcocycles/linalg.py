"""Exact rational linear algebra for the correction solver and certificates.

Systems arrive as sparse rows of exact rationals, and the correction systems are
mostly redundant: the weight-7 one has 1,682 rows, 493 of them distinct up
to scale, and rank 249.  So ``solve_affine`` drops zero rows and rows that
repeat another up to scale before any elimination, then reduces the
distinct rows sparse-first against pivot rows that it keeps fully reduced.
Its answer is the reduced echelon form, which does not depend on the order
or the repetition of the rows.  Every value it stores or returns is in the
one canonical form of ``lampoly._rat``: an int when integral, otherwise a
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .lampoly import Rat, _rat

Row = Dict[int, Rat]


@dataclass
class AffineSolution:
    """Solution set of A x = b: particular point plus nullspace basis."""

    nvars: int
    particular: Row
    nullspace: List[Row]

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

    Each row is scaled so that its entry of smallest index is 1, and rows
    that are equal after scaling are kept once: a zero row with a nonzero
    right-hand side, or two equal scaled rows with different right-hand
    sides, is inconsistent at once.  The distinct rows are then reduced
    sparse-first, by (nnz, leading index) and then arrival order.  The pivot
    rows are kept fully reduced, so each row is cleared of pivot variables
    in one pass and a redundant row costs at most one step per entry.

    The result is the reduced echelon form, which does not depend on the
    order or the repetition of the rows: the particular solution sets all
    free variables to zero, there is one nullspace vector per free variable,
    and every returned dict is keyed in increasing variable index.
    """
    distinct: Dict[Tuple[Tuple[int, Rat], ...], Rat] = {}
    for row, rhs in rows:
        entries = sorted((i, v) for i, v in row.items() if v)
        if not entries:
            if rhs:
                return None
            continue
        inv = _rat(Fraction(1) / entries[0][1])
        key = tuple((i, _rat(v * inv)) for i, v in entries)
        rhs = _rat(rhs * inv)
        if distinct.setdefault(key, rhs) != rhs:
            return None

    # lead -> (tail, rhs): the pivot row is x_lead + tail = rhs, and its tail
    # holds only free variables above lead
    pivots: Dict[int, Tuple[Row, Rat]] = {}
    # the sort is stable, so ties keep arrival order
    for key, rhs in sorted(distinct.items(), key=lambda item: (len(item[0]), item[0][0][0])):
        work = dict(key)
        for col in [i for i in work if i in pivots]:
            tail, prhs = pivots[col]
            rhs = _rat(rhs - _eliminate(work, col, tail) * prhs)
        if not work:
            if rhs:
                return None
            continue
        lead = min(work)
        inv = _rat(Fraction(1) / work.pop(lead))
        work = {i: _rat(v * inv) for i, v in work.items()}
        rhs = _rat(rhs * inv)
        for other, (otail, orhs) in pivots.items():
            if lead in otail:
                pivots[other] = (otail, _rat(orhs - _eliminate(otail, lead, work) * rhs))
        pivots[lead] = (work, rhs)

    leads = sorted(pivots)
    particular = {lead: pivots[lead][1] for lead in leads if pivots[lead][1]}
    nullspace = []
    for fv in range(nvars):
        if fv not in pivots:
            vec: Row = {lead: -pivots[lead][0][fv] for lead in leads if fv in pivots[lead][0]}
            vec[fv] = 1
            nullspace.append(vec)
    return AffineSolution(nvars, particular, nullspace)


def _eliminate(work: Row, col: int, tail: Row) -> Rat:
    """Subtract work[col] times the pivot row x_col + tail from work, in
    place, and return that factor."""
    factor = work.pop(col)
    for i, v in tail.items():
        if i in work:
            nv = _rat(work[i] - factor * v)
            if nv:
                work[i] = nv
            else:
                del work[i]
        else:
            work[i] = _rat(-factor * v)
    return factor
