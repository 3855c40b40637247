"""Univariate polynomials over Q in the module parameter ``lam``, and the
one form of an exact rational.

A LamPoly is no kernel coefficient and no ring element: it is built from
its coefficient tuple, ``LamPoly.lam()`` is a cochain's symbolic module,
and gcd_all and rational_roots find the isolated lam of a pencil.  It has
no arithmetic operators (``LAM - 1`` is a TypeError).  A degree-0
polynomial compares and hashes like its value.

Every exact rational here, and in the layers built on it, has one canonical
form (``_rat``): an integral value is a plain ``int``, and a ``Fraction``
always has denominator > 1.  Almost every coefficient the paper needs is an
integer, so the arithmetic mostly stays on ``int``.  ``int`` and ``Fraction``
compare and hash alike, so the form changes no verdict and no printed text.
The one hazard is true division: ``int / int`` is a float, so every ``/`` on
a value has a ``Fraction`` operand, as in ``Fraction(a) / b``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _rat(q) -> Rat:
    """The canonical form of an exact rational: an int when integral (a bool
    becomes its int), otherwise a Fraction.  Anything else, floats included,
    is a TypeError."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, int):
        return int(q)
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


class LamPoly:
    """Immutable polynomial in ``lam`` with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of ``lam**i``, in the ``_rat`` form;
    trailing zeros are stripped, so the zero polynomial has an empty
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LamPoly is immutable")

    @staticmethod
    def const(q: Rat) -> "LamPoly":
        return LamPoly((q,))

    @staticmethod
    def lam() -> "LamPoly":
        return LamPoly((0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, LamPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            cs = self.coeffs
            return len(cs) <= 1 and (cs[0] if cs else 0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes like its value, since the two compare equal
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0]) if cs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"LamPoly({self.coeffs})"

    def eval(self, lam_value: Rat) -> Rat:
        """Evaluate at a rational value of lam (Horner)."""
        x = _rat(lam_value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _rat(acc)

    def monic(self) -> "LamPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return LamPoly(tuple(Fraction(c) / lead for c in self.coeffs))

    def divmod(self, other: "LamPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = Fraction(rem[-1]) / lead
            quo[shift] = factor
            for i, c in enumerate(div):
                rem[shift + i] -= factor * c
            rem.pop()
        return LamPoly(quo), LamPoly(rem)

    def gcd(self, other: "LamPoly") -> "LamPoly":
        """Monic gcd over Q (Euclid)."""
        a, b = self, other
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r
        return a.monic()


def gcd_all(polys: Iterable[LamPoly]) -> LamPoly:
    acc = LamPoly()
    for p in polys:
        acc = acc.gcd(p)
        if acc.is_constant() and not acc.is_zero():
            return acc
    return acc


def rational_roots(p: LamPoly) -> list[Rat]:
    """All rational roots of p, ascending.  p must be nonzero."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    coeffs = list(p.coeffs)
    roots = []
    # factor out lam^v
    v = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        v += 1
    if v:
        roots.append(0)
    if len(coeffs) > 1:
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        q = LamPoly(coeffs)
        for num in _divisors(a0):
            for d in _divisors(an):
                for cand in (_rat(Fraction(num, d)), _rat(Fraction(-num, d))):
                    if cand not in roots and q.eval(cand) == 0:
                        roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)
