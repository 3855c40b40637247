"""Densities, the Lie action, and the covariant derivative.

A weight-lam density is carried by its coefficient function; products add
weights and the covariant derivative raises the weight by one.  The sign
package used throughout ("package A") is

    nabla a = a' + weight(a) * T * a,      R := T' + T^2/2,

which is the unique choice covariant for the transformation laws
T_beta h' = T_alpha + h''/h' and R_beta (h')^2 = R_alpha + S as stated.
The frequently printed opposite-sign variant corresponds to Gamma = -T with
R negated; the report preamble records the flip.

Weights are stored doubled so the single half-integer use case (the nabla^2
demonstration on weight -1/2) stays exact; half-integer weights must be
enabled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .expr import (
    DEFAULT_ORDER_CAP,
    DiffExpr,
    hinv,
    jet,
    total_derivative,
)
from .lampoly import LamPoly

WeightLike = Union[int, Fraction]


def _twice(weight: WeightLike, allow_half: bool) -> int:
    w2 = Fraction(weight) * 2
    if w2.denominator != 1:
        raise ValueError(f"weight {weight} is not a half-integer")
    if w2.numerator % 2 and not allow_half:
        raise ValueError(
            f"half-integer weight {weight} requires allow_half=True"
        )
    return w2.numerator


@dataclass(frozen=True)
class Density:
    """A differential-polynomial coefficient with a concrete weight."""

    coeff: DiffExpr
    twice_weight: int
    allow_half: bool = False

    @staticmethod
    def of(coeff: DiffExpr, weight: WeightLike, allow_half: bool = False) -> "Density":
        return Density(coeff, _twice(weight, allow_half), allow_half)

    @property
    def weight(self) -> WeightLike:
        if self.twice_weight % 2 == 0:
            return self.twice_weight // 2
        return Fraction(self.twice_weight, 2)

    def is_vector_field(self) -> bool:
        return self.twice_weight == -2


def vector_field(family: str = "f", cap: int = DEFAULT_ORDER_CAP) -> Density:
    return Density.of(jet(family, 0, cap), -1)


def lie_action(
    fld: Density,
    a: Density,
    module_lambda: Union[LamPoly, int, Fraction, None] = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> Density:
    """L_fld a = fld * a' + lam * fld' * a, weight unchanged.

    The derivative goes through every background jet (T, R, w) in a's
    coefficient; module_lambda defaults to a's weight and may be symbolic.
    """
    if not fld.is_vector_field():
        raise ValueError(f"Lie action needs a weight -1 field, got weight {fld.weight}")
    if module_lambda is None:
        module_lambda = Fraction(a.twice_weight, 2)
    coeff = fld.coeff * total_derivative(a.coeff, cap) + (
        total_derivative(fld.coeff, cap) * a.coeff
    ).scale(module_lambda)
    return Density(coeff, a.twice_weight, a.allow_half)


def bracket(x: Density, y: Density, cap: int = DEFAULT_ORDER_CAP) -> Density:
    """[x, y] = x y' - x' y on vector fields."""
    if not (x.is_vector_field() and y.is_vector_field()):
        raise ValueError("bracket is defined on weight -1 densities")
    coeff = x.coeff * total_derivative(y.coeff, cap) - total_derivative(x.coeff, cap) * y.coeff
    return Density(coeff, -2)


def bracket_expr(x: str = "f", y: str = "g", cap: int = DEFAULT_ORDER_CAP) -> DiffExpr:
    """The bracket of two jet families, e.g. f[0]g[1] - f[1]g[0]."""
    return bracket(vector_field(x, cap), vector_field(y, cap), cap).coeff


def schwarzian(cap: int = DEFAULT_ORDER_CAP) -> DiffExpr:
    """S(h) = h'''/h' - (3/2)(h''/h')^2, written with hinv."""
    return jet("h", 3, cap) * hinv() - jet("h", 2, cap) ** 2 * hinv() ** 2 * Fraction(3, 2)


def eta(cap: int = DEFAULT_ORDER_CAP) -> DiffExpr:
    """h''/h', the logarithmic derivative of h'."""
    return jet("h", 2, cap) * hinv()


def covariant_derivative(a: Density, cap: int = DEFAULT_ORDER_CAP) -> Density:
    """nabla a = a' + weight(a) * T * a; the weight goes up by one."""
    w = Fraction(a.twice_weight, 2)
    coeff = total_derivative(a.coeff, cap) + (jet("T", 0, cap) * a.coeff).scale(w)
    return Density(coeff, a.twice_weight + 2, a.allow_half)


def nabla_power(a: Density, n: int, cap: int = DEFAULT_ORDER_CAP) -> Density:
    for _ in range(n):
        a = covariant_derivative(a, cap)
    return a


def density_product(a: Density, b: Density) -> Density:
    return Density(a.coeff * b.coeff, a.twice_weight + b.twice_weight,
                   a.allow_half or b.allow_half)


def action_via_nabla(fld: Density, a: Density, cap: int = DEFAULT_ORDER_CAP) -> Density:
    """L_fld a = fld * nabla(a) + weight(a) * nabla(fld) * a.

    Identical to lie_action at module lambda = weight(a): the connection
    terms cancel.
    """
    if not fld.is_vector_field():
        raise ValueError(f"expected a weight -1 field, got weight {fld.weight}")
    w = Fraction(a.twice_weight, 2)
    na = covariant_derivative(a, cap)
    nf = covariant_derivative(fld, cap)
    coeff = fld.coeff * na.coeff + (nf.coeff * a.coeff).scale(w)
    return Density(coeff, a.twice_weight, a.allow_half)


def projective_from_affine(cap: int = DEFAULT_ORDER_CAP) -> DiffExpr:
    """The associated projective connection R = T' + T^2/2."""
    return jet("T", 1, cap) + jet("T", 0, cap) ** 2 * Fraction(1, 2)
