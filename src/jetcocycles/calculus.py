"""The Lie action, the bracket, and the covariant derivative on densities.

A weight-w density is its coefficient, a plain DiffExpr; vector fields are
the weight -1 densities.  The weight, or the module parameter lam of the
action, is passed explicitly as an exact rational (anything else is a
TypeError); every result is affine in it.  The sign package used
throughout ("package A") is

    nabla a = a' + w * T * a,      R := T' + T^2/2,

which is the unique choice covariant for the transformation laws
T_beta h' = T_alpha + h''/h' and R_beta (h')^2 = R_alpha + S as stated.
The frequently printed opposite-sign variant corresponds to Gamma = -T with
R negated; the report preamble records the flip.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .expr import DiffExpr, hinv, jet, total_derivative

Weight = Union[int, Fraction]


def lie_action(x: DiffExpr, a: DiffExpr, lam: Weight) -> DiffExpr:
    """L_x a = x a' + lam x' a for a vector field x and a weight-lam density a.

    The derivative goes through every background jet (T, R, w) in a.
    """
    return x * total_derivative(a) + (total_derivative(x) * a).scale(lam)


def bracket(x: DiffExpr, y: DiffExpr) -> DiffExpr:
    """[x, y] = x y' - x' y on vector fields: the action at lam = -1."""
    return lie_action(x, y, -1)


def schwarzian() -> DiffExpr:
    """S(h) = h'''/h' - (3/2)(h''/h')^2, written with hinv."""
    return jet("h", 3) * hinv() - jet("h", 2) ** 2 * hinv() ** 2 * Fraction(3, 2)


def eta() -> DiffExpr:
    """h''/h', the logarithmic derivative of h'."""
    return jet("h", 2) * hinv()


def covariant_derivative(a: DiffExpr, weight: Weight) -> DiffExpr:
    """nabla a = a' + weight * T * a, a density of weight one higher."""
    return total_derivative(a) + (jet("T", 0) * a).scale(weight)


def nabla_power(a: DiffExpr, weight: Weight, n: int) -> DiffExpr:
    """nabla^n a for a of the given weight."""
    for i in range(n):
        a = covariant_derivative(a, weight + i)
    return a


def action_via_nabla(x: DiffExpr, a: DiffExpr, lam: Weight) -> DiffExpr:
    """L_x a = x nabla(a) + lam nabla(x) a for a of weight lam.

    Identical to lie_action: the connection terms cancel.
    """
    return (x * covariant_derivative(a, lam)
            + (covariant_derivative(x, -1) * a).scale(lam))


def projective_from_affine() -> DiffExpr:
    """The associated projective connection R = T' + T^2/2."""
    return jet("T", 1) + jet("T", 0) ** 2 * Fraction(1, 2)
