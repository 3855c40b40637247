"""The Lie action, bracket, Schwarzian and covariant derivative on densities."""

import random
from fractions import Fraction

import pytest

from jetcocycles.calculus import (
    action_via_nabla,
    bracket,
    covariant_derivative,
    eta,
    lie_action,
    nabla_power,
    projective_from_affine,
    schwarzian,
)
from jetcocycles.expr import jet, substitute, total_derivative as D
from jetcocycles.lampoly import LamPoly

from helpers import eval_rational, random_expr


def test_lie_action_specializations():
    f = jet("f", 0)
    out = lie_action(f, jet("g", 0), 0)
    assert out == jet("f", 0) * jet("g", 1)
    # adjoint action kills itself
    assert lie_action(f, f, -1).is_zero()
    # lam enters linearly, and is a rational: a symbolic one is a TypeError
    for lam in (2, Fraction(-3, 2)):
        assert lie_action(f, jet("g", 0), lam) == out + (jet("f", 1) * jet("g", 0)).scale(lam)
    with pytest.raises(TypeError):
        lie_action(f, jet("g", 0), LamPoly.lam())


def test_lie_action_differentiates_backgrounds():
    out = lie_action(jet("f", 0), jet("T", 0) * jet("g", 0), 1)
    expected = jet("f", 0) * (jet("T", 1) * jet("g", 0) + jet("T", 0) * jet("g", 1)) \
        + jet("f", 1) * jet("T", 0) * jet("g", 0)
    assert out == expected


def test_bracket_properties():
    f, g, k = jet("f", 0), jet("g", 0), jet("k", 0)
    assert bracket(f, f).is_zero()
    assert bracket(f, g) == -bracket(g, f)
    # Jacobi through a third field
    jac = bracket(bracket(f, g), k)
    jac = jac + substitute(bracket(f, g), {"f": bracket(g, k), "g": jet("f", 0)})
    jac = jac + substitute(bracket(f, g), {"f": bracket(k, f), "g": jet("g", 0)})
    assert jac.is_zero()


def test_schwarzian():
    S = schwarzian()
    affine = {("h", 1): Fraction(5, 3), ("h", 2): 0, ("h", 3): 0}
    assert eval_rational(S, affine) == 0
    assert eval_rational(S, {("h", 1): 1, ("h", 2): 1, ("h", 3): 1}) == Fraction(-1, 2)
    e = eta()
    assert S == D(e) - e ** 2 * Fraction(1, 2)


def test_covariant_derivative_weights():
    assert covariant_derivative(jet("w", 0), 0) == jet("w", 1)      # plain D on weight 0
    rng = random.Random(2)
    for w in (-1, 0, 1, 2, 5, 7):
        a = random_expr(rng, families=("f", "T", "R"))
        assert covariant_derivative(a, w) == D(a) + (jet("T", 0) * a).scale(w)
        # the second step acts on weight w + 1
        assert nabla_power(a, w, 2) == covariant_derivative(covariant_derivative(a, w), w + 1)
    for lam in (Fraction(1, 3), -4):
        assert covariant_derivative(jet("w", 0), lam) \
            == jet("w", 1) + (jet("T", 0) * jet("w", 0)).scale(lam)
    with pytest.raises(TypeError):
        covariant_derivative(jet("w", 0), LamPoly.lam())


def test_bracket_via_nabla():
    f, g = jet("f", 0), jet("g", 0)
    combo = f * covariant_derivative(g, -1) - covariant_derivative(f, -1) * g
    assert combo == bracket(f, g)  # the T terms cancel


def test_nabla_squared_on_half_density():
    out = nabla_power(jet("w", 0), Fraction(-1, 2), 2)
    # equals (d^2 - R/2) phi under R = T' + T^2/2; the often-quoted +R/2
    # belongs to the opposite-sign package where R is negated
    R = projective_from_affine()
    expected = D(D(jet("w", 0))) - (R * jet("w", 0)).scale(Fraction(1, 2))
    assert out == expected


def test_action_via_nabla_matches_lie_action():
    f = jet("f", 0)
    a = jet("w", 0) * jet("R", 0)
    for w in (0, 1, 2, 5, 7, -1, 3, Fraction(1, 2), Fraction(-7, 3)):
        assert action_via_nabla(f, a, w) == lie_action(f, a, w)


def test_worked_nabla_cubed_expansion():
    # nabla^3 on a vector field: f''' - T''f - 2T'f' - TT'f - T^2 f'
    out = nabla_power(jet("f", 0), -1, 3)
    T0, T1, T2 = jet("T", 0), jet("T", 1), jet("T", 2)
    expected = jet("f", 3) - T2 * jet("f", 0) - 2 * T1 * jet("f", 1) \
        - T0 * T1 * jet("f", 0) - T0 ** 2 * jet("f", 1)
    assert out == expected
