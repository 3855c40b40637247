"""Grammar round trips and error positions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from jetcocycles.cochains import catalogue, det_expr
from jetcocycles.expr import DiffExpr, OrderCapExceeded, hinv, jet
from jetcocycles.calculus import schwarzian
from jetcocycles.syntax import ExprSyntaxError, parse_expr, to_text

from helpers import random_expr
from test_expr import exprs


def test_det_shorthand():
    assert parse_expr("det(0,1)") == det_expr(0, 1)
    assert parse_expr("det(0,3) - 2*R[0]*det(0,1)") == catalogue("cbar2", "connection").coeff


def test_schwarzian_shorthand():
    assert parse_expr("S") == schwarzian()
    assert parse_expr("S - h[3]*hinv") == schwarzian() - jet("h", 3) * hinv()


def test_rationals_lam_powers():
    """Rational coefficients and powers parse; lam is no name of the grammar
    (a coefficient is rational), so it is an error at its offset."""
    assert parse_expr("3/2*f[0]^2") == jet("f", 0) ** 2 * Fraction(3, 2)
    assert parse_expr("(1/2 + 3)*(w[0] - 1)^2") == \
        DiffExpr.rational(Fraction(7, 2)) * (jet("w", 0) - 1) ** 2
    for text, offset in (("lam", 0), ("lam^2*T[0] - lam", 0), ("(1/2 + lam)*(w[0] - 1)", 7)):
        with pytest.raises(ExprSyntaxError, match="unknown name 'lam'") as err:
            parse_expr(text)
        assert err.value.pos == offset


def test_whitespace_insignificant():
    assert parse_expr(" det( 0 , 1 ) ") == parse_expr("det(0,1)")


@pytest.mark.parametrize("text,offset", [
    ("f[", 2),
    ("det(1,1)", 6),
    ("det(2,1)", 4),
    ("q[2]", 0),
    ("f[0", 3),
    ("(f[0]", 5),
    ("f[0]*", 5),
    ("", 0),
])
def test_error_positions(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.pos == offset
    assert f"offset {offset}" in str(err.value)


def test_order_cap_in_parser():
    # the cap bounds the parsed expression, det(p,q) included
    for text in ("f[13]", "det(0,13)", "f[0] + T[13]*R[2]"):
        with pytest.raises(OrderCapExceeded, match="jet order 13 exceeds cap 12"):
            parse_expr(text)
    assert parse_expr("f[13]", 13) == jet("f", 13)


def test_round_trip_fixed():
    cases = [
        DiffExpr.zero(),
        DiffExpr.rational(Fraction(-7, 3)),
        schwarzian(),
        catalogue("c5", "connection").coeff,
        catalogue("cbar1", "omega").coeff,
        det_expr(3, 6).scale(Fraction(-2, 5)) + hinv() ** 3,
    ]
    for e in cases:
        assert parse_expr(to_text(e)) == e


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(120):
        e = random_expr(rng, families=("f", "g", "k", "T", "R", "w", "h"),
                        max_order=4, terms=4, factors=3, with_hinv=True)
        assert parse_expr(to_text(e)) == e


@settings(max_examples=80, deadline=None)
@given(exprs(depth=3))
def test_round_trip_property(e):
    assert parse_expr(to_text(e)) == e


def test_printer_is_deterministic():
    e = catalogue("c5", "connection").coeff
    assert to_text(e) == to_text(parse_expr(to_text(e)))
