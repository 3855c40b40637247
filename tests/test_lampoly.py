import random
from fractions import Fraction
from itertools import product

import pytest

from jetcocycles import lampoly
from jetcocycles.lampoly import LamPoly, gcd_all, rational_roots

from helpers import LAM, is_canonical

# polynomials are written as coefficient tuples, lowest degree first
P12 = LamPoly((2, -3, 1))          # (lam-1)(lam-2)
P15 = LamPoly((-5, 4, 1))          # (lam-1)(lam+5)
ROOTS = LamPoly((0, -3, -1, 2))    # (2 lam-3)(lam+1) lam
POINTS = (0, 1, -2, 3, Fraction(1, 2), Fraction(-7, 3))


def _is_division(p, d, quo, rem):
    """p = quo * d + rem with deg rem < deg d, read at several points."""
    assert len(rem.coeffs) < len(d.coeffs)
    return all(p.eval(x) == quo.eval(x) * d.eval(x) + rem.eval(x) for x in POINTS)


def test_normalization_strips_zeros():
    assert LamPoly((1, 0, 0)).coeffs == (Fraction(1),)
    assert LamPoly((0, 0)).is_zero()
    assert LamPoly().coeffs == () and LamPoly().is_constant()


def test_there_is_no_arithmetic():
    """A LamPoly is no ring element: a polynomial is its coefficient tuple."""
    for op in (lambda: LAM + 1, lambda: 1 - LAM, lambda: LAM * LAM, lambda: -LAM,
               lambda: LAM - LAM, lambda: 2 * LAM):
        with pytest.raises(TypeError):
            op()
    for name in ("zero", "one", "degree"):
        assert not hasattr(LamPoly, name)
    for name in ("_new", "_set_coeffs", "ZERO"):
        assert not hasattr(lampoly, name)


def test_divmod_and_gcd():
    assert P12.eval(1) == 0 and P12.eval(2) == 0 and P12.eval(3) == 2
    quo, rem = P12.divmod(LamPoly((-1, 1)))
    assert rem.is_zero() and quo == LamPoly((-2, 1))
    assert P12.gcd(P15) == LamPoly((-1, 1))
    assert gcd_all([P12, P15, LamPoly((0, -1, 1))]) == LamPoly((-1, 1))
    assert gcd_all([P12, LamPoly.const(3)]).is_constant()
    assert gcd_all([]).is_zero()


def test_rational_roots():
    assert rational_roots(ROOTS) == [Fraction(-1), Fraction(0), Fraction(3, 2)]
    assert rational_roots(LamPoly((1, 0, 1))) == []
    with pytest.raises(ValueError):
        rational_roots(LamPoly())


def test_hashable_and_eq():
    assert hash(LamPoly((Fraction(2, 2), True))) == hash(LamPoly((1, 1)))
    assert LamPoly.const(2) == 2
    assert {LAM: "x"}[LamPoly((0, 1))] == "x"
    assert 3 in {LamPoly.const(3)} and LamPoly.const(3) in {3}
    assert Fraction(1, 2) in {LamPoly.const(Fraction(1, 2))}
    assert 0 in {LamPoly()} and LamPoly() in {0}
    assert hash(LamPoly.const(Fraction(-7, 3))) == hash(Fraction(-7, 3))


def test_constructor_stores_the_canonical_form():
    p = LamPoly((Fraction(4, 2), True, Fraction(1, 3), False, Fraction(-6, 3)))
    assert p.coeffs == (2, 1, Fraction(1, 3), 0, -2)
    assert [type(c) for c in p.coeffs] == [int, int, Fraction, int, int]
    assert type(LamPoly((True,)).coeffs[0]) is int
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            LamPoly((bad,))


def test_division_stays_exact():
    assert LamPoly((2, 4)).monic().coeffs == (Fraction(1, 2), 1)
    assert all(is_canonical(c) for c in LamPoly((2, 4)).monic().coeffs)
    p = LamPoly((3, 0, 2))                       # 2 lam^2 + 3
    quo, rem = p.divmod(LamPoly((1, 2)))         # by 2 lam + 1
    assert quo.coeffs == (Fraction(-1, 2), 1) and rem.coeffs == (Fraction(7, 2),)
    assert _is_division(p, LamPoly((1, 2)), quo, rem)
    quo, rem = (LamPoly((-1, 0, 1))).divmod(LamPoly((1, 1)))
    assert quo.coeffs == (-1, 1) and rem.is_zero()
    for c in quo.coeffs + rem.coeffs + p.gcd(LamPoly((0, 2))).coeffs:
        assert is_canonical(c)
    assert all(is_canonical(r) for r in rational_roots(ROOTS))
    assert type(LAM.eval(Fraction(4, 2))) is int


def _random_poly(rng):
    """Degree -1..3 with some internal zeros and some non-integral entries."""
    return LamPoly(Fraction(rng.choice((0, rng.randint(-5, 5))), rng.randint(1, 3))
                   for _ in range(rng.randrange(0, 5)))


def test_division_and_gcd_results_are_canonical():
    """Every result is built by the validating constructor: canonical
    coefficients, no trailing zero; the division identity holds, and the
    gcd is monic and divides both."""
    rng = random.Random(8)
    polys = [_random_poly(rng) for _ in range(30)] + [LamPoly((0, 0, 1)), P12, P15]
    for a, b in product(polys[:20], polys):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            continue
        quo, rem = a.divmod(b)
        g = a.gcd(b)
        for r in (quo, rem, g):
            assert all(is_canonical(c) for c in r.coeffs), r
            assert not r.coeffs or r.coeffs[-1] != 0
        assert _is_division(a, b, quo, rem)
        assert g.coeffs[-1] == 1
        assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()
