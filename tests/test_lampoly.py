import random
from fractions import Fraction
from itertools import product, zip_longest

import pytest

from jetcocycles.lampoly import LamPoly, gcd_all, rational_roots

from helpers import LAM, is_canonical


def test_normalization_strips_zeros():
    assert LamPoly((1, 0, 0)).coeffs == (Fraction(1),)
    assert LamPoly((0, 0)).is_zero()
    assert LamPoly.zero().degree == -1


def test_arithmetic():
    p = LAM * LAM - 3 * LAM + 2          # (lam-1)(lam-2)
    assert p.eval(1) == 0 and p.eval(2) == 0 and p.eval(3) == 2
    assert (p - p).is_zero()
    assert (LamPoly.const(Fraction(1, 2)) * 2) == LamPoly.one()


def test_divmod_and_gcd():
    p = (LAM - 1) * (LAM - 2)
    q = (LAM - 1) * (LAM + 5)
    quo, rem = p.divmod(LAM - 1)
    assert rem.is_zero() and quo == LAM - 2
    assert p.gcd(q) == (LAM - 1)
    assert gcd_all([p, q, (LAM - 1) * LAM]) == (LAM - 1)
    assert gcd_all([p, LamPoly.const(3)]).is_constant()


def test_rational_roots():
    p = (2 * LAM - 3) * (LAM + 1) * LAM
    assert rational_roots(p) == [Fraction(-1), Fraction(0), Fraction(3, 2)]
    assert rational_roots(LAM * LAM + 1) == []
    with pytest.raises(ValueError):
        rational_roots(LamPoly.zero())


def test_hashable_and_eq():
    assert hash(LAM + 1) == hash(LamPoly((1, 1)))
    assert LamPoly.const(2) == 2
    assert {LAM: "x"}[LamPoly((0, 1))] == "x"
    assert 3 in {LamPoly.const(3)} and LamPoly.const(3) in {3}
    assert Fraction(1, 2) in {LamPoly.const(Fraction(1, 2))}
    assert 0 in {LamPoly.zero()} and LamPoly.zero() in {0}
    assert hash(LamPoly.const(Fraction(-7, 3))) == hash(Fraction(-7, 3))


# -- the arithmetic's private constructor ----------------------------------

_SCALARS = (0, 1, -3, Fraction(0), Fraction(2, 3), Fraction(-5, 2))


def _random_coeffs(rng):
    """Coefficient lists of degree -1..3 with some internal zeros."""
    return [Fraction(rng.choice((0, rng.randint(-5, 5))), rng.randint(1, 3))
            for _ in range(rng.randrange(0, 5))]


def _same_as_public(got, want_coeffs):
    """Canonical coefficients (an int when integral, otherwise a Fraction
    with denominator > 1), no trailing zero, and equal (and hashing equal)
    to the polynomial the validating constructor builds."""
    assert all(is_canonical(c) for c in got.coeffs), got.coeffs
    assert not got.coeffs or got.coeffs[-1] != 0
    want = LamPoly(want_coeffs)
    assert got == want and got.coeffs == want.coeffs
    assert hash(got) == hash(want)


def _plus(a, b, sign=1):
    return [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]


def _times(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for (i, x), (j, y) in product(enumerate(a), enumerate(b)):
        out[i + j] += x * y
    return out if a and b else []


def test_arithmetic_results_are_canonical_fractions():
    rng = random.Random(8)
    polys = [_random_coeffs(rng) for _ in range(30)]
    polys += [[], [0], [0, 0, 1], [Fraction(1, 2)], [1, -1]]
    for a, b in product(polys[:20], polys):
        pa, pb = LamPoly(a), LamPoly(b)
        _same_as_public(pa + pb, _plus(a, b))
        _same_as_public(pa - pb, _plus(a, b, -1))
        _same_as_public(pa * pb, _times(a, b))
    for a, s in product(polys, _SCALARS):
        pa = LamPoly(a)
        _same_as_public(-pa, [-x for x in a])
        _same_as_public(pa * s, [x * s for x in a])
        _same_as_public(s * pa, [x * s for x in a])
        _same_as_public(pa + s, _plus(a, [s]))
        _same_as_public(s + pa, _plus(a, [s]))
        _same_as_public(pa - s, _plus(a, [s], -1))
        _same_as_public(s - pa, _plus([s], a, -1))


def test_zero_results_have_no_coefficients():
    x = 3 * LAM * LAM - Fraction(1, 2)
    assert (x * 0).coeffs == ()
    assert (x * Fraction(0)).coeffs == ()
    assert (x * LamPoly.zero()).coeffs == ()
    assert (LamPoly.zero() * x).coeffs == ()
    assert (LAM - LAM).coeffs == ()
    assert (x - x).coeffs == ()
    assert (x + (-x)).coeffs == ()
    assert (LamPoly.const(2) - 2).coeffs == ()


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
    assert quo * LamPoly((1, 2)) + rem == p
    quo, rem = (LamPoly((-1, 0, 1))).divmod(LamPoly((1, 1)))
    assert quo.coeffs == (-1, 1) and rem.is_zero()
    for c in quo.coeffs + rem.coeffs + p.gcd(LamPoly((0, 2))).coeffs:
        assert is_canonical(c)
    assert all(is_canonical(r) for r in rational_roots((2 * LAM - 3) * (LAM + 1) * LAM))
    assert type(LAM.eval(Fraction(4, 2))) is int
