"""Kernel: canonical form, derivation, substitution, evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcocycles.expr import (
    _RANK,
    DiffExpr,
    OrderCapExceeded,
    eval_rational,
    euler_derivative,
    hinv,
    hinv_power,
    is_total_derivative,
    jet,
    lam_expr,
    partial_derivative,
    substitute,
    substitute_jets,
    total_derivative as D,
)
from jetcocycles.lampoly import LAM

from helpers import eval_at, random_expr, random_lambda, random_point

F0, F1, F2 = jet("f", 0), jet("f", 1), jet("f", 2)
G0, G1 = jet("g", 0), jet("g", 1)


def det01():
    return F0 * G1 - F1 * G0


# -- normalization ------------------------------------------------------


def test_commutativity_cancellation():
    assert (F0 * G1 - G1 * F0).is_zero()


def test_distributivity():
    assert (F0 + G0) * F1 == F0 * F1 + G0 * F1


def test_like_term_collection():
    e = F1.scale(LAM) - F1.scale(LAM) + 2
    assert e == DiffExpr.rational(2)


def test_additive_identity_and_powers():
    x = random_expr(random.Random(1))
    assert x + DiffExpr.zero() == x
    assert F1 * F1 == F1 ** 2
    assert (det01().scale(-1)) == G0 * F1 - F0 * G1


def test_hinv_unit_relation():
    assert hinv() * jet("h", 1) == DiffExpr.one()
    assert hinv() ** 2 * jet("h", 1) == hinv()
    assert hinv_power(-2) == jet("h", 1) ** 2
    assert hinv_power(3) == hinv() ** 3


def test_negative_and_fractional_powers_rejected():
    with pytest.raises(ValueError):
        F0 ** -1
    with pytest.raises(ValueError):
        F0 ** Fraction(1, 2)  # type: ignore[arg-type]


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        jet("f", 13)
    jet("f", 13, cap=14)
    with pytest.raises(OrderCapExceeded):
        D(jet("f", 12))
    with pytest.raises(ValueError):
        jet("h", 0)
    with pytest.raises(ValueError):
        jet("q", 0)


# -- total derivative ---------------------------------------------------


def test_product_rule_example():
    assert D(F0 * G1) == F1 * G1 + F0 * jet("g", 2)


def test_reciprocal_derivative():
    assert D(hinv()) == -jet("h", 2) * hinv() ** 2
    assert D(hinv() * jet("h", 1)).is_zero()


def test_power_rule():
    T0, T1 = jet("T", 0), jet("T", 1)
    assert D(T0 ** 2) == 2 * T0 * T1


def test_leibniz_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_expr(rng, with_hinv=True)
        b = random_expr(rng, with_hinv=True)
        assert D(a * b) == D(a) * b + a * D(b)


# -- substitution -------------------------------------------------------


def test_prolongation():
    assert substitute(F1, {"f": G0}) == G1


def test_substitute_constant_kills_jets():
    assert substitute(F2, {"f": DiffExpr.one()}).is_zero()


def test_substitute_homomorphic():
    rng = random.Random(21)
    for _ in range(30):
        a = random_expr(rng, families=("f", "g"), max_order=2)
        b = random_expr(rng, families=("f", "g"), max_order=2)
        binding = {"f": random_expr(rng, families=("g", "T"), max_order=1)}
        assert substitute(a * b, binding) == substitute(a, binding) * substitute(b, binding)


def test_substitute_commutes_with_derivation():
    rng = random.Random(5)
    for _ in range(30):
        e = random_expr(rng, families=("f", "g", "T"), max_order=2)
        binding = {"f": random_expr(rng, families=("g", "T"), max_order=1)}
        assert substitute(D(e), binding) == D(substitute(e, binding))


def test_jacobi_identity_via_substitution():
    br = det01()
    k0, k1 = jet("k", 0), jet("k", 1)

    def bracket(a, b):
        return a * D(b) - D(a) * b

    f, g, k = F0, G0, k0
    jac = bracket(bracket(f, g), k) + bracket(bracket(g, k), f) + bracket(bracket(k, f), g)
    assert jac.is_zero()
    # the same computation through family substitution of the bracket
    fg_k = substitute(br, {"f": br, "g": k0})     # [[f,g],k]
    gk_f = substitute(br, {"f": substitute(br, {"f": G0, "g": k0}), "g": F0})
    kf_g = substitute(br, {"f": bracket(k, f), "g": G0})
    assert (fg_k + gk_f + kf_g).is_zero()


def test_rebinding_transition_family_rejected():
    with pytest.raises(ValueError):
        substitute(F0, {"h": F0})


def test_substitute_jets_needs_every_occurring_order_of_a_bound_family():
    T0 = jet("T", 0)
    table = {(_RANK["f"], 0): G0, (_RANK["f"], 2): G1}
    assert substitute_jets(F2 * T0 + F0, table) == G1 * T0 + G0
    with pytest.raises(KeyError):
        substitute_jets(F0 * F1, table)


# -- evaluation oracle ---------------------------------------------------


def test_eval_examples():
    assert eval_rational(F0 + F0, {("f", 0): Fraction(1, 2)}) == 1
    point = {("f", 0): 1, ("f", 1): 2, ("g", 0): 3, ("g", 1): 5}
    assert eval_rational(det01(), point) == -1


def test_eval_errors():
    with pytest.raises(ValueError):
        eval_rational(F0, {})
    with pytest.raises(ValueError):
        eval_rational(hinv(), {("h", 1): 0})
    with pytest.raises(ValueError):
        eval_rational(lam_expr(), {})


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        a = random_expr(rng, with_hinv=True)
        b = random_expr(rng, with_hinv=True)
        lam = random_lambda(rng)
        pt = random_point(rng, a, b)
        assert eval_at(a * b, pt, lam) == eval_at(a, pt, lam) * eval_at(b, pt, lam)
        assert eval_at(a + b, pt, lam) == eval_at(a, pt, lam) + eval_at(b, pt, lam)


def test_eval_respects_hinv():
    e = hinv() ** 2
    pt = {("h", 1): Fraction(3, 2)}
    assert eval_rational(e, pt) == Fraction(4, 9)


# -- ring axioms (property-based) ----------------------------------------

_ATOMS = st.sampled_from(
    [jet("f", i) for i in range(3)] + [jet("g", i) for i in range(3)]
    + [jet("T", 0), hinv(), DiffExpr.rational(Fraction(2, 3)),
       DiffExpr.coefficient(LAM)]
)


@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        return draw(_ATOMS)
    op = draw(st.sampled_from(["atom", "add", "mul", "neg"]))
    if op == "atom":
        return draw(_ATOMS)
    if op == "neg":
        return -draw(exprs(depth=depth - 1))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    return a + b if op == "add" else a * b


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * DiffExpr.one() == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_normalize_idempotent(e):
    rebuilt = DiffExpr.zero()
    for mono, coef in e.terms():
        rebuilt = rebuilt + DiffExpr({mono: coef})
    assert rebuilt == e
    assert hash(rebuilt) == hash(e)


# -- variational calculus -------------------------------------------------


def test_partial_derivative():
    e = F0 ** 2 * G1 + F1
    assert partial_derivative(e, "f", 0) == 2 * F0 * G1
    assert partial_derivative(e, "f", 1) == DiffExpr.one()
    assert partial_derivative(e, "g", 1) == F0 ** 2


def test_exactness_detects_derivatives():
    rng = random.Random(3)
    for _ in range(25):
        y = random_expr(rng, families=("f", "g", "T"), max_order=2)
        y = y - DiffExpr.rational(y.constant_term().eval(0))
        assert is_total_derivative(D(y))
    assert not is_total_derivative(F0 * G1)        # fg' is not exact
    assert is_total_derivative(F1 * G0 + F0 * G1)  # (fg)'
    with pytest.raises(ValueError):
        is_total_derivative(hinv())


def test_euler_derivative_kills_exact_terms():
    e = D(F0 * F1 * G0)
    assert euler_derivative(e, "f").is_zero()
    assert euler_derivative(e, "g").is_zero()


def test_euler_derivative_matches_the_definitional_sum():
    """The Horner form against sum_j (-D)^j d e / d u^(j), summed term by
    term, on seeded expressions that are mostly not exact; k never occurs."""
    rng = random.Random(29)
    nonzero = 0
    for _ in range(40):
        e = random_expr(rng, families=("f", "g", "T"), max_order=3, terms=4, factors=3)
        for fam in ("f", "g", "T", "k"):
            want = DiffExpr.zero()
            for j in range(e.max_order(fam) + 1):
                piece = partial_derivative(e, fam, j)
                for _ in range(j):
                    piece = -D(piece)
                want = want + piece
            got = euler_derivative(e, fam)
            assert got == want
            nonzero += not got.is_zero()
        assert euler_derivative(e, "k").is_zero()
    assert nonzero > 60
