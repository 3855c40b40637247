"""One exact-rational form on every layer: an integral value is an int, and a
Fraction always has denominator > 1.  No float ever appears."""

import random
from fractions import Fraction

import pytest

from jetcocycles.charts import is_global, solve_corrections
from jetcocycles.cochains import Cochain1, Cochain2, catalogue, ce_parts, det_cochain, det_expr
from jetcocycles.expr import (DiffExpr, _has_lam, euler_derivative, jet, lam_expr,
                              substitute, substitute_jets, total_derivative)
from jetcocycles.lampoly import LamPoly
from jetcocycles.linalg import solve_affine
from jetcocycles.wittmodel import (LaurentDensity, WittField, evaluate_cochain, laurent_action,
                                  nontriviality_certificate)

from helpers import LAM, is_canonical, random_coeff, random_expr


def _values(e):
    """Every rational in the stored coefficients of e, lam coefficients included."""
    return [x for _mono, c in e.terms() for x in (c.coeffs if type(c) is LamPoly else (c,))]


def _expr_ok(e):
    return all(is_canonical(x) for x in _values(e))


def _density_ok(a):
    return all(type(s) is int and is_canonical(c) for s, c in a.coeffs)


def test_kernel_results_are_canonical():
    rng = random.Random(1101)
    seen_fraction = False
    for _ in range(40):
        a = random_expr(rng, families=("f", "g", "T"), lam_degree=2)
        b = random_expr(rng, families=("f", "g", "T"), lam_degree=2)
        # the scale by 2 turns halves into integers inside Fraction arithmetic
        results = [a * b, a + b, a - b, (a * 2) * b.scale(Fraction(1, 2)),
                   total_derivative(a), euler_derivative(a * b, "f"),
                   substitute_jets(a, {(0, o): b for o in range(4)})]
        for r in results:
            assert _expr_ok(r), r
        seen_fraction |= any(type(x) is Fraction for r in results for x in _values(r))
    assert seen_fraction


def test_laurent_model_results_are_canonical():
    rng = random.Random(1102)
    for _ in range(40):
        x = WittField.of({rng.randint(-3, 4): rng.randint(-5, 5) for _ in range(2)})
        a = LaurentDensity.of({rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(3)}, rng.choice((0, 1, 2, 5)))
        b = LaurentDensity.of({rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(3)}, 1)
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        for r in (a, b, a.scale(Fraction(6, 1)),
                  a.scale(Fraction(3, 2)), laurent_action(x, a),
                  laurent_action(x, LaurentDensity(a.coeffs, lam)), x.as_density()):
            assert _density_ok(r), r
    # L_0 (1/2) z^2 = 2 * (1/2) z^2: an integral Fraction product is stored as an int
    out = laurent_action(WittField.basis(0), LaurentDensity.monomial(2, 0, Fraction(1, 2)))
    assert out.coeffs == ((2, 1),) and type(out.coeffs[0][1]) is int
    c = Cochain2(det_expr(0, 2).scale(Fraction(1, 2)), 1, LamPoly.const(Fraction(1, 2)))
    for m, n in ((2, 3), (-3, 2), (1, 5)):
        assert _density_ok(evaluate_cochain(c, m, n))


def test_solve_affine_values_are_canonical():
    res = solve_corrections(Cochain2(det_expr(3, 4), 5, LamPoly.const(5)))
    values = list(res.solution.particular.values())
    values += [v for vec in res.solution.nullspace for v in vec.values()]
    assert values and all(is_canonical(v) for v in values)
    # fractional rows whose echelon form is integral, and one that is not
    sol = solve_affine([({0: Fraction(1, 2), 1: Fraction(3, 2)}, Fraction(5, 2)),
                        ({1: Fraction(2, 3), 2: Fraction(4, 3)}, Fraction(1, 3))], 3)
    values = list(sol.particular.values()) + [v for vec in sol.nullspace for v in vec.values()]
    assert all(is_canonical(v) for v in values) and Fraction(1, 2) in values
    assert all(is_canonical(v) for v in sol.point([Fraction(2, 3)]).values())


def test_float_module_parameters_are_refused():
    # a float would become its binary approximation, e.g. 0.1 -> 3602879701896397/2^55
    for make in (lambda: Cochain2(det_expr(0, 2), 0, 0.1),
                 lambda: Cochain2(det_expr(0, 2), 0).at_lambda(1.0),
                 lambda: LaurentDensity.monomial(1, 0).scale(0.5),
                 lambda: LaurentDensity.monomial(1, 0.5)):
        with pytest.raises(TypeError):
            make()
    lam = Cochain2(det_expr(0, 2), 0, Fraction(4, 2)).module_lambda
    assert lam == 2 and type(lam) is int


# -- the module parameter: one stored form in every layer ----------------------


def _same_form(got, want):
    """got is want in the one stored form of a module parameter: a _rat
    rational, a LamPoly of degree >= 1, or None for the trivial action."""
    if want is None:
        return got is None
    if type(want) is LamPoly:
        return type(got) is LamPoly and got.degree >= 1 and got == want
    return is_canonical(got) and got == want


def test_the_module_parameter_has_one_form_in_every_layer():
    half = Fraction(1, 2)
    for given, want in ((2, 2), (Fraction(4, 2), 2), (LamPoly.const(2), 2), (half, half),
                        (LamPoly.const(half), half), (LAM, LAM), (None, None)):
        for c in (Cochain1(jet("f", 1), 2, given), Cochain2(det_expr(1, 3), 2, given)):
            assert _same_form(c.module_lambda, want), (given, c)
    assert _same_form(Cochain2(det_expr(1, 3), 2).module_lambda, LAM)
    for value, want in ((2, 2), (Fraction(4, 2), 2), (half, half), (LamPoly.const(2), 2),
                        (LamPoly.const(half), half)):
        assert _same_form(det_cochain(1, 3).at_lambda(value).module_lambda, want)
    with pytest.raises(TypeError, match="at_lambda"):
        det_cochain(1, 3).at_lambda(LAM)
    for symbol, want in ((det_expr(1, 2), 1), (catalogue("c1", "flat"), 1),
                         (Cochain2(det_expr(1, 2), 1, LamPoly.const(1)), 1),
                         (catalogue("c0w", "flat"), None)):
        res = solve_corrections(symbol, 1)
        for lam in (res.module_lambda, res.representative.module_lambda,
                    res.member([0] * res.dimension).module_lambda):
            assert _same_form(lam, want), (symbol, lam)
    for c, want in ((Cochain2(det_expr(3, 4), 5, LamPoly.const(5)), 5),
                    (catalogue("c0w", "flat"), None)):
        assert _same_form(nontriviality_certificate(c, window=3).module_lambda, want)


def test_value_weights_are_exact_rationals():
    """A value weight is an exact rational in the _rat form on every layer; a
    float or a string is a TypeError, not a density in the exact model."""
    for bad in ("x", 1.5):
        for make in (lambda: Cochain2(det_expr(1, 2), bad),
                     lambda: Cochain1(jet("f", 1), bad, None),
                     lambda: LaurentDensity.of({0: 1}, bad),
                     lambda: LaurentDensity.monomial(0, bad)):
            with pytest.raises(TypeError):
                make()
    c = Cochain2(det_expr(1, 2), Fraction(2, 2), 1)
    assert c.value_weight == 1 and type(c.value_weight) is int
    assert type(Cochain1(jet("f", 1), Fraction(4, 2), None).value_weight) is int
    value = evaluate_cochain(c, 1, 2)
    assert value == LaurentDensity.of({2: 6}, 1) and type(value.weight) is int
    # the chart layer keeps its integer rule for a rational weight
    half = Cochain2(det_expr(1, 2), Fraction(3, 2), 1)
    with pytest.raises(ValueError, match="integer weight"):
        is_global(half)
    with pytest.raises(ValueError, match="integer weight"):
        solve_corrections(half)


# -- the stored coefficient: a Rat, or a LamPoly only where lam occurs ---------


def _stored_ok(e):
    return all(c.degree >= 1 and all(is_canonical(x) for x in c.coeffs)
               if type(c) is LamPoly else is_canonical(c) and c != 0
               for _mono, c in e.terms())


def test_a_coefficient_is_a_lam_poly_only_where_lam_occurs():
    rng = random.Random(1401)
    kinds = set()
    for _ in range(40):
        a = random_expr(rng, families=("f", "g", "T"), lam_degree=2)
        b = random_expr(rng, families=("f", "g", "T"), lam_degree=2)
        # a + (b - a) and (a + b) * 1 - a cancel every lam that b lacks
        results = [a + b, a - b, a * b, a + (b - a), (a + b) - a,
                   a.scale(random_coeff(rng, 1)), a.scale(LamPoly.const(Fraction(2, 3))),
                   total_derivative(a), substitute(a, {"f": b, "g": jet("f", 1)}),
                   euler_derivative(a * b, "g"), a.subst_lambda(Fraction(rng.randint(-3, 3), 2))]
        coeff = det_expr(rng.randrange(3), rng.randrange(3, 6)).scale(random_coeff(rng, 1))
        for lam in (None, LAM, LamPoly.const(3), Fraction(1, 2)):
            results += ce_parts(coeff, 2, lam)
        for r in results:
            assert _stored_ok(r), r
            kinds.update(type(c) for _mono, c in r.terms())
    assert kinds == {int, Fraction, LamPoly}


def test_lam_cancellations_store_ints():
    f = jet("f", 0)
    (f_mono, _one), = f.terms()
    lam = lam_expr()
    for e, mono in (((lam + 1) * f - lam * f, f_mono), (lam * f - lam * f + 1, ()),
                    (lam * f + (1 - lam) * f, f_mono), (f.scale(LAM + 1) - f.scale(LAM), f_mono)):
        (got, c), = e.terms()
        assert got == mono and type(c) is int and c == 1


def test_constants_compare_and_hash_alike_in_every_form():
    forms = (DiffExpr.rational(3), DiffExpr.coefficient(LamPoly.const(3)), 3,
             LamPoly.const(3), Fraction(6, 2))
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y)
    assert DiffExpr.coefficient(LAM) == LAM and hash(DiffExpr.coefficient(LAM)) == hash(LAM)
    assert DiffExpr.rational(3) != LamPoly.const(4) and DiffExpr.coefficient(LAM) != 3


def test_terms_gives_the_stored_form():
    """terms() hands out the stored coefficients in monomial order: a rational
    in the _rat form, or a LamPoly of degree >= 1 where lam occurs."""
    e = jet("g", 1).scale(LAM) + jet("f", 0) * 2 + Fraction(1, 2)
    (f_mono, _one), = jet("f", 0).terms()
    (g_mono, _one), = jet("g", 1).terms()
    got = e.terms()
    assert got == [((), Fraction(1, 2)), (f_mono, 2), (g_mono, LAM)]
    assert [type(c) for _mono, c in got] == [Fraction, int, LamPoly]
    assert got[2][1].degree == 1
    assert [mono for mono, _c in (e - Fraction(1, 2)).terms()] == [f_mono, g_mono]
    assert DiffExpr.zero().terms() == []


def test_has_lam_reads_the_stored_form(monkeypatch):
    """_has_lam agrees with an oracle that never looks at the stored form, and
    builds no LamPoly to find out.  random_expr coefficients have lam-degree
    <= 2, so an expression carries lam iff its values at three points of lam
    differ."""
    rng = random.Random(1115)
    exprs = [random_expr(rng, families=("f", "g", "T"), lam_degree=rng.randrange(3))
             for _ in range(60)]
    exprs.append(jet("f", 0).scale(LAM) - lam_expr() * jet("f", 0) + 1)  # lam cancels
    expected = [len({e.subst_lambda(x) for x in (0, 1, 2)}) > 1 for e in exprs]
    assert 10 < sum(expected) < len(exprs) - 10 and not expected[-1]
    built = []
    init = LamPoly.__init__
    monkeypatch.setattr(LamPoly, "__init__", lambda self, *a: (built.append(a), init(self, *a))[1])
    assert [_has_lam(e) for e in exprs] == expected
    assert not built
