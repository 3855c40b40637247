"""One exact-rational form on every layer: an integral value is an int, and a
Fraction always has denominator > 1.  No float ever appears."""

import random
from fractions import Fraction

import pytest

from jetcocycles.charts import is_global, solve_corrections
from jetcocycles.cochains import Cochain1, Cochain2, catalogue, ce_parts, det_cochain, det_expr
from jetcocycles.expr import (DiffExpr, euler_derivative, jet, substitute, substitute_jets,
                              total_derivative)
from jetcocycles.lampoly import LamPoly
from jetcocycles.linalg import solve_affine
from jetcocycles.wittmodel import (LaurentDensity, WittField, evaluate_cochain, laurent_action,
                                  nontriviality_certificate)

from helpers import LAM, is_canonical, random_coeff, random_expr


def _values(e):
    """Every stored coefficient of e."""
    return [c for _mono, c in e.terms()]


def _expr_ok(e):
    return all(is_canonical(x) for x in _values(e))


def _density_ok(a):
    return all(type(s) is int and is_canonical(c) for s, c in a.coeffs)


def test_kernel_results_are_canonical():
    rng = random.Random(1101)
    seen_fraction = False
    for _ in range(40):
        a = random_expr(rng, families=("f", "g", "T"))
        b = random_expr(rng, families=("f", "g", "T"))
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
    rational, the symbolic LAM, or None for the trivial action."""
    if want is None:
        return got is None
    if type(want) is LamPoly:
        return type(got) is LamPoly and got == want == LAM
    return is_canonical(got) and got == want


def test_the_module_parameter_has_one_form_in_every_layer():
    half = Fraction(1, 2)
    for given, want in ((2, 2), (Fraction(4, 2), 2), (LamPoly.const(2), 2), (half, half),
                        (LamPoly.const(half), half), (LAM, LAM), (None, None)):
        cochains = [Cochain2(det_expr(1, 3), 2, given)]
        if given is LAM:
            with pytest.raises(ValueError, match="1-cochain needs a concrete module"):
                Cochain1(jet("f", 1), 2, given)
        else:
            cochains.append(Cochain1(jet("f", 1), 2, given))
        for c in cochains:
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


# -- the stored coefficient: a rational in the _rat form ------------------------


def _stored_ok(e):
    return all(is_canonical(c) and c != 0 for _mono, c in e.terms())


def test_a_coefficient_is_a_lam_poly_only_where_lam_occurs():
    """lam occurs in no coefficient, so every stored coefficient is a nonzero
    _rat rational, the pencil parts of ce_parts at the symbolic module
    included; lam occurs only as that module, whose pencil X + r Y is the
    differential at the rational module r."""
    rng = random.Random(1401)
    kinds = set()
    for _ in range(40):
        a = random_expr(rng, families=("f", "g", "T"))
        b = random_expr(rng, families=("f", "g", "T"))
        # a + (b - a) and (a + b) * 1 - a cancel every term that b lacks
        results = [a + b, a - b, a * b, a + (b - a), (a + b) - a,
                   a.scale(random_coeff(rng)), a.scale(Fraction(2, 3)),
                   total_derivative(a), substitute(a, {"f": b, "g": jet("f", 1)}),
                   euler_derivative(a * b, "g")]
        coeff = det_expr(rng.randrange(3), rng.randrange(3, 6)).scale(random_coeff(rng) or 1)
        for lam in (None, LAM, LamPoly.const(3), Fraction(1, 2)):
            results += ce_parts(coeff, 2, lam)
        x, y = ce_parts(coeff, 2, LAM)
        r = Fraction(rng.randint(-3, 3), 2)
        assert x + y.scale(r) == ce_parts(coeff, 2, r)[0]
        assert Cochain2(coeff, 2).is_symbolic() and Cochain2(coeff, 2).module_lambda == LAM
        for e in results:
            assert _stored_ok(e), e
            kinds.update(type(c) for _mono, c in e.terms())
    assert kinds == {int, Fraction}


def test_lam_cancellations_store_ints():
    """A sum whose rational parts cancel to an integer stores an int, never
    Fraction(n, 1); h stands where lam stood before it left the coefficients."""
    f = jet("f", 0)
    (f_mono, _one), = f.terms()
    h = DiffExpr.rational(Fraction(1, 3))
    for e, mono in (((h + 1) * f - h * f, f_mono), (h * f - h * f + 1, ()),
                    (h * f + (1 - h) * f, f_mono),
                    (f.scale(Fraction(4, 3)) - f.scale(Fraction(1, 3)), f_mono)):
        (got, c), = e.terms()
        assert got == mono and type(c) is int and c == 1


def test_constants_compare_and_hash_alike_in_every_form():
    """A constant expression is its rational, and a constant LamPoly is its
    value; an expression and a LamPoly are never equal (lam is no
    coefficient)."""
    for forms in ((DiffExpr.rational(3), 3, Fraction(6, 2)),
                  (LamPoly.const(3), 3, Fraction(6, 2))):
        for x in forms:
            for y in forms:
                assert x == y and hash(x) == hash(y)
    assert DiffExpr.rational(3) != LamPoly.const(3) and DiffExpr.rational(3) != 4


def test_terms_gives_the_stored_form():
    """terms() hands out the stored coefficients in monomial order, each a
    nonzero rational in the _rat form."""
    e = jet("g", 1).scale(Fraction(6, 4)) + jet("f", 0) * Fraction(4, 2) + Fraction(1, 2)
    (f_mono, _one), = jet("f", 0).terms()
    (g_mono, _one), = jet("g", 1).terms()
    got = e.terms()
    assert got == [((), Fraction(1, 2)), (f_mono, 2), (g_mono, Fraction(3, 2))]
    assert [type(c) for _mono, c in got] == [Fraction, int, Fraction]
    assert [mono for mono, _c in (e - Fraction(1, 2)).terms()] == [f_mono, g_mono]
    assert DiffExpr.zero().terms() == []
