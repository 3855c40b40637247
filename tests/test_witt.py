"""Laurent model: actions, evaluation, residues, certificates."""

import operator
import random
from fractions import Fraction

import pytest

from jetcocycles.cochains import Cochain1, Cochain2, catalogue, coboundary, det_cochain, det_expr
from jetcocycles.expr import DiffExpr, jet
from jetcocycles.lampoly import LamPoly
from jetcocycles.wittmodel import (
    LaurentDensity,
    WittField,
    _coboundary_rows,
    evaluate_cochain,
    kn_value,
    laurent_action,
    nontriviality_certificate,
    residue_pair,
)

from helpers import (LAM, evaluate_cochain_reference, is_canonical,
                     laurent_action_reference)


def test_action_eigenvalues():
    for m, lam in ((-3, 2), (0, 0), (4, 5)):
        a = LaurentDensity.monomial(m, lam)
        assert laurent_action(WittField.basis(0), a) == a.scale(m + lam)


def test_action_kernel_coefficient():
    # L_m z^s has coefficient s + lam (m+1); vanishes at s = -lam(m+1)
    lam, m = 3, 2
    s = -lam * (m + 1)
    out = laurent_action(WittField.basis(m), LaurentDensity.monomial(s, lam))
    assert out.is_zero()


def test_adjoint_action_is_bracket():
    for m in range(-3, 4):
        for n in range(-3, 4):
            via_action = laurent_action(WittField.basis(m),
                                        WittField.basis(n).as_density())
            via_bracket = WittField.basis(m).bracket(WittField.basis(n)).as_density()
            assert via_action == via_bracket
            assert via_bracket == LaurentDensity.of({m + n + 1: n - m}, -1)


def test_module_axiom_random():
    rng = random.Random(13)
    for _ in range(30):
        x = WittField.of({rng.randint(-3, 4): Fraction(rng.randint(-5, 5)) for _ in range(2)})
        y = WittField.of({rng.randint(-3, 4): Fraction(rng.randint(-5, 5)) for _ in range(2)})
        a = LaurentDensity.of({rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(3)}, rng.choice((0, 1, 2, 5)))
        lhs = laurent_action(x, laurent_action(y, a)) - laurent_action(y, laurent_action(x, a))
        assert lhs == laurent_action(x.bracket(y), a)


def test_evaluate_cochain_det13_closed_form():
    c = det_cochain(1, 3).at_lambda(2)
    for m, n in ((2, 3), (-3, 2), (0, -4), (5, -5)):
        v = evaluate_cochain(c, m, n)
        coeff = Fraction((m + 1) * (n + 1) * (n * (n - 1) - m * (m - 1)))
        expected = LaurentDensity.of({m + n - 2: coeff}, 2)
        assert v == expected


def test_evaluate_cochain_bracket_and_antisymmetry():
    cbar0 = catalogue("cbar0", "flat")
    for m, n in ((1, 2), (-2, 3), (4, -1)):
        assert evaluate_cochain(cbar0, m, n) == LaurentDensity.of({m + n + 1: n - m}, -1)
    assert evaluate_cochain(catalogue("c5", "flat"), 3, 3).is_zero()


def test_evaluate_cochain_labels_values_with_the_module(capsys):
    """A concrete module parameter is the weight of the values, the weight
    laurent_action reads; the trivial action and a symbolic module keep the
    value weight, and a given weight wins."""
    cbar1 = catalogue("cbar1", "flat")
    assert (cbar1.value_weight, cbar1.module_lambda) == (0, 1)
    assert evaluate_cochain(cbar1, 1, 2) == LaurentDensity.of({3: 4}, 1)
    assert evaluate_cochain(cbar1, 1, 2, weight=0).weight == 0
    assert evaluate_cochain(det_cochain(0, 2), 1, 2).weight == 0
    assert evaluate_cochain(catalogue("c0w", "flat"), 1, -1).weight == 1
    from jetcocycles.cli import main
    assert main(["eval", "--cocycle", "cbar1", "--m", "1", "--n", "2"]) == 0
    assert capsys.readouterr().out == "cbar1(L_1, L_2) = (4*z^3) (dz)^1\n"


def test_evaluate_cochain_commutes_with_normalization():
    # evaluating term by term equals evaluating the canonical sum
    c = catalogue("c7", "flat")
    m, n = 2, -3
    total = LaurentDensity((), 7)
    for mono, coef in c.coeff.terms():
        total = total + evaluate_cochain(DiffExpr({mono: coef}), m, n, weight=7)
    assert total == evaluate_cochain(c, m, n)


def test_evaluate_cochain_rejects_backgrounds_and_symbolic():
    """Backgrounds are refused; a symbolic coefficient cannot be built (lam
    is no coefficient), and a cochain with the symbolic module is read at
    its value weight."""
    with pytest.raises(ValueError):
        evaluate_cochain(catalogue("cbar2", "connection"), 1, 2)
    with pytest.raises(TypeError):
        det_cochain(0, 2).coeff.scale(LAM)
    c = det_cochain(0, 2)
    value = evaluate_cochain(c, 1, 2)
    assert value == evaluate_cochain(c.coeff, 1, 2, weight=0) and not value.is_zero()


def test_residue_pair():
    assert residue_pair(LaurentDensity.monomial(-1, 1)) == 1
    assert residue_pair(LaurentDensity.monomial(4, 1)) == 0
    with pytest.raises(ValueError):
        residue_pair(LaurentDensity.monomial(-1, 2))


def test_kn_values():
    assert kn_value(1, -1) == 0
    assert kn_value(2, -2) == -6
    for m in range(2, 11):
        assert kn_value(m, -m) * 6 == kn_value(2, -2) * (m ** 3 - m)
    for m, n in ((2, 3), (0, 4), (-1, 3)):
        assert kn_value(m, n) == 0


def test_kn_certificate_nontrivial():
    res = nontriviality_certificate(catalogue("c0w", "flat"), window=6)
    assert res.verdict == "NONTRIVIAL" and res.trivial_action


def test_c5_certificate_nontrivial():
    res = nontriviality_certificate(catalogue("c5", "flat"), window=6)
    assert res.verdict == "NONTRIVIAL"
    assert res.degree_shift == -5 and res.module_lambda == 5
    assert not res.trivial_action


def test_c7_certificate_nontrivial():
    res = nontriviality_certificate(catalogue("c7", "flat"), window=8)
    assert res.verdict == "NONTRIVIAL"
    assert res.degree_shift == -7


def test_coboundaries_inconclusive():
    rng = random.Random(31)
    for _ in range(6):
        j = rng.randrange(0, 5)
        lam = rng.choice((0, 1, 2, 5))
        b = Cochain1(jet("f", j).scale(Fraction(rng.randint(1, 9), rng.randint(1, 4))),
                     lam, LamPoly.const(lam))
        res = nontriviality_certificate(coboundary(b), window=6)
        assert res.verdict == "INCONCLUSIVE"


def _unit_primitive(j: int, shift: int, weight: int):
    """The 1-cochain b with b(L_i) = z^(i+shift) (dz)^weight for i = j and
    0 otherwise, extended linearly to Laurent vector fields."""
    def b(x: WittField) -> LaurentDensity:
        return LaurentDensity.monomial(j + shift, weight, dict(x.coeffs).get(j + 1, 0))
    return b


@pytest.mark.parametrize("lam, shift", [(lam, shift) for lam in (0, 1, 5)
                                        for shift in (-5, -1, 0, 1)] + [(None, None)])
def test_certificate_rows_are_the_coboundary_of_the_unknowns(lam, shift):
    """Each certificate row is rebuilt from the Laurent model: column
    window + j holds the z^(m+n+shift) coefficient of
    delta b(L_m, L_n) = L_m b(L_n) - L_n b(L_m) - b([L_m, L_n]) for the unit
    primitive b at L_j; the trivial action (lam None) keeps -b([L_m, L_n])."""
    for window in range(1, 5):
        rows = list(_coboundary_rows(window, lam, shift))
        assert [(m, n) for m, n, _row in rows] == [
            (m, n) for m in range(-window, window + 1) for n in range(m + 1, window + 1)
            if abs(m + n) <= window]
        for m, n, row in rows:
            lm, ln = WittField.basis(m), WittField.basis(n)
            degree = m + n + (shift or 0)
            expected = {}
            for j in range(-window, window + 1):
                b = _unit_primitive(j, shift or 0, lam or 0)
                delta = -b(lm.bracket(ln))
                if lam is not None:
                    delta = laurent_action(lm, b(ln)) - laurent_action(ln, b(lm)) + delta
                assert set(delta.as_dict()) <= {degree}
                if delta.as_dict():
                    expected[window + j] = delta.as_dict()[degree]
            assert row == expected, (window, m, n)


def test_certificate_rejects_ungraded():
    from jetcocycles.cochains import Cochain2, det_expr

    mixed = Cochain2(det_expr(0, 1) + det_expr(0, 2), 0, LamPoly.const(1))
    with pytest.raises(ValueError):
        nontriviality_certificate(mixed, window=4)


def test_certificate_reads_the_grading_from_the_symbol():
    from jetcocycles.cochains import Cochain2, det_expr

    # derivative counts 4 and 1 are two gradings; det(1,3) vanishes on the
    # window-1 pairs, so reading the grading off the values missed it there
    mixed = Cochain2(det_expr(1, 3) + det_expr(0, 1), 2, 2)
    for window in range(1, 5):
        with pytest.raises(ValueError, match="not graded"):
            nontriviality_certificate(mixed, window=window)
    assert nontriviality_certificate(catalogue("c5", "flat"), window=1).degree_shift == -5
    zero = nontriviality_certificate(Cochain2(DiffExpr.zero(), 2, 2), window=3)
    assert zero.verdict == "INCONCLUSIVE" and zero.degree_shift is None


@pytest.mark.parametrize("name", ["c5", "c0w"])
@pytest.mark.parametrize("window", [0, -2])
def test_certificate_refuses_windows_below_one(name, window):
    # an empty window leaves no equation, so the verdict would say nothing
    with pytest.raises(ValueError, match="window must be at least 1"):
        nontriviality_certificate(catalogue(name, "flat"), window=window)


def test_a_concrete_module_leaves_no_lam_in_the_coefficient():
    from jetcocycles.cochains import Cochain2, det_expr

    # lam is no coefficient, so no cochain can carry it
    with pytest.raises(TypeError):
        det_expr(0, 4).scale(LamPoly((-2, 1)))
    with pytest.raises(TypeError):
        jet("f", 2).scale(LAM)
    # at_lambda sets the module and keeps the coefficient
    c = Cochain2(det_expr(1, 3), 2, LAM).at_lambda(2)
    assert c == Cochain2(det_expr(1, 3), 2, 2)
    assert nontriviality_certificate(c, window=4).verdict == "NONTRIVIAL"


def test_laurent_degrees_must_be_integers():
    for make in (lambda: LaurentDensity.of({1.5: 1, 2.9: 3}, 0),
                 lambda: WittField.of({0.5: 2})):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("entry", [
    lambda: kn_value(True, -1),
    lambda: kn_value(1, False),
    lambda: evaluate_cochain(catalogue("c5", "flat"), True, 2),
    lambda: WittField.basis(True),
    lambda: LaurentDensity.of({True: 1}, 0),
    lambda: LaurentDensity.monomial(False, 0),
], ids=["kn_value-m", "kn_value-n", "evaluate_cochain", "basis", "of", "monomial"])
def test_a_bool_is_no_laurent_index(entry):
    """A bool degree, m or n gets the TypeError a float gets, at each entry
    point of the Laurent layer."""
    with pytest.raises(TypeError, match="'bool' object cannot be interpreted as an integer"):
        entry()
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        kn_value(1.0, -1)


def test_certificate_rejects_non_cocycles():
    from jetcocycles.cochains import Cochain2, det_expr

    # det(0,2) is closed only at lam = 1, so at lam = 0 no primitive exists
    # and the infeasible window system would read NONTRIVIAL
    with pytest.raises(ValueError, match="not a cocycle"):
        nontriviality_certificate(Cochain2(det_expr(0, 2), 1, LamPoly.const(0)))
    # det(2,3) fails the trivial-action identity modulo total derivatives
    with pytest.raises(ValueError, match="not a cocycle"):
        nontriviality_certificate(Cochain2(det_expr(2, 3), 1, None))


@pytest.mark.parametrize("p, q, weight", [(1, 2, 0), (2, 3, 3)])
def test_certificate_needs_1_form_values_under_the_trivial_action(p, q, weight):
    """Under the trivial action the values pair to constants, so they must be
    1-forms; any other value weight is refused before the cocycle check (the
    trivial-action det(1,2) is a cocycle, det(2,3) is not)."""
    from jetcocycles.cochains import Cochain2, det_expr

    with pytest.raises(ValueError, match=f"trivial action .* got value weight {weight}$"):
        nontriviality_certificate(Cochain2(det_expr(p, q), weight, None), window=2)


def _numeric_witt_delta(c, m: int, n: int, p: int):
    """Cocycle identity on (L_m, L_n, L_p) computed purely in the Laurent
    model; independent of the symbolic normalizer.  evaluate_cochain labels
    the values with the module parameter, the weight the action uses, which
    differs from the value weight for the barred generators."""

    def act(i, val):
        return laurent_action(WittField.basis(i), val)

    def c_at(i, j):
        return evaluate_cochain(c, i, j)

    total = act(m, c_at(n, p))
    total = total - act(n, c_at(m, p))
    total = total + act(p, c_at(m, n))
    total = total - c_at(m + n, p).scale(n - m)
    total = total + c_at(m + p, n).scale(p - m)
    total = total - c_at(n + p, m).scale(p - n)
    return total


def test_symbolic_and_graded_verdicts_agree():
    # flat generators: symbolically closed at their rows, and numerically
    # closed on the whole window
    for name, lam in (("c1", 1), ("cbar1", 1), ("c2", 2), ("cbar2", 2),
                      ("c5", 5), ("c7", 7)):
        c = catalogue(name, "flat").at_lambda(lam)
        from jetcocycles.cochains import ce_differential
        assert ce_differential(c).is_zero()
        for m in range(-3, 4):
            for n in range(-3, 4):
                for p in range(-3, 4):
                    assert _numeric_witt_delta(c, m, n, p).is_zero(), (name, m, n, p)


def test_certificate_inconclusive_cases():
    # zero cochain on the window: feasible by construction
    zero = coboundary(Cochain1(jet("f", 1), 0, LamPoly.const(0)))
    assert nontriviality_certificate(zero, window=4).verdict == "INCONCLUSIVE"
    # the weight-0 block at lam=1: the window-5 graded system happens to be
    # feasible, so the certificate (soundly) refuses to claim anything
    c = det_cochain(0, 2).at_lambda(1)
    assert nontriviality_certificate(c, window=5).verdict == "INCONCLUSIVE"
    # the certificate reads the cochain's own parameter, which must be concrete
    with pytest.raises(ValueError, match="a concrete module parameter is required"):
        nontriviality_certificate(det_cochain(0, 2), window=5)


# -- the integer arithmetic against the rational references ----------------


def _same_stored_form(got, want):
    """Equal, with the same stored tuple: int degrees in increasing order,
    each coefficient nonzero and in the _rat form, and the same types."""
    assert got == want
    assert [(type(s), type(c)) for s, c in got.coeffs] == \
        [(type(s), type(c)) for s, c in want.coeffs]
    assert all(type(s) is int and c and is_canonical(c) for s, c in got.coeffs)
    assert [s for s, _c in got.coeffs] == sorted({s for s, _c in got.coeffs})
    assert type(got.weight) is type(want.weight) and is_canonical(got.weight)


def _random_flat(rng):
    """A flat coefficient: up to four monomials in f and g jets of order
    0..4, exponents 1..3, Fraction coefficients."""
    out = DiffExpr.zero()
    for _ in range(rng.randint(1, 4)):
        piece = DiffExpr.rational(Fraction(rng.choice((-7, -3, -1, 1, 2, 5)),
                                           rng.choice((1, 2, 3, 4, 6))))
        for _ in range(rng.randint(1, 3)):
            piece = piece * jet(rng.choice("fg"), rng.randint(0, 4)) ** rng.randint(1, 3)
        out = out + piece
    return out


def _flat_cases(rng):
    """(c, weight) pairs: random coefficients at an explicit weight,
    cochains whose values carry a concrete module parameter or their value
    weight, and antisymmetric ones, which cancel to zero at m = n."""
    for _ in range(30):
        yield _random_flat(rng), rng.choice((0, 2, Fraction(-3, 2)))
    for p, q in ((0, 3), (1, 3), (2, 5)):
        coeff = det_expr(p, q).scale(Fraction(rng.randint(1, 5), rng.randint(2, 4)))
        yield Cochain2(coeff, p + q - 2, Fraction(p + q - 2, 2)), None      # module weight
        yield Cochain2(coeff, p + q - 2, LAM), None                         # value weight
        yield Cochain2(coeff, 1, None), Fraction(1, 3)                      # explicit weight
    yield catalogue("c0w", "flat"), None
    yield catalogue("c7", "flat"), None
    # two monomials of one degree, with coefficient m - n: zero at m = n
    yield jet("f", 1) * jet("g", 0) ** 2 - jet("f", 0) * jet("g", 1) * jet("g", 0), 3


def test_evaluation_matches_the_rational_reference():
    rng = random.Random(2501)
    points = [(m, n) for m in range(-5, 4) for n in range(-5, 4)]
    zero = several = 0
    for c, weight in _flat_cases(rng):
        for m, n in rng.sample(points, 12) + [(0, 0), (-1, -1), (-3, 2), (2, 2)]:
            got = evaluate_cochain(c, m, n, weight)
            _same_stored_form(got, evaluate_cochain_reference(c, m, n, weight))
            zero += got.is_zero()
            several += len(got.coeffs) > 1
    # both cancellation to zero and values of several degrees occur
    assert zero and several


def test_evaluation_keeps_every_power_and_the_denominator():
    # (f'')^2 g^3 / 6 at (L_2, L_-3): f = z^3, g = z^-2, so 36 z^2 z^-6 / 6
    c = (jet("f", 2) ** 2 * jet("g", 0) ** 3).scale(Fraction(1, 6))
    assert evaluate_cochain(c, 2, -3, 0).coeffs == ((-4, 6),)
    # det(0,3) / 4 at (L_1, L_-2): f = z^2, g = z^-1, so f g[3] / 4 = -6 z^-2 / 4
    value = evaluate_cochain(det_expr(0, 3).scale(Fraction(1, 4)), 1, -2, 2)
    assert value.coeffs == ((-2, Fraction(-3, 2)),)


def _random_field(rng):
    return WittField.of({rng.randint(-3, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))})


def _random_density(rng, weight):
    return LaurentDensity.of({rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 4))}, weight)


def test_the_action_and_sums_match_the_rational_reference():
    rng = random.Random(2502)
    weights = (0, 1, 2, 5, -1, Fraction(1, 2), Fraction(-4, 3))
    for _ in range(200):
        x, a = _random_field(rng), _random_density(rng, rng.choice(weights))
        _same_stored_form(laurent_action(x, a), laurent_action_reference(x, a))
        b = _random_density(rng, a.weight)
        for op in (operator.add, operator.sub):
            want = a.as_dict()
            for s, c in b.coeffs:
                want[s] = op(want.get(s, 0), c)
            _same_stored_form(op(a, b), LaurentDensity.of(want, a.weight))
        _same_stored_form((a + b) - a, b)
        _same_stored_form(a - a, LaurentDensity((), a.weight))
    # L_m z^s (dz)^lam vanishes at s = -lam (m+1)
    for m, s, lam in ((2, -3, 1), (1, -4, 2), (0, 0, 3), (-1, 4, Fraction(1, 2)),
                      (1, -1, Fraction(1, 2))):
        a = LaurentDensity.monomial(s, lam, Fraction(2, 3))
        _same_stored_form(laurent_action(WittField.basis(m), a),
                          laurent_action_reference(WittField.basis(m), a))
    # (L_0 + L_1) on z - z^2 / 2 at lam = 0: the z^2 terms cancel
    x = WittField.of({1: 1, 2: 1})
    a = LaurentDensity.of({1: 1, 2: Fraction(-1, 2)}, 0)
    assert laurent_action(x, a).coeffs == ((1, 1), (3, -1))
    _same_stored_form(laurent_action(x, a), laurent_action_reference(x, a))


@pytest.mark.parametrize("m, n, weight", [(1.0, 2, 0), (1, Fraction(1, 2), 0), (1, 2, 1.5)],
                         ids=["float-m", "fraction-n", "float-weight"])
def test_evaluation_refuses_what_is_not_exact(m, n, weight):
    for evaluate in (evaluate_cochain, evaluate_cochain_reference):
        with pytest.raises(TypeError):
            evaluate(det_expr(1, 2), m, n, weight)


def test_evaluation_refuses_backgrounds_and_lam_as_the_reference_does():
    """Both refuse backgrounds; lam cannot reach either, since no
    coefficient carries it, and a symbolic module reads the value weight
    in both."""
    for evaluate in (evaluate_cochain, evaluate_cochain_reference):
        with pytest.raises(ValueError):
            evaluate(catalogue("cbar2", "connection"), 1, 2, 0)
    with pytest.raises(TypeError):
        det_cochain(0, 2).coeff.scale(LAM)
    c = det_cochain(0, 3)
    assert evaluate_cochain(c, 2, -1) == evaluate_cochain_reference(c, 2, -1)


@pytest.mark.parametrize("fld, a", [
    (WittField.basis(0), LaurentDensity(((1.5, 2),), 0)),
    (WittField.basis(0), LaurentDensity(((1, 0.5),), 0)),
    (WittField.basis(0), LaurentDensity(((1, 0.0),), 0)),
    (WittField.basis(0), LaurentDensity(((1, 2),), 0.5)),
    (WittField(()), LaurentDensity(((1, 2),), 0.5)),
    (WittField(((1.5, 1),)), LaurentDensity(((1, 2),), 0)),
    (WittField(((1, 0.5),)), LaurentDensity(((1, 2),), 0)),
], ids=["float-degree", "float-coefficient", "float-zero", "float-weight",
        "float-weight-empty-field", "float-field-degree", "float-field-coefficient"])
def test_the_action_refuses_floats_past_of(fld, a):
    """A density or field built without LaurentDensity.of that carries a
    float is still a TypeError, for the action and for the reference."""
    for act in (laurent_action, laurent_action_reference):
        with pytest.raises(TypeError):
            act(fld, a)


@pytest.mark.parametrize("window", [True, False, 6.0, 1.5])
def test_the_certificate_window_is_an_int(window):
    with pytest.raises(ValueError, match="the window must be an int"):
        nontriviality_certificate(catalogue("c5", "flat"), window=window)
