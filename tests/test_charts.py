"""Chart transforms: pushforward, globality, corrections, equivalences."""

from fractions import Fraction

import pytest

from jetcocycles.calculus import (
    Density,
    covariant_derivative,
    density_product,
    projective_from_affine,
    schwarzian,
    vector_field,
)
from jetcocycles.charts import (
    ChartFrame,
    covariant_equivalence,
    is_global,
    pushforward,
    solve_corrections,
    transform_connection,
)
from jetcocycles.cochains import (
    DERIVED_C1,
    DERIVED_C2,
    DERIVED_C5,
    PRINTED_CONNECTION_VARIANTS,
    Cochain2,
    catalogue,
    det_expr,
)
from jetcocycles.expr import (
    DiffExpr,
    _RANK,
    hinv,
    jet,
    substitute_jets,
    total_derivative as D,
)
from jetcocycles.lampoly import LamPoly
from jetcocycles.syntax import parse_expr

from helpers import BAD_SYMBOLS

_HJETS = 6


def _subs_h(e: DiffExpr, jets: dict) -> DiffExpr:
    """Numerically fix the transition jets (and hinv) in an expression."""
    table = {(_RANK["h"], n): DiffExpr.rational(v) for n, v in jets.items()}
    table[(_RANK["hinv"], 0)] = DiffExpr.rational(Fraction(1) / jets[1])
    return substitute_jets(e, table)


def _compose_jets(outer: dict, inner: dict, order: int) -> dict:
    """Jets of outer(inner(z)) at the common basepoint, exactly."""
    def taylor(jets):
        out = [Fraction(0)] * (order + 1)
        fact = 1
        for n in range(1, order + 1):
            fact *= n
            out[n] = Fraction(jets.get(n, 0)) / fact
        return out

    ti, to = taylor(inner), taylor(outer)
    result = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order      # inner^j truncated
    for j in range(1, order + 1):
        new = [Fraction(0)] * (order + 1)
        for a, ca in enumerate(power):
            if ca:
                for b in range(1, order + 1 - a):
                    new[a + b] += ca * ti[b]
        power = new
        for n in range(order + 1):
            result[n] += to[j] * power[n]
    fact = 1
    jets = {}
    for n in range(1, order + 1):
        fact *= n
        jets[n] = result[n] * fact
    return jets


def test_pushforward_first_and_third_derivatives():
    fr = ChartFrame()
    assert fr.binding("f", 1) == hinv() * jet("h", 2) * jet("f", 0) + jet("f", 1)
    S = schwarzian()
    claim = hinv() ** 2 * (jet("f", 3) + D(S) * jet("f", 0) + 2 * S * jet("f", 1))
    assert fr.binding("f", 3) == claim


def test_pushforward_affine_transition_rescales():
    fr = ChartFrame()
    affine = {1: Fraction(5, 2), 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
    for order in range(4):
        b = _subs_h(fr.binding("f", order), affine)
        assert b == jet("f", order).scale(Fraction(5, 2) ** (1 - order))


def test_pushforward_rejects_transition_jets():
    with pytest.raises(ValueError):
        pushforward(jet("h", 1))


def test_transform_connection():
    fr = ChartFrame()
    identity_like = {1: Fraction(1), 2: 0, 3: 0}
    assert _subs_h(transform_connection("T", fr), identity_like) == jet("T", 0)
    R_binding = transform_connection("R", fr)
    assert (R_binding - hinv() ** 2 * (jet("R", 0) + schwarzian())).is_zero()
    with pytest.raises(ValueError):
        transform_connection("w")


def test_package_a_consistency():
    # transform-then-combine equals combine-then-transform for R = T'+T^2/2
    fr = ChartFrame()
    Tb = fr.binding("T", 0)
    lhs = hinv() * D(Tb) + Tb ** 2 * Fraction(1, 2)
    rhs = hinv() ** 2 * (projective_from_affine() + schwarzian())
    assert (lhs - rhs).is_zero()


def test_globality_catalogue_and_naked_failures():
    fr = ChartFrame()
    for name, weight in (("cbar0", -1), ("cbar1", 0), ("c1", 1), ("cbar2", 1),
                         ("c2", 2), ("c5", 5), ("c0w", 1)):
        res = is_global(catalogue(name, "connection"), frame=fr)
        assert res.weight == weight and res.ok, name
    for name, weight in (("cbar0", 0), ("cbar1", 1), ("cbar2", 2)):
        assert is_global(catalogue(name, "omega"), frame=fr).ok
    for p, q, w in ((1, 2, 1), (0, 2, 0), (0, 3, 1)):
        res = is_global(det_expr(p, q), w, fr)
        assert not res.ok and not res.residual.is_zero()
        assert "h" in res.residual.families()


def test_printed_variants_fail_transform_law():
    fr = ChartFrame()
    for name, weight in (("c1", 1), ("c2", 2), ("c5", 5)):
        res = is_global(PRINTED_CONNECTION_VARIANTS[name], weight, fr)
        assert not res.ok


def test_nabla_commutes_with_frame_change():
    fr = ChartFrame()
    f = vector_field("f")
    w = Density.of(jet("w", 0), 1)
    cases = [f, w, density_product(f, w), covariant_derivative(w)]
    for a in cases:
        na = covariant_derivative(a)
        assert is_global(a.coeff, int(a.weight), fr).ok
        assert is_global(na.coeff, int(na.weight), fr).ok


def test_is_global_accepts_densities():
    w = Density.of(jet("w", 0), 1)
    assert is_global(w).ok
    assert is_global(covariant_derivative(w)).ok
    nonglobal = Density.of(jet("T", 0), 1)
    assert not is_global(nonglobal).ok


def test_frame_composition():
    fr = ChartFrame()
    e = catalogue("cbar2", "connection").coeff
    inner = {1: Fraction(2), 2: Fraction(1, 2), 3: Fraction(-1, 3),
             4: Fraction(1, 5), 5: Fraction(1, 7), 6: Fraction(-1, 2)}
    outer = {1: Fraction(1, 3), 2: Fraction(1, 4), 3: Fraction(2, 5),
             4: Fraction(-3, 2), 5: Fraction(1, 6), 6: Fraction(2, 7)}
    step1 = _subs_h(fr.pushforward(e), outer)
    two_step = _subs_h(fr.pushforward(step1), inner)
    composite = _compose_jets(outer, inner, _HJETS)
    direct = _subs_h(fr.pushforward(e), composite)
    assert two_step == direct


def test_solve_corrections_cbar2():
    res = solve_corrections(catalogue("cbar2", "flat"))
    assert res.feasible and res.dimension == 1
    assert res.representative.coeff == catalogue("cbar2", "connection").coeff


def test_solve_corrections_cbar1():
    res = solve_corrections(catalogue("cbar1", "flat"))
    assert res.feasible
    assert res.representative.coeff == catalogue("cbar1", "connection").coeff


def test_solve_corrections_c1_and_gauge():
    res = solve_corrections(catalogue("c1", "flat"))
    assert res.feasible and res.dimension == 1
    assert res.representative.coeff == DERIVED_C1
    # the R-carrying variant lies in the same solution set
    r_variant = det_expr(1, 2) - jet("T", 0) * det_expr(0, 2) \
        + (jet("R", 0) + jet("T", 0) ** 2 * Fraction(1, 2)) * det_expr(0, 1)
    assert res.contains(r_variant)
    assert not res.contains(PRINTED_CONNECTION_VARIANTS["c1"])
    # every member passes both constraints
    member = res.member([Fraction(3, 7)])
    assert is_global(member).ok
    from jetcocycles.cochains import ce_differential
    assert ce_differential(member).is_zero()


@pytest.mark.parametrize("name, dimension, derived",
                         [("c2", 1, DERIVED_C2), ("c5", 8, DERIVED_C5)])
def test_solve_corrections_reproduces_derived_forms(name, dimension, derived):
    res = solve_corrections(catalogue(name, "flat"))
    assert res.feasible and res.dimension == dimension
    assert res.representative.coeff == derived


def test_solve_corrections_empty_outcome():
    res = solve_corrections(det_expr(0, 4), weight=2)
    assert not res.feasible
    assert res.representative is None


def test_solve_corrections_input_validation():
    with pytest.raises(ValueError):
        solve_corrections(jet("T", 0) * det_expr(0, 1), weight=0)
    with pytest.raises(ValueError):
        solve_corrections(det_expr(0, 2))  # bare expression needs a weight


def test_covariant_equivalences_fast():
    for name in ("cbar0", "c1", "cbar1", "c2", "cbar2", "c5"):
        assert covariant_equivalence(name).ok, name
    with pytest.raises(KeyError):
        covariant_equivalence("c0w")
    with pytest.raises(KeyError):
        covariant_equivalence("nope")


@pytest.mark.parametrize("text, fault", BAD_SYMBOLS)
def test_solve_corrections_names_a_bad_symbol(text, fault):
    with pytest.raises(ValueError, match=fault):
        solve_corrections(parse_expr(text), weight=1)


def test_solve_corrections_rejects_lam_in_a_cochain_symbol():
    c = Cochain2(det_expr(1, 2).scale(LamPoly.lam()), 1, LamPoly.const(1))
    with pytest.raises(ValueError, match="found lam"):
        solve_corrections(c)
