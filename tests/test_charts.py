"""Chart transforms: pushforward, globality, corrections, equivalences."""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from jetcocycles.calculus import (
    covariant_derivative,
    projective_from_affine,
    schwarzian,
)
from jetcocycles import charts, cochains
from jetcocycles.charts import (
    BINDING_ORDER_BOUND,
    ChartFrame,
    _canonical_point,
    _linear_residual,
    covariant_equivalence,
    is_global,
    pushforward,
    solve_corrections,
)
from jetcocycles.cli import main
from jetcocycles.cochains import (
    PRINTED_CONNECTION_VARIANTS,
    catalogue,
    ce_parts,
    det_expr,
)
from jetcocycles.expr import (
    DiffExpr,
    OrderCapExceeded,
    _RANK,
    euler_derivative,
    hinv,
    hinv_power,
    jet,
    substitute_jets,
    total_derivative as D,
)
from jetcocycles.lampoly import LamPoly
from jetcocycles.linalg import AffineSolution, solve_affine
from jetcocycles.syntax import ExprSyntaxError, parse_expr

from helpers import (BAD_SYMBOLS, ordered_partner, ordered_rows, random_expr, solver_arguments,
                     solver_rows_reference)

_HJETS = 6

_T0, _T1, _R0, _R1, _R2 = jet("T", 0), jet("T", 1), jet("R", 0), jet("R", 1), jet("R", 2)

# The connection forms the solver derives, typed out by hand: its canonical
# representatives, the minimal-support point for gauge dimension at most 3
# and the echelon particular point for c5 (gauge dimension 8).  The gauge
# freedom is spanned by global-cocycle additions built from G = R - T' - T^2/2.
DERIVED_C1 = det_expr(1, 2) - _T0 * det_expr(0, 2) + (_T1 + _T0 ** 2) * det_expr(0, 1)
DERIVED_C2 = det_expr(1, 3) - _T0 * det_expr(0, 3) + (_R1 + 2 * _T0 * _R0) * det_expr(0, 1)
DERIVED_C5 = (
    det_expr(3, 4)
    + _R2 * det_expr(0, 3)
    + 3 * _R1 * det_expr(1, 3)
    + 2 * _R0 * det_expr(2, 3)
    + (3 * _R1 ** 2 - 2 * _R0 * _R2) * det_expr(0, 1)
    + 2 * _R0 * _R1 * det_expr(0, 2)
    - _R1 * det_expr(0, 4)
    + 4 * _R0 ** 2 * det_expr(1, 2)
    - 2 * _R0 * det_expr(1, 4)
)
CONNECTION_FORMS = {
    "cbar0": det_expr(0, 1),
    "c0w": Fraction(1, 2) * det_expr(0, 3) - _R0 * det_expr(0, 1),
    "c1": DERIVED_C1,
    "cbar1": det_expr(0, 2) - _T0 * det_expr(0, 1),
    "c2": DERIVED_C2,
    "cbar2": det_expr(0, 3) - 2 * _R0 * det_expr(0, 1),
    "c5": DERIVED_C5,
}


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


@pytest.mark.parametrize("order", [-1, 1.5, True, None])
def test_a_binding_order_must_be_a_non_negative_int(order):
    with pytest.raises(ValueError, match="non-negative integer"):
        ChartFrame().binding("f", order)
    with pytest.raises(ValueError, match="non-negative integer"):
        ChartFrame().binding("T", order)


def test_the_binding_table_is_shared_by_every_frame():
    assert ChartFrame().binding("R", 2) is ChartFrame().binding("R", 2)


def test_the_frame_refuses_orders_above_its_bound_before_any_work():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"binds jet orders up to {BINDING_ORDER_BOUND}"):
        ChartFrame().binding("f", 3000)
    with pytest.raises(ValueError, match=r"got f\[3000\]"):
        is_global(jet("f", 3000) * jet("g", 0) - jet("f", 0) * jet("g", 3000), 2998)
    assert time.perf_counter() - start < 1
    above = BINDING_ORDER_BOUND + 1
    for family in ("f", "T", "R"):
        with pytest.raises(OrderCapExceeded):
            ChartFrame().binding(family, above)
        with pytest.raises(OrderCapExceeded):
            pushforward(jet(family, above))


def test_the_frame_binds_orders_at_its_bound():
    b = BINDING_ORDER_BOUND
    assert ChartFrame().binding("f", b) == hinv() * D(ChartFrame().binding("f", b - 1))
    res = is_global(jet("f", b) * jet("g", 0) - jet("f", 0) * jet("g", b), b - 2)
    assert not res.ok and res.residual.max_order("h") == b


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
    assert _subs_h(fr.binding("T", 0), identity_like) == jet("T", 0)
    R_binding = fr.binding("R", 0)
    assert (R_binding - hinv() ** 2 * (jet("R", 0) + schwarzian())).is_zero()
    # a 1-form has no inhomogeneous part, and h has no law of its own
    assert fr.binding("w", 0) == hinv() * jet("w", 0)
    with pytest.raises(ValueError):
        fr.binding("h", 1)


def test_package_a_consistency():
    # transform-then-combine equals combine-then-transform for R = T'+T^2/2
    fr = ChartFrame()
    Tb = fr.binding("T", 0)
    lhs = hinv() * D(Tb) + Tb ** 2 * Fraction(1, 2)
    rhs = hinv() ** 2 * (projective_from_affine() + schwarzian())
    assert (lhs - rhs).is_zero()


def test_globality_catalogue_and_naked_failures():
    for name, weight in (("cbar0", -1), ("cbar1", 0), ("c1", 1), ("cbar2", 1),
                         ("c2", 2), ("c5", 5), ("c0w", 1)):
        res = is_global(catalogue(name, "connection"))
        assert res.weight == weight and res.ok, name
    for name, weight in (("cbar0", 0), ("cbar1", 1), ("cbar2", 2)):
        assert is_global(catalogue(name, "omega")).ok
    for p, q, w in ((1, 2, 1), (0, 2, 0), (0, 3, 1)):
        res = is_global(det_expr(p, q), w)
        assert not res.ok and not res.residual.is_zero()
        assert "h" in res.residual.families()


def test_printed_variants_fail_transform_law():
    for name, weight in (("c1", 1), ("c2", 2), ("c5", 5)):
        res = is_global(PRINTED_CONNECTION_VARIANTS[name], weight)
        assert not res.ok


def test_nabla_commutes_with_frame_change():
    f, w = jet("f", 0), jet("w", 0)
    cases = [(f, -1), (w, 1), (f * w, 0), (covariant_derivative(w, 1), 2)]
    for a, weight in cases:
        assert is_global(a, weight).ok
        assert is_global(covariant_derivative(a, weight), weight + 1).ok


def test_is_global_accepts_densities():
    w = jet("w", 0)
    assert is_global(w, 1).ok
    assert is_global(covariant_derivative(w, 1), 2).ok
    assert not is_global(jet("T", 0), 1).ok
    assert not is_global(w, 2).ok
    # an explicit weight overrides a cochain's value weight
    assert not is_global(catalogue("c1", "connection"), 2).ok
    # an integral Fraction is taken as its int
    res = is_global(w, Fraction(1))
    assert res.ok and type(res.weight) is int


@pytest.mark.parametrize("target, weight", [
    (jet("w", 0), Fraction(1, 2)),
    (jet("f", 0) * jet("w", 0), Fraction(-1, 3)),
    (("c1", "connection"), Fraction(3, 2)),
])
def test_is_global_rejects_non_integer_weights(target, weight):
    # a catalogue entry is looked up here, not at collection: a connection
    # form runs the correction solver, whose failure must fail this test only
    if type(target) is tuple:
        target = catalogue(*target)
    with pytest.raises(ValueError, match="integer weight"):
        is_global(target, weight)


def test_is_global_reaches_the_default_cap():
    # f[12] pushes forward to h[13]: the frame binds every order of its
    # input up to BINDING_ORDER_BOUND, twice the default cap
    res = is_global(det_expr(0, 12), 10)
    assert not res.ok and "h" in res.residual.families()


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
    assert res.representative.coeff == CONNECTION_FORMS["cbar2"]


def test_solve_corrections_cbar1():
    res = solve_corrections(catalogue("cbar1", "flat"))
    assert res.feasible
    assert res.representative.coeff == CONNECTION_FORMS["cbar1"]


def test_catalogue_connection_forms_equal_the_hand_typed_ones():
    for name, coeff in CONNECTION_FORMS.items():
        assert catalogue(name, "connection").coeff == coeff, name


def test_connection_and_omega_forms_keep_the_generators_module():
    """The solver reads cbar0's symbolic module at lam = -1; the catalogue
    keeps the generator's own module in each connection form."""
    assert charts.derive("cbar0").module_lambda == -1
    assert type(catalogue("cbar0", "connection").module_lambda) is LamPoly
    assert catalogue("c0w", "connection").module_lambda is None
    for name, module in (("cbar1", 1), ("cbar2", 2)):
        got = catalogue(name, "connection").module_lambda
        assert got == module and type(got) is int, name
    for name in ("cbar0", "cbar1", "cbar2"):
        conn, omega = catalogue(name, "connection"), catalogue(name, "omega")
        assert omega.coeff == conn.coeff * jet("w", 0), name
        assert omega.value_weight == omega.module_lambda == conn.value_weight + 1, name


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


def test_a_gauge_needs_one_coordinate_per_direction():
    res = charts.derive("c1")
    assert res.dimension == 1
    assert res.member([0]).coeff == res.representative.coeff
    for gauge in ([1, 5], [], (Fraction(1, 2),) * 2):
        with pytest.raises(ValueError, match="needs 1 coordinates"):
            res.member(gauge)
        with pytest.raises(ValueError, match="needs 1 coordinates"):
            res.solution.point(gauge)


@pytest.mark.parametrize("name, dimension, derived",
                         [("c2", 1, DERIVED_C2), ("c5", 8, DERIVED_C5)])
def test_solve_corrections_reproduces_derived_forms(name, dimension, derived):
    res = solve_corrections(catalogue(name, "flat"))
    assert res.feasible and res.dimension == dimension
    assert res.representative.coeff == derived


@pytest.mark.parametrize("name", ["c1", "c5"])
def test_contains_members_and_rejects_moves_off_the_solution_set(name):
    res = solve_corrections(catalogue(name, "flat"))
    rng = random.Random(11)
    for _ in range(3):
        gauge = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(res.dimension)]
        assert res.contains(res.member(gauge).coeff)
    # ansatz directions that no gauge reaches, found by their own solve
    nvars = len(res.ansatz)
    outside = [i for i in range(nvars) if solve_affine(
        [({j: vec.get(k, Fraction(0)) for j, vec in enumerate(res.solution.nullspace)},
          Fraction(int(k == i))) for k in range(nvars)], res.dimension) is None]
    assert outside
    rep = res.representative.coeff
    for i in outside[:4]:
        assert not res.contains(rep + res.ansatz[i].expr), res.ansatz[i].label()


def test_solve_corrections_empty_outcome():
    res = solve_corrections(det_expr(0, 4), weight=2)
    assert not res.feasible
    assert res.representative is None
    assert not res.contains(res.symbol)


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
    """A coefficient is rational, so a lam-carrying symbol never reaches the
    solver: the kernel refuses lam as a scale or a factor (TypeError) and
    the grammar has no lam (ExprSyntaxError)."""
    with pytest.raises(TypeError):
        det_expr(1, 2).scale(LamPoly.lam())
    with pytest.raises(TypeError):
        det_expr(1, 2) * LamPoly.lam()
    with pytest.raises(ExprSyntaxError, match="unknown name 'lam'"):
        parse_expr("lam*det(1,2)")


# -- the infinitesimal law against the finite one ---------------------------

_VARIED = ("f", "g", "T", "R", "w")


def _first_order_of_finite_law(e: DiffExpr, weight: int) -> DiffExpr:
    """eps^1 part of pushforward(e) - hinv_power(weight) * e at h = z + eps X,
    X carried by k: h[1] -> 1 + eps k[1], h[n] -> eps k[n], hinv -> 1 - eps k[1].
    e carries no k, so eps counts the k jets: the eps^1 part is the terms
    of k-degree 1 at eps = 1."""
    residual = pushforward(e) - hinv_power(weight) * e
    table = {(_RANK["hinv"], 0): 1 - jet("k", 1)}
    for n in range(1, residual.max_order("h") + 1):
        table[_RANK["h"], n] = (1 if n == 1 else 0) + jet("k", n)
    expanded = substitute_jets(residual, table)
    return DiffExpr({mono: coef for mono, coef in expanded.terms()
                     if sum(exp for (rank, _order), exp in mono if rank == _RANK["k"]) == 1})


@pytest.mark.parametrize("family", _VARIED)
def test_linear_residual_is_first_order_part_of_binding_table_on_jets(family):
    for order in range(5):
        for weight in (-1, 0, 2):
            e = jet(family, order)
            first = _first_order_of_finite_law(e, weight)
            # only a bare vector field is a density, of weight -1
            assert first.is_zero() == (family in "fg" and order == 0 and weight == -1)
            assert _linear_residual(e, weight) == first, (family, order, weight)


def test_linear_residual_is_first_order_part_of_binding_table_on_random_expressions():
    rng = random.Random(7)
    nonzero = 0
    for _ in range(40):
        e = random_expr(rng, families=_VARIED)
        weight = rng.randint(-2, 3)
        first = _first_order_of_finite_law(e, weight)
        assert _linear_residual(e, weight) == first, (e, weight)
        nonzero += not first.is_zero()
    assert nonzero >= 30


def _add_rows(e: DiffExpr, space: int, index, rows: dict):
    for mono, coef in e.terms():
        row = rows.setdefault((space, mono), [{}, Fraction(0)])
        if index is None:
            row[1] -= coef
        else:
            row[0][index] = row[0].get(index, Fraction(0)) + coef


def _finite_law_solution(result):
    """solve_affine of the finite-law system over result.ansatz: globality as
    pushforward(e) - (h')^(-weight) e, cocycle rows from ce_parts per term."""
    frame = ChartFrame()
    rows: dict = {}
    for index, e in [(None, result.symbol)] + list(enumerate(t.expr for t in result.ansatz)):
        _add_rows(frame.pushforward(e) - hinv_power(result.weight) * e, 0, index, rows)
        delta = ce_parts(e, 2, result.module_lambda)[0]
        if result.trivial_action:
            for i, fam in enumerate(("f", "g", "k", "T", "R", "w")):
                _add_rows(euler_derivative(delta, fam), 10 + i, index, rows)
        else:
            _add_rows(delta, 1, index, rows)
    return solve_affine(((row, rhs) for row, rhs in rows.values()), len(result.ansatz))


# every 3 <= p+q <= 6 plus det(0,7) and det(1,6): 4 feasible, 8 infeasible
_GLOBALIZE_DETS = tuple((p, q) for q in range(1, 7) for p in range(q)
                        if 3 <= p + q <= 6) + ((0, 7), (1, 6))
_FEASIBLE_DETS = ((1, 2), (1, 3), (2, 3), (2, 4))
_SYSTEMS = (
    [(name, catalogue(name, "flat"), None, True)
     for name in ("cbar0", "c0w", "c1", "cbar1", "c2", "cbar2", "c5")]
    + [(f"det({p},{q})", det_expr(p, q), p + q - 2, (p, q) in _FEASIBLE_DETS)
       for p, q in _GLOBALIZE_DETS]
    + [("3det(3,4)+2det(2,5)", 3 * det_expr(3, 4) + 2 * det_expr(2, 5), 5, True)]
)


@pytest.mark.parametrize("symbol, weight, feasible", [s[1:] for s in _SYSTEMS],
                         ids=[s[0] for s in _SYSTEMS])
def test_infinitesimal_rows_solve_like_the_finite_law(symbol, weight, feasible):
    result = solve_corrections(symbol, weight)
    finite = _finite_law_solution(result)
    assert result.feasible == (finite is not None) == feasible
    if feasible:
        assert result.dimension == finite.dimension
        assert result.solution.nullspace == finite.nullspace
        assert result.solution.particular == _canonical_point(finite)


_CLI_GOLDEN = {tuple(case["argv"]): case["stdout"] for case in json.loads(
    (Path(__file__).parent / "data" / "cli_stdout.json").read_text(encoding="utf-8"))}


@pytest.mark.parametrize("symbol, weight, cap, code", [
    ("det(1,2)", 1, 1, 2), ("det(1,2)", 1, 2, 0), ("det(1,2)", 1, 3, 0),
    ("det(1,3)", 2, 2, 2), ("det(1,3)", 2, 3, 0), ("det(1,3)", 2, 4, 0),
    ("det(3,4)", 5, 4, 2), ("det(3,4)", 5, 5, 0), ("det(3,4)", 5, 6, 0),
])
def test_globalize_exit_codes_at_low_caps(symbol, weight, cap, code, capsys):
    """--max-order bounds the symbol's jet orders (det(1,2) at 1, det(1,3)
    at 2) and the connection jets of the ansatz (det(3,4) at weight 5 needs
    T[5] past 4), and nothing else: at or above both bounds the command prints
    what it prints at the default, pinned in tests/data/cli_stdout.json."""
    argv = ["globalize", "--symbol", symbol, "--weight", str(weight)]
    assert main(argv + ["--max-order", str(cap)]) == code
    out, err = capsys.readouterr()
    if code:
        assert f"cap {cap}" in err and err.endswith("(raise --max-order)\n") and not out
        return
    golden = _CLI_GOLDEN.get(tuple(argv))
    if golden is None:
        assert main(argv) == 0
        golden = capsys.readouterr().out
    assert out == golden


# -- golden solutions --------------------------------------------------------

_SOLUTIONS_PATH = Path(__file__).parent / "data" / "solver_solutions.json"
_MODULES = (("default", None), ("0", 0), ("3", 3))


def _solution_record(result) -> dict:
    """feasible, dimension, ansatz labels, canonical point and nullspace of a
    solve, with rationals as text and coordinates as string keys."""
    def row(vec):
        return {str(i): str(v) for i, v in sorted(vec.items())}

    solution = result.solution
    return {"feasible": result.feasible, "dimension": result.dimension,
            "ansatz": [term.label() for term in result.ansatz],
            "coefficients": row(solution.particular) if solution else {},
            "nullspace": [row(vec) for vec in solution.nullspace] if solution else []}


# the pure pieces that solve_corrections builds once per process
_PIECE_CACHES = (charts._jet_variation, charts._connection_monomials,
                 charts._det_pieces, cochains._ce_pieces)


def _golden_solutions(cold: bool = False) -> dict:
    """The golden records; cold clears the piece caches before every solve."""
    out = {}
    for name, symbol, weight, _ in _SYSTEMS:
        for module, value in _MODULES:
            for piece in _PIECE_CACHES if cold else ():
                piece.cache_clear()
            out[f"{name}@{module}"] = _solution_record(
                solve_corrections(symbol, weight, module_lambda=value))
    return out


def _assert_golden(got: dict):
    golden = json.loads(_SOLUTIONS_PATH.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(golden)
    for key, record in got.items():
        assert record == golden[key], key


def test_solutions_match_the_golden_fixture():
    """Every _SYSTEMS solve at the default module and at module_lambda 0 and
    3, canonical point included, as pinned in tests/data/solver_solutions.json
    (written by _golden_solutions)."""
    _assert_golden(_golden_solutions())


def test_solutions_match_the_golden_fixture_from_cold_piece_caches():
    """No solve depends on what an earlier solve left in the piece caches."""
    _assert_golden(_golden_solutions(cold=True))
    assert all(piece.cache_info().currsize for piece in _PIECE_CACHES)


def test_solver_reads_a_lam_poly_module_like_a_cochains_own():
    """A LamPoly module_lambda is read in the one form of a module parameter:
    LamPoly.const(1) is the concrete module 1, LamPoly.lam() is the
    symbolic module that reads lam = weight, as the default does, and any
    other non-constant LamPoly is a ValueError."""
    symbol = det_expr(1, 2)
    for given, same_as in ((LamPoly.const(1), 1), (LamPoly.lam(), None)):
        got = solve_corrections(symbol, 1, module_lambda=given)
        want = solve_corrections(symbol, 1, module_lambda=same_as)
        assert got.module_lambda == want.module_lambda == 1
        assert type(got.module_lambda) is int
        assert got.solution == want.solution and got.ansatz == want.ansatz
        assert got.representative == want.representative
    for bad in (LamPoly((1, 1)), LamPoly((0, 2)), LamPoly((0, 0, 1))):
        with pytest.raises(ValueError, match="must be lam itself"):
            solve_corrections(symbol, 1, module_lambda=bad)


# -- the vertex search against its definition --------------------------------

def _every_coordinate_subset_point(solution):
    """The canonical point by its definition: the minimal-support point, ties
    broken lexicographically, over the particular point and the vertices where
    every d-subset of the involved coordinates vanishes (d <= 3, at most 26
    coordinates; else the echelon particular point)."""
    d = solution.dimension
    relevant = sorted({i for vec in solution.nullspace for i in vec})
    if d == 0 or d > 3 or len(relevant) > 26:
        return dict(solution.particular)
    points = [dict(solution.point([0] * d))]
    for zero_set in itertools.combinations(relevant, d):
        sub = solve_affine([({j: vec.get(i, 0) for j, vec in enumerate(solution.nullspace)},
                             -solution.particular.get(i, 0)) for i in zero_set], d)
        if sub is not None and sub.dimension == 0:
            points.append(solution.point([sub.particular.get(j, 0) for j in range(d)]))
    return min(points, key=lambda point: (
        len(point), tuple(point.get(i, 0) for i in range(solution.nvars))))


def _solver_inputs(monkeypatch, symbol, weight, module_lambda=None):
    """The echelon solutions solve_corrections hands to _canonical_point."""
    seen = []

    def spy(solution):
        seen.append(solution)
        return _canonical_point(solution)

    monkeypatch.setattr(charts, "_canonical_point", spy)
    solve_corrections(symbol, weight, module_lambda=module_lambda)
    monkeypatch.undo()
    return seen


def test_vertex_search_matches_its_definition(monkeypatch):
    """On the solver's echelon solutions, and on the same sets handed over
    through a point off every vertex, where the search alone finds the
    canonical point."""
    searched = 0
    for name, symbol, weight, _ in _SYSTEMS:
        for _module_name, value in _MODULES:
            for solution in _solver_inputs(monkeypatch, symbol, weight, value):
                d = solution.dimension
                if d > 3:
                    continue
                canonical = _canonical_point(solution)
                assert canonical == _every_coordinate_subset_point(solution), name
                moved = AffineSolution(solution.nvars, solution.point(
                    [Fraction(7, 3), Fraction(-5, 2), Fraction(11, 13)][:d]), solution.nullspace)
                assert _canonical_point(moved) == canonical == \
                    _every_coordinate_subset_point(moved), name
                searched += 0 < d
    assert searched >= 8


def test_vertex_search_tries_each_gauge_hyperplane_once(monkeypatch):
    (solution,) = _solver_inputs(monkeypatch, det_expr(2, 3), 3)
    relevant = {i for vec in solution.nullspace for i in vec}
    assert (solution.dimension, len(relevant)) == (3, 16)
    calls = []

    def counting(rows, nvars):
        calls.append(nvars)
        return solve_affine(rows, nvars)

    monkeypatch.setattr(charts, "solve_affine", counting)
    point = _canonical_point(solution)
    monkeypatch.undo()
    # 16 coordinates lie on 10 hyperplanes: C(10,3) = 120, not C(16,3) = 560
    assert 0 < len(calls) <= 120
    assert point == _every_coordinate_subset_point(solution)


# -- globality rows by Leibniz -------------------------------------------------

def test_linear_residual_obeys_leibniz_on_ansatz_terms():
    """L_{a+b}(m c) = m L_b(c) + c L_a(m) for every split of the weight,
    L = _linear_residual, m a T/R monomial and c = det(p,q)."""
    rng = random.Random(15)
    for q in range(1, 8):
        for p in range(min(q, 8 - q)):
            c = det_expr(p, q)
            for _ in range(3):
                m = DiffExpr.one()
                for _ in range(rng.randrange(4)):
                    m = m * jet(rng.choice("TR"), rng.randrange(4))
                weight = rng.randint(-2, 6)
                for a in (-1, 0, 2, weight):
                    b = weight - a
                    assert _linear_residual(m * c, weight) == \
                        m * _linear_residual(c, b) + c * _linear_residual(m, a), \
                        (p, q, m, a, b)


# -- row assembly against the expression-built reference -----------------------

def _system_rows(monkeypatch, symbol, weight, module_lambda):
    """The solve, with the rows it hands solve_affine for its system (the
    first call; the vertex search makes the others)."""
    calls = []

    def spy(rows, nvars):
        rows = list(rows)
        calls.append(rows)
        return solve_affine(rows, nvars)

    monkeypatch.setattr(charts, "solve_affine", spy)
    result = solve_corrections(symbol, weight, module_lambda=module_lambda)
    monkeypatch.undo()
    return result, calls[0]


def _row_multiset(rows) -> Counter:
    return Counter((frozenset(entries.items()), rhs) for entries, rhs in rows)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_solver_rows_match_the_expression_built_reference(monkeypatch, cold):
    """The rows assembled straight from the pieces are those of the
    expression-built assembly (helpers.solver_rows_reference) at its ordered
    monomials (helpers.ordered_rows), row for row with the same multiplicity
    and no zero entry, for every _SYSTEMS solve at every _MODULES value; c0w
    at its own module is the trivial action.  Cold clears the piece caches
    before every solve."""
    trivial = 0
    for name, symbol, weight, _ in _SYSTEMS:
        for module, value in _MODULES:
            for piece in _PIECE_CACHES if cold else ():
                piece.cache_clear()
            result, rows = _system_rows(monkeypatch, symbol, weight, value)
            want = ordered_rows(result, solver_rows_reference(result)).values()
            assert _row_multiset(rows) == _row_multiset(want), f"{name}@{module}"
            assert all(v for entries, _ in rows for v in entries.values()), f"{name}@{module}"
            trivial += result.trivial_action
    assert trivial == 1


def _primitive_form(entries) -> tuple:
    """A row up to scale: integer entries with no common factor, the entry
    of smallest index positive."""
    items = sorted((i, Fraction(v)) for i, v in entries.items() if v)
    den = lcm(*(v.denominator for _, v in items))
    ints = [(i, v.numerator * (den // v.denominator)) for i, v in items]
    g = gcd(*(v for _, v in ints))
    g = -g if ints[0][1] < 0 else g
    return tuple((i, v // g) for i, v in ints)


def test_the_weight_7_system_has_the_sizes_the_docs_quote(monkeypatch):
    """The c7 solve from cold caches hands solve_affine 507 rows, 493 of them
    distinct up to scale, on 266 unknowns with a 17-dimensional gauge, so
    rank 249; the full expression-built system has 1,682 rows (linalg's
    module docstring and the README quote these numbers)."""
    charts.derive.cache_clear()
    for piece in _PIECE_CACHES:
        piece.cache_clear()
    calls = []

    def spy(rows, nvars):
        rows = list(rows)
        calls.append((rows, nvars))
        return solve_affine(rows, nvars)

    monkeypatch.setattr(charts, "solve_affine", spy)
    result = charts.derive("c7")
    monkeypatch.undo()
    charts.derive.cache_clear()
    rows, nvars = calls[0]
    assert len(rows) == 507
    assert len({_primitive_form(entries) for entries, _ in rows}) == 493
    assert nvars == len(result.ansatz) == 266
    assert result.dimension == 17 and nvars - result.dimension == 249
    assert len(solver_rows_reference(result)) == 1682


def test_the_rows_at_permuted_arguments_repeat_the_ordered_rows(monkeypatch):
    """Every row of the expression-built reference at a monomial whose
    argument orders do not increase is the permutation's sign times the row
    at the ordered monomial, no row sits where two orders are equal, and the
    whole reference system has the solution of the solver's rows, for every
    _SYSTEMS solve at every _MODULES value.  So emitting the ordered rows
    only loses nothing."""
    permuted = 0
    for name, symbol, weight, _ in _SYSTEMS:
        for module, value in _MODULES:
            result, rows = _system_rows(monkeypatch, symbol, weight, value)
            full = solver_rows_reference(result)
            for (space, mono), (entries, rhs) in full.items():
                sign, partner = ordered_partner(mono, solver_arguments(result, space))
                assert sign, f"{name}@{module}: {mono}"
                if partner != mono:
                    ordered_entries, ordered_rhs = full[space, partner]
                    assert {i: sign * v for i, v in ordered_entries.items() if v} == \
                        {i: v for i, v in entries.items() if v}, f"{name}@{module}: {mono}"
                    assert rhs == sign * ordered_rhs, f"{name}@{module}: {mono}"
                    permuted += 1
            nvars = len(result.ansatz)
            assert len(rows) < len(full) or not full, f"{name}@{module}"
            assert solve_affine(((row, rhs) for row, rhs in full.values()), nvars) == \
                solve_affine(rows, nvars), f"{name}@{module}"
    assert permuted > 1000


def test_product_rows_drop_what_cancels():
    """No solver system makes two products of one term cancel, so they are
    made to here: a (b + b2) and then -a b2 into one entry give the rows of
    a b alone, with a zero entry dropped, a row left empty and without a
    right-hand side dropped, and a row with one kept."""
    rng = random.Random(24)
    cancelled = 0
    for _ in range(40):
        a, b, b2 = (random_expr(rng, families=("f", "g", "T")) for _ in range(3))
        rhs = random_expr(rng, families=("T",))
        if rng.random() < 0.5:
            rhs = rhs + DiffExpr(dict((a * b2).terms()[:1]))
        got, want, one = {}, {}, DiffExpr.one()
        charts._product_rows(rhs, one, 0, None, got)
        charts._product_rows(rhs, one, 0, None, want)
        charts._product_rows(a, b + b2, 0, 7, got)
        charts._product_rows(-a, b2, 0, 7, got)
        charts._product_rows(a * b, one, 0, 7, want)
        assert got == want
        cancelled += len(a * (b + b2)) > len(a * b)
    assert cancelled > 20


def test_a_lam_carrying_product_still_refuses_its_rows(monkeypatch):
    """No row can depend on lam: a piece times lam is a TypeError in the
    kernel, before any row is built, inside a solve too."""
    pieces = charts._det_pieces

    def lam_pieces(p, q, module_lambda):
        c, linear, delta_c, alternating = pieces(p, q, module_lambda)
        return c, linear, delta_c * LamPoly.lam(), alternating

    monkeypatch.setattr(charts, "_det_pieces", lam_pieces)
    with pytest.raises(TypeError):
        solve_corrections(det_expr(1, 3), 2, module_lambda=2)


# -- one integer-weight rule -----------------------------------------------------

@pytest.mark.parametrize("solve", [is_global, solve_corrections])
@pytest.mark.parametrize("weight, error, message", [
    (Fraction(3, 2), ValueError, "globality needs an integer weight"),
    (1.0, TypeError, "expected an exact rational, got float"),
    (True, ValueError, "globality needs an integer weight, got True"),
    (False, ValueError, "globality needs an integer weight, got False"),
], ids=["fraction", "float", "true", "false"])
def test_one_weight_rule_for_globality_and_the_solver(solve, weight, error, message):
    with pytest.raises(error, match=message):
        solve(det_expr(1, 2), weight)


@pytest.mark.parametrize("cap", [True, False, 12.0])
def test_the_solver_cap_is_an_int(cap):
    with pytest.raises(ValueError, match="max_order must be an integer"):
        solve_corrections(det_expr(1, 2), 1, max_order=cap)
