"""Kernel: canonical form, derivation, substitution, evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcocycles.expr import (
    _RANK,
    _mono_from_pairs,
    _mono_mul,
    DEFAULT_ORDER_CAP,
    DiffExpr,
    OrderCapExceeded,
    check_order_cap,
    euler_derivative,
    hinv,
    hinv_power,
    jet,
    partial_derivative,
    substitute,
    substitute_jets,
    total_derivative as D,
)
from jetcocycles.charts import ChartFrame
from jetcocycles.lampoly import LamPoly

from helpers import (LAM, eval_rational, is_canonical, is_total_derivative,
                     random_coeff, random_expr, random_point,
                     substitute_jets_reference)

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
    e = F1.scale(Fraction(-5, 3)) - F1.scale(Fraction(-5, 3)) + 2
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
    with pytest.raises(ValueError, match="non-integer exponent"):
        hinv_power(Fraction(1, 2))  # type: ignore[arg-type]


def test_bool_exponents_are_refused():
    # a bool is an int to isinstance; an exponent, like a jet order, must be
    # a plain int, or the monomial would store True as its exponent
    for n in (True, False):
        with pytest.raises(ValueError, match="non-integer exponent"):
            F0 ** n
        with pytest.raises(ValueError, match="non-integer exponent"):
            hinv_power(n)
    assert F0 ** 1 == F0 and hinv_power(1) == hinv()


def test_mixed_operands_act_as_the_constant_taken_as_an_expression():
    """An int or a Fraction on either side of +, - and * is that constant
    taken as a DiffExpr; a sum that cancels is the zero; a float, a LamPoly
    (lam is not a coefficient) or any other object on either side is a
    TypeError."""
    rng = random.Random(30)
    consts = (0, 3, -2, Fraction(1, 2), Fraction(-7, 3))
    for x in [DiffExpr.zero(), DiffExpr.one()] + [random_expr(rng) for _ in range(12)]:
        for c in consts:
            e = DiffExpr.rational(c)
            assert x + c == c + x == x + e == e + x, (x, c)
            assert x - c == x - e and c - x == e - x, (x, c)
            assert x * c == c * x == x * e == e * x, (x, c)
            for got in (x + c - c, c + x - c, x - c + c, c - (c - x)):
                assert got == x and _stored_form_ok(got), (x, c)
            for cancelled in ((x + c) - (e + x), (c - x) - (e - x), c - e, e - c):
                assert cancelled.is_zero() and cancelled == DiffExpr.zero(), (x, c)
        assert (x - x).is_zero() and x - x == DiffExpr.zero()
        assert (-x + x).is_zero() and x + (-x) == DiffExpr.zero()
        for bad in (1.5, object(), LAM, LamPoly.const(5)):
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(x, bad)
                with pytest.raises(TypeError):
                    op(bad, x)


def test_a_coefficient_is_a_rational_and_never_carries_lam():
    """The module parameter lam is not a coefficient: a LamPoly in a term
    dict, as a scale or as a factor is a TypeError, a constant one too."""
    for c in (LAM, LamPoly.const(3)):
        with pytest.raises(TypeError):
            DiffExpr({(): c})
        with pytest.raises(TypeError):
            jet("f", 0) * c
        with pytest.raises(TypeError):
            c * jet("f", 0)
        with pytest.raises(TypeError):
            jet("f", 0).scale(c)
    assert DiffExpr({(): Fraction(6, 3)}).terms() == [((), 2)]


_KERNEL_MODULES = ("expr", "syntax", "calculus")


@pytest.mark.parametrize("module", _KERNEL_MODULES)
def test_the_kernel_modules_do_not_import_lampoly(module):
    """expr, syntax and calculus hold rationals only: no import in them
    names LamPoly (they may take Rat and _rat from lampoly)."""
    import ast
    from pathlib import Path

    import jetcocycles

    path = Path(jetcocycles.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert names and "LamPoly" not in names
    assert not any(isinstance(node, ast.Name) and node.id == "LamPoly"
                   for node in ast.walk(tree))


def test_order_cap():
    # the kernel bounds no order; check_order_cap bounds an input's orders
    f13 = jet("f", 13)
    assert D(jet("f", 12)) == f13
    assert check_order_cap(f13, 13) is f13
    with pytest.raises(OrderCapExceeded, match="jet order 13 exceeds cap 12 for family 'f'"):
        check_order_cap(jet("g", 0) * f13, DEFAULT_ORDER_CAP)
    with pytest.raises(ValueError):
        jet("h", 0)
    with pytest.raises(ValueError):
        jet("q", 0)


def test_bool_jet_orders_are_refused():
    # f[True] would print a name that parse_expr rejects
    for order in (True, False):
        with pytest.raises(ValueError, match="non-negative integer"):
            jet("f", order)
        with pytest.raises(ValueError, match="non-negative integer"):
            partial_derivative(F0, "f", order)
    assert jet("f", 1) == F1


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


def _stored_form_ok(e):
    """Canonical monomials (sorted distinct atoms, positive exponents, never
    hinv beside h[1]) and coefficients in the stored form."""
    for mono, c in e.terms():
        atoms = [atom for atom, _exp in mono]
        if atoms != sorted(set(atoms)) or any(exp <= 0 for _atom, exp in mono):
            return False
        if (_RANK["hinv"], 0) in atoms and (_RANK["h"], 1) in atoms:
            return False
        if not is_canonical(c):
            return False
    return True


def _matches_reference(e, table):
    got = substitute_jets(e, table)
    assert got == substitute_jets_reference(e, table)
    assert _stored_form_ok(got)
    return got


def _one_term(rng):
    """A one-term value: a rational coefficient (possibly zero) times a
    power of a jet of a family ranked below, between or above the bound
    families g and T."""
    fam = rng.choice(("f", "k", "R", "h"))
    order = rng.randrange(1 if fam == "h" else 0, 3)
    return DiffExpr.rational(random_coeff(rng)) * jet(fam, order) ** rng.randint(1, 2)


def _multi_term(rng):
    return random_expr(rng, families=("f", "k", "h"), terms=3, with_hinv=True)


def _bound_input(rng):
    """An expression in the bound families g, T and the unbound f (ranked
    below them) and h, hinv (above), with bound jets raised to powers >= 2."""
    e = random_expr(rng, families=("f", "g", "T", "h"), terms=4, factors=3, with_hinv=True)
    return e * (jet("g", rng.randrange(3)) ** 2 + jet("T", rng.randrange(3)) ** 3 + 1)


def _table(make, rng, top=3):
    return {(_RANK[fam], order): make(rng) for fam in ("g", "T") for order in range(top + 1)}


@pytest.mark.parametrize("make", [_one_term, _multi_term,
                                  lambda rng: rng.choice((_one_term, _multi_term))(rng)],
                         ids=["one-term", "multi-term", "mixed"])
def test_substitute_jets_matches_the_per_monomial_reference(make):
    rng = random.Random(2201)
    for _ in range(25):
        _matches_reference(_bound_input(rng), _table(make, rng))


def test_substitute_jets_matches_the_reference_on_chart_bindings():
    frame = ChartFrame()
    rng = random.Random(2202)
    for _ in range(10):
        e = random_expr(rng, families=("f", "g", "T", "R"), terms=3, factors=3)
        e = e * (jet("f", rng.randrange(3)) ** 2 + jet("T", 0) * jet("h", 1)) + hinv()
        table = {(_RANK[fam], order): frame.binding(fam, order)
                 for fam in ("f", "g", "T", "R") for order in range(e.max_order(fam) + 1)}
        _matches_reference(e, table)


def test_substitute_jets_sums_that_cancel_to_zero():
    # a renamed jet g -> k meets the kept k: the rests of each shared factor
    # path cancel before the multi-term factors T are multiplied in
    rng = random.Random(2203)
    for _ in range(10):
        x = random_expr(rng, families=("f", "T"), terms=3, factors=3)
        e = x * (jet("g", 0) * jet("g", 1) - jet("k", 0) * jet("k", 1))
        table = {(_RANK["T"], order): _multi_term(rng) for order in range(4)}
        table.update({(_RANK["g"], order): jet("k", order) for order in range(2)})
        assert _matches_reference(e, table).is_zero()
    # a multi-term value that is zero, and a bound jet whose value cancels
    # another monomial
    table = {(_RANK["g"], 0): G0 - G0, (_RANK["g"], 1): F0 + F1}
    assert _matches_reference(G0 * F1 + G1 * F2 - F0 * F2 - F1 * F2, table).is_zero()


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


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        a = random_expr(rng, with_hinv=True)
        b = random_expr(rng, with_hinv=True)
        pt = random_point(rng, a, b)
        assert eval_rational(a * b, pt) == eval_rational(a, pt) * eval_rational(b, pt)
        assert eval_rational(a + b, pt) == eval_rational(a, pt) + eval_rational(b, pt)


def test_eval_respects_hinv():
    e = hinv() ** 2
    pt = {("h", 1): Fraction(3, 2)}
    assert eval_rational(e, pt) == Fraction(4, 9)


# -- ring axioms (property-based) ----------------------------------------

_ATOMS = st.sampled_from(
    [jet("f", i) for i in range(3)] + [jet("g", i) for i in range(3)]
    + [jet("T", 0), hinv(), DiffExpr.rational(Fraction(2, 3)),
       DiffExpr.rational(-5)]
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
        y = y - DiffExpr.rational(dict(y.terms()).get((), 0))
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
    term through the reference partial derivative, on seeded expressions
    that are mostly not exact; k never occurs.  Terms carry forced squares
    and cubes of one jet and rational coefficients, so the exponent
    times the coefficient is exercised, in the families f, g, T, w and h
    (whose jets start at order 1)."""
    rng = random.Random(29)
    nonzero = 0
    for _ in range(40):
        e = random_expr(rng, families=("f", "g", "T", "w", "h"), max_order=3, terms=4,
                        factors=3)
        forced = rng.choice(("f", "g", "T", "w", "h"))
        power = jet(forced, rng.randrange(forced == "h", 4)) ** rng.choice((2, 3))
        e = e + DiffExpr.rational(Fraction(rng.randint(1, 9), rng.randint(1, 4))) * power
        for fam in ("f", "g", "T", "w", "h", "k"):
            want = DiffExpr.zero()
            for j in range(fam == "h", e.max_order(fam) + 1):
                piece = _reference_partial_derivative(e, _atom(fam, j))
                for _ in range(j):
                    piece = -D(piece)
                want = want + piece
            got = euler_derivative(e, fam)
            assert got == want
            nonzero += not got.is_zero()
        assert euler_derivative(e, "k").is_zero()
    assert nonzero > 95


def test_the_one_pass_euler_derivative_is_the_definitional_sum():
    """euler_derivative(e, fam) against sum_j (-D)^j d e / d fam[j], built
    from partial_derivative and repeated total_derivative, on seeded
    expressions in f, g and k with T, R and w backgrounds, hinv factors,
    squares and cubes of one jet and rational coefficients, for every
    family but h, and on hinv-free ones for h.  Jets reach order 4, so a
    slipped sign or order in a Horner step changes the answer; two hand
    cases pin the sign of each order."""
    assert euler_derivative(jet("f", 3) * G0, "f") == -jet("g", 3)
    assert euler_derivative(hinv() * F2 * jet("T", 1), "f") == D(D(hinv() * jet("T", 1)))
    rng = random.Random(31)
    nonzero = 0
    for _ in range(30):
        for fams, with_hinv in ((("f", "g", "k", "T", "R", "w"), True),
                                (("f", "T", "h"), False)):
            e = random_expr(rng, families=fams, max_order=4, terms=4, factors=3,
                            with_hinv=with_hinv)
            forced = rng.choice(fams)
            power = jet(forced, rng.randrange(forced == "h", 5)) ** rng.choice((2, 3))
            e = e + DiffExpr.rational(random_coeff(rng)) * power
            for fam in fams:
                if fam == "h" and with_hinv:
                    continue
                want = DiffExpr.zero()
                for j in range(fam == "h", e.max_order(fam) + 1):
                    piece = partial_derivative(e, fam, j)
                    for _ in range(j):
                        piece = -D(piece)
                    want = want + piece
                got = euler_derivative(e, fam)
                assert got == want, (fam, e)
                nonzero += not got.is_zero()
    assert nonzero > 120


def test_euler_derivative_takes_free_families_only():
    """h's jets start at order 1, so its order-0 part is empty; hinv is
    1/h[1], not a free jet, and an unknown family is refused by name."""
    assert euler_derivative(jet("h", 2) * F0, "h") == F2
    assert is_total_derivative(jet("h", 2))
    with pytest.raises(ValueError, match="hinv"):
        euler_derivative(hinv() * F0, "hinv")
    with pytest.raises(ValueError, match="hinv"):
        euler_derivative(jet("h", 2) * F1 + hinv() * F0, "h")
    with pytest.raises(ValueError, match="'x'"):
        euler_derivative(F0, "x")


# -- hashing agrees with equality ------------------------------------------


def test_constants_hash_like_their_fraction():
    for q in (3, 0, -1, Fraction(1, 2), Fraction(-7, 3)):
        e = DiffExpr.rational(q)
        assert e == q and hash(e) == hash(Fraction(q))
        assert q in {e} and e in {q}
    assert 0 in {DiffExpr.zero()} and hash(DiffExpr.zero()) == hash(0)
    assert 3 not in {DiffExpr.rational(3) + F0}


# -- shifted and merged monomials against the definitional path -------------

_H, _HINV0 = _RANK["h"], (_RANK["hinv"], 0)
_H1 = (_H, 1)


def _atom(fam, order):
    return (_RANK[fam], order)


def _mono(*factors):
    return _mono_from_pairs([(_atom(fam, order), exp) for fam, order, exp in factors])


# adjacent orders with repeated exponents, and the h / hinv corner cases
_HAND_MONOS = (
    _mono(("f", 2, 2), ("f", 3, 1)),
    _mono(("f", 2, 1), ("f", 3, 2)),
    _mono(("f", 0, 3), ("f", 1, 1), ("f", 2, 1), ("g", 0, 1)),
    _mono(("T", 0, 1), ("T", 1, 2), ("R", 2, 1)),
    _mono(("h", 1, 2), ("h", 2, 1)),
    _mono(("h", 1, 1), ("h", 2, 1), ("h", 3, 1)),
    _mono(("h", 2, 1), ("hinv", 0, 3)),
    _mono(("f", 1, 1), ("h", 3, 2), ("hinv", 0, 1)),
    (),
)


def _random_mono(rng):
    pairs = []
    for _ in range(rng.randrange(0, 5)):
        fam = rng.choice(("f", "f", "g", "T", "h", "hinv"))
        order = 0 if fam == "hinv" else rng.randrange(1 if fam == "h" else 0, 4)
        pairs.append((_atom(fam, order), rng.randrange(1, 4)))
    return _mono_from_pairs(pairs)


def _random_kernel_expr(rng):
    """Canonical terms assembled by _mono_from_pairs, not by the product."""
    monos = [_random_mono(rng) for _ in range(rng.randrange(1, 5))]
    monos += rng.sample(_HAND_MONOS, 2)
    return DiffExpr({m: random_coeff(rng) for m in monos})


def _assert_canonical(e):
    for mono, coef in e.terms():
        atoms = [atom for atom, _ in mono]
        assert atoms == sorted(set(atoms)), mono
        assert all(type(x) is int and x > 0 for _, x in mono), mono
        assert not (_HINV0 in atoms and _H1 in atoms), mono
        assert is_canonical(coef) and coef, coef


def _accumulate(acc, mono, c):
    acc[mono] = acc.get(mono, 0) + c


def _reference_total_derivative(e):
    acc = {}
    for mono, coef in e.terms():
        for i, (atom, exp) in enumerate(mono):
            rest = list(mono[:i]) + [(atom, exp - 1)] + list(mono[i + 1:])
            if atom == _HINV0:
                pairs, k = rest + [((_H, 2), 1), (_HINV0, 2)], -exp
            else:
                pairs, k = rest + [((atom[0], atom[1] + 1), 1)], exp
            _accumulate(acc, _mono_from_pairs(pairs), k * coef)
    return DiffExpr(acc)


def _reference_partial_derivative(e, atom):
    acc = {}
    for mono, coef in e.terms():
        for i, (a, exp) in enumerate(mono):
            if a == atom:
                rest = list(mono[:i]) + [(a, exp - 1)] + list(mono[i + 1:])
                _accumulate(acc, _mono_from_pairs(rest), exp * coef)
    return DiffExpr(acc)


def _reference_difference(a, b):
    acc = {}
    for mono, coef in a.terms():
        _accumulate(acc, mono, coef)
    for mono, coef in b.terms():
        _accumulate(acc, mono, -coef)
    return DiffExpr(acc)


def test_kernel_loops_match_the_definitional_path():
    rng = random.Random(41)
    exprs = [_random_kernel_expr(rng) for _ in range(60)]
    exprs.append(DiffExpr({m: 1 for m in _HAND_MONOS}))
    for e in exprs:
        got = D(e)
        assert got == _reference_total_derivative(e)
        _assert_canonical(got)
        for fam, order in (("f", 2), ("f", 3), ("h", 1), ("h", 2), ("hinv", 0), ("T", 1)):
            got = partial_derivative(e, fam, order)
            assert got == _reference_partial_derivative(e, _atom(fam, order))
            _assert_canonical(got)
    for a, b in zip(exprs, exprs[1:] + exprs[:1]):
        for x, y in ((a, b), (a, a), (a, a + b)):
            got = x - y
            assert got == _reference_difference(x, y)
            _assert_canonical(got)


def test_monomial_merge_matches_the_definitional_path():
    rng = random.Random(43)
    monos = list(_HAND_MONOS) + [_random_mono(rng) for _ in range(40)]
    cancelled = 0
    for m1 in monos:
        for m2 in monos:
            got = _mono_mul(m1, m2)
            assert got == _mono_from_pairs(m1 + m2)
            _assert_canonical(DiffExpr({got: 1}))
            atoms = {a for a, _ in m1 + m2}
            cancelled += _HINV0 in atoms and _H1 in atoms
    assert cancelled > 50
    assert _mono_mul(_mono(("hinv", 0, 2)), _mono(("h", 1, 3), ("h", 2, 1))) \
        == _mono(("h", 1, 1), ("h", 2, 1))
    assert _mono_mul(_mono(("f", 0, 1), ("hinv", 0, 1)), _mono(("h", 1, 1))) \
        == _mono(("f", 0, 1))
    assert _mono_mul(_mono(("h", 2, 1), ("hinv", 0, 3)), _mono(("h", 1, 1), ("h", 2, 1))) \
        == _mono(("h", 2, 2), ("hinv", 0, 2))


def test_derivative_of_adjacent_orders_merges():
    f2, f3, f4 = jet("f", 2), jet("f", 3), jet("f", 4)
    assert D(f2 ** 2 * f3) == 2 * f2 * f3 ** 2 + f2 ** 2 * f4
    assert D(f2 * f3 ** 2) == f3 ** 3 + 2 * f2 * f3 * f4
