"""Cochains, the CE differential, the lambda solver, the catalogue."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetcocycles.cochains import (
    CATALOGUE_NAMES,
    FORMS,
    _ALIASES,
    Cochain1,
    Cochain2,
    LambdaVerdict,
    _ce_pieces,
    _class_pieces,
    _higher_euler,
    _slot_blocks,
    _ordered,
    _trivial_class,
    catalogue,
    ce_differential,
    ce_parts,
    coboundary,
    coeff_and_weight,
    det_cochain,
    det_expr,
    lambda_solutions,
)
from jetcocycles.calculus import bracket, nabla_power
from jetcocycles.charts import (_det_pieces, _linear_residual, derive, is_global,
                               solve_corrections)
from jetcocycles.wittmodel import evaluate_cochain
from jetcocycles.expr import (DiffExpr, OrderCapExceeded, check_order_cap, euler_derivative,
                              hinv, jet, substitute, total_derivative)
from jetcocycles.lampoly import LamPoly, gcd_all, rational_roots
from jetcocycles.syntax import parse_expr

from helpers import (LAM, ce_parts_reference, exact_class, is_total_derivative,
                     lambda_solutions_reference, random_coeff, random_expr, swap_fg_reference)


def test_det_cochain_basics():
    c = det_cochain(0, 1)
    assert c.coeff == jet("f", 0) * jet("g", 1) - jet("f", 1) * jet("g", 0)
    assert c.value_weight == -1
    assert det_cochain(3, 4).value_weight == 5
    with pytest.raises(ValueError):
        det_cochain(1, 1)
    with pytest.raises(ValueError):
        det_cochain(2, 1)


def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain2(jet("f", 0) * jet("g", 1), 0)       # not antisymmetric
    with pytest.raises(ValueError):
        Cochain2(jet("f", 0) ** 2 * jet("g", 1) - jet("g", 0) ** 2 * jet("f", 1), 0)
    with pytest.raises(ValueError):
        Cochain1(jet("f", 0) ** 2, 0, LamPoly.const(0))
    # Cochain2 bounds no jet order, so a symbol past the default cap
    # builds, and a symmetric one of the same order is still rejected
    assert det_cochain(0, 13, 24).value_weight == 11
    f0, f13, g0, g13 = (jet(x, n) for x in "fg" for n in (0, 13))
    with pytest.raises(ValueError, match="antisymmetric"):
        Cochain2(f0 * g13 + f13 * g0, 11)


@pytest.mark.parametrize("make, message", [
    (lambda: Cochain1(jet("f", 0) * jet("g", 1), 0, 1), "1-cochain must not carry g jets"),
    (lambda: Cochain1(jet("f", 2) * jet("k", 0), 0, 1), "1-cochain must not carry k jets"),
    (lambda: Cochain2(det_expr(0, 2) * jet("k", 1), 1, 2), "2-cochain must not carry k jets"),
    (lambda: Cochain2(det_expr(1, 3) * jet("k", 0), 1), "2-cochain must not carry k jets"),
], ids=["cochain1-g", "cochain1-k", "cochain2-k", "cochain2-k-symbolic"])
def test_a_cochain_refuses_the_argument_families_of_its_differential(make, message):
    """g and k (k alone for a 2-cochain) are arguments of the differential,
    which ce_parts would read as background; the refusal names the family,
    where a g in a 1-cochain used to fail only in coboundary, as not
    bilinear."""
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("arity", [0, 3, -1])
def test_ce_parts_refuses_an_arity_other_than_one_or_two(arity):
    with pytest.raises(ValueError, match=f"ce_parts needs a 1- or 2-cochain, got arity {arity}"):
        ce_parts(det_expr(0, 2), arity, LAM)


def _random_bilinear(rng):
    """A seeded sum of terms c f^(a) g^(b) times T, R, w, h and hinv jets,
    with rational coefficients; made antisymmetric (e - swap e) in
    two draws in five; otherwise with a term that is its own relabeling
    (a = b) added, with every partner present at twice the right
    coefficient, or as drawn."""
    e = random_expr(rng, families=("T", "R", "w", "h"), max_order=2, terms=3, factors=2,
                    with_hinv=True) * jet("f", rng.randrange(4)) * jet("g", rng.randrange(4))
    e = e + jet("f", rng.randrange(4)) * jet("g", rng.randrange(4)) * random_coeff(rng)
    kind = rng.randrange(5)
    if kind < 2:
        return e - swap_fg_reference(e)
    if kind == 2:
        a = rng.randrange(4)
        return e - swap_fg_reference(e) + jet("f", a) * jet("g", a) * jet("T", 0)
    if kind == 3:
        return e - swap_fg_reference(e) * 2
    return e


def test_the_antisymmetry_check_agrees_with_the_substitute_swap():
    """Cochain2 accepts a bilinear coefficient iff swapping f and g through
    substitute negates it, on seeded inputs with backgrounds and rational
    coefficients, half of them antisymmetric by construction; an accepted
    one is the sum of its blocks, each background times det(p,q)."""
    rng = random.Random(2601)
    verdicts = []
    for _ in range(120):
        e = _random_bilinear(rng)
        antisymmetric = (swap_fg_reference(e) + e).is_zero()
        try:
            Cochain2(e, 0)
            accepted = True
        except ValueError as err:
            assert "antisymmetric" in str(err), err
            accepted = False
        assert accepted == antisymmetric, e
        verdicts.append(accepted)
        if accepted:
            rebuilt = sum((DiffExpr(back) * det_expr(*block)
                           for block, back in _slot_blocks(e, 2).items()), DiffExpr.zero())
            assert rebuilt == e
    assert verdicts.count(True) > 30 and verdicts.count(False) > 40


@pytest.mark.parametrize("call", [
    lambda e: is_global(e),
    lambda e: solve_corrections(e),
    lambda e: evaluate_cochain(e, 1, 2),
], ids=["is_global", "solve_corrections", "evaluate_cochain"])
def test_a_bare_expression_needs_a_weight(call):
    c = det_cochain(1, 3)
    assert coeff_and_weight(c, None) == (c.coeff, 2)
    assert coeff_and_weight(c, 5) == (c.coeff, 5)
    assert coeff_and_weight(c.coeff, 2) == (c.coeff, 2)
    with pytest.raises(ValueError, match="weight is required for a bare expression"):
        call(c.coeff)


def test_ce_differential_table_rows():
    """At the symbolic module the differential is the pencil X + lam Y of
    ce_parts, which ce_differential refuses; at a concrete module it is
    the pencil's value there."""
    x, y = ce_parts(det_expr(0, 1), 2, LAM)
    assert x.is_zero() and y.is_zero()
    x, y = ce_parts(det_expr(0, 2), 2, LAM)
    assert not y.is_zero() and (x + y).is_zero() and not (x + 2 * y).is_zero()
    assert ce_differential(det_cochain(0, 2).at_lambda(1)).is_zero()
    assert ce_differential(det_cochain(0, 2).at_lambda(2)) == x + 2 * y
    assert not ce_differential(det_cochain(0, 4).at_lambda(3)).is_zero()
    with pytest.raises(ValueError, match="symbolic"):
        ce_differential(det_cochain(0, 1))


def test_lambda_solutions_examples():
    v12 = lambda_solutions(det_cochain(1, 2))
    assert v12.trivial_action_pass
    assert lambda_solutions(det_cochain(2, 3)).values == (Fraction(3),)
    assert lambda_solutions(det_cochain(3, 4)).values == (Fraction(5),)
    with pytest.raises(ValueError):
        lambda_solutions(det_cochain(0, 2).at_lambda(1))


def test_lambda_solutions_needs_a_symbolic_module():
    # the solution set in lam is a module-action verdict, which the trivial
    # action (module None) has none of
    with pytest.raises(ValueError, match="symbolic"):
        lambda_solutions(Cochain2(det_expr(0, 3).scale(Fraction(1, 2)), 1, None))
    with pytest.raises(ValueError, match="symbolic"):
        lambda_solutions(catalogue("c0w", "flat"))


def test_coboundary_examples():
    # Leibniz-compatible: delta(f -> f') vanishes at lam = 0
    b = Cochain1(jet("f", 1), 0, LamPoly.const(0))
    assert coboundary(b).coeff.is_zero()
    # identity cochain on the adjoint module: delta(id)(f,g) = [f,g]
    ident = Cochain1(jet("f", 0), -1, LamPoly.const(-1))
    assert coboundary(ident).coeff == bracket(jet("f", 0), jet("g", 0))
    # delta(f -> f'') = (lam-1) det(1,2) at every module
    for lam in (-1, 0, 1, 2, Fraction(5, 2)):
        b2 = Cochain1(jet("f", 2), 1, lam)
        assert coboundary(b2).coeff == det_expr(1, 2).scale(lam - 1)
    # a 1-cochain's module is concrete or trivial
    with pytest.raises(ValueError, match="1-cochain needs a concrete module"):
        Cochain1(jet("f", 2), 1, LamPoly.lam())


def test_coboundaries_are_cocycles():
    rng = random.Random(17)
    for trial in range(20):
        order = rng.randrange(0, 4)
        lam = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if trial % 3
               else LamPoly.const(rng.randint(-3, 5)))
        coeff = jet("f", order).scale(random_coeff(rng))
        if trial % 4 == 0:
            coeff = coeff * jet("T", rng.randrange(0, 2))
        b = Cochain1(coeff, 0, lam)
        assert ce_differential(coboundary(b)).is_zero()


def test_catalogue_flat_forms():
    assert catalogue("cbar0", "flat").coeff == det_expr(0, 1)
    assert catalogue("c5", "flat").coeff == det_expr(3, 4)
    assert catalogue("c7", "flat").coeff == 2 * det_expr(3, 6) - 9 * det_expr(4, 5)
    assert catalogue("c0w", "flat").coeff == det_expr(0, 3).scale(Fraction(1, 2))
    assert catalogue("c0w", "flat").trivial_action


def test_catalogue_unicode_aliases_and_errors():
    assert catalogue("c̄₂", "connection").coeff == catalogue("cbar2", "connection").coeff
    with pytest.raises(KeyError):
        catalogue("c9", "flat")
    with pytest.raises(KeyError):
        catalogue("c1", "omega")          # unbarred: no 1-form pairing
    c7 = catalogue("c7", "connection")   # derived like every connection form
    assert c7.coeff == derive("c7").representative.coeff
    assert is_global(c7).ok and ce_differential(c7).is_zero()
    with pytest.raises(KeyError):
        catalogue("c0w", "covariant")
    with pytest.raises(KeyError):
        catalogue("c1", "nonsense")


def _cov_det(i: int, j: int) -> DiffExpr:
    """|nabla^i f  nabla^i g; nabla^j f  nabla^j g| on weight -1 inputs."""
    fi, fj = (nabla_power(jet("f", 0), -1, n) for n in (i, j))
    gi, gj = (nabla_power(jet("g", 0), -1, n) for n in (i, j))
    return fi * gj - fj * gi


# the columns once typed beside each flat form, which the grading rule of
# the catalogue must reproduce: name -> (value weight, module parameter),
# and the covariant forms as determinants of covariant derivatives
GRADING = {
    "cbar0": (-1, LamPoly.lam()),
    "c0w": (1, None),
    "c1": (1, 1),
    "cbar1": (0, 1),
    "c2": (2, 2),
    "cbar2": (1, 2),
    "c5": (5, 5),
    "c7": (7, 7),
}
COVARIANT_FORMS = {
    "cbar0": _cov_det(0, 1),
    "c1": _cov_det(1, 2),
    "cbar1": _cov_det(0, 2),
    "c2": _cov_det(1, 3),
    "cbar2": _cov_det(0, 3),
    "c5": _cov_det(3, 4),
    "c7": 2 * _cov_det(3, 6) - 9 * _cov_det(4, 5),
}


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_the_grading_rule_reproduces_weight_module_and_covariant_form(name):
    weight, module = GRADING[name]
    flat = catalogue(name, "flat")
    assert (flat.value_weight, flat.module_lambda) == (weight, module)
    assert type(flat.module_lambda) is type(module)
    if name not in COVARIANT_FORMS:
        with pytest.raises(KeyError):
            catalogue(name, "covariant")
        return
    cov = catalogue(name, "covariant")
    assert cov.coeff == COVARIANT_FORMS[name]
    assert (cov.value_weight, cov.module_lambda) == (weight, module)


def test_generator_weight_and_lambda_agree():
    for name in CATALOGUE_NAMES:
        flat = catalogue(name, "flat")
        if flat.trivial_action:           # c0w: values pair to constants
            continue
        if name.startswith("cbar"):
            omega = catalogue(name, "omega")
            assert omega.value_weight == flat.value_weight + 1
            assert omega.module_lambda == LamPoly.const(omega.value_weight)
        else:
            assert flat.module_lambda == LamPoly.const(flat.value_weight)


def test_catalogue_stores_one_cochain_per_pair():
    pairs = []
    for name in CATALOGUE_NAMES:
        for form in FORMS:
            try:
                catalogue(name, form)
            except KeyError:
                continue
            pairs.append((name, form))
    missing = {(n, f) for n in CATALOGUE_NAMES for f in FORMS} - set(pairs)
    assert missing == {("c0w", "covariant")} | {
        (n, "omega") for n in CATALOGUE_NAMES if not n.startswith("cbar")}
    for name, form in pairs:
        assert catalogue(name, form) is catalogue(name, form)
    for alias, name in _ALIASES.items():
        for form in FORMS:
            if (name, form) in pairs:
                assert catalogue(alias, form) is catalogue(name, form)


def test_catalogue_is_built_on_first_lookup_not_at_import():
    import jetcocycles

    script = ("import jetcocycles\n"
              "from jetcocycles.cochains import _build, catalogue\n"
              "assert _build.cache_info().currsize == 0\n"
              "catalogue('c1', 'flat')\n"
              "assert _build.cache_info().currsize == 1\n")
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_a_flat_lookup_builds_no_covariant_form():
    """Flat lookups build neither a covariant form nor the nabla table they
    share; a covariant lookup builds its own form only."""
    import jetcocycles

    script = ("import jetcocycles as J\n"
              "from jetcocycles.cochains import _covariant, _nabla_jets\n"
              "for name in J.CATALOGUE_NAMES:\n"
              "    J.catalogue(name, 'flat')\n"
              "assert _covariant.cache_info().currsize == 0\n"
              "assert _nabla_jets.cache_info().currsize == 0\n"
              "J.catalogue('c5', 'covariant')\n"
              "assert _covariant.cache_info().currsize == 1\n"
              "assert _nabla_jets.cache_info().currsize == 1\n")
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_flat_lookups_and_the_laurent_suites_never_solve():
    """Flat and covariant lookups, kn_value and the witt and nontrivial
    suites start no correction solve; a connection lookup starts one."""
    import jetcocycles

    script = ("import jetcocycles as J\n"
              "from jetcocycles.charts import _det_pieces, derive\n"
              "for name in J.CATALOGUE_NAMES:\n"
              "    J.catalogue(name, 'flat')\n"
              "    if name != 'c0w':\n"
              "        J.catalogue(name, 'covariant')\n"
              "assert J.kn_value(2, -2) == -6\n"
              "J.run_suite('witt', window=2)\n"
              "J.run_suite('nontrivial', window=2)\n"
              "assert derive.cache_info().currsize == 0\n"
              "assert _det_pieces.cache_info().currsize == 0\n"
              "J.catalogue('c1', 'connection')\n"
              "assert derive.cache_info().currsize == 1\n")
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_omega_forms_carry_background_jet():
    c = catalogue("cbar2", "omega")
    assert "w" in c.coeff.families()
    assert c.value_weight == 2


def test_connection_forms_are_flat_plus_corrections():
    for name in ("c1", "cbar1", "c2", "cbar2", "c5"):
        conn = catalogue(name, "connection").coeff
        flat = catalogue(name, "flat").coeff
        correction = conn - flat
        fams = correction.families()
        assert fams <= {"f", "g", "T", "R"}
        # corrections all carry at least one connection symbol
        for mono, _ in correction.terms():
            assert any(fam in ("T", "R")
                       for fam in (("f", "g", "k", "T", "R", "w", "h", "hinv")[r]
                                   for (r, _o), _e in mono))


def test_covariant_forms_reduce_to_flat_without_connection():
    for name in ("c1", "cbar1", "c2", "cbar2", "c5", "c7"):
        cov = catalogue(name, "covariant").coeff
        flat_part = substitute(cov, {"T": jet("T", 0).scale(0)})
        assert flat_part == catalogue(name, "flat").coeff


def test_bracket_expr_of_two_families():
    f, g, k = jet("f", 0), jet("g", 0), jet("k", 0)
    assert bracket(f, g) == jet("f", 0) * jet("g", 1) - jet("f", 1) * jet("g", 0)
    assert bracket(g, k) == jet("g", 0) * jet("k", 1) - jet("g", 1) * jet("k", 0)
    assert bracket(k, f) == -bracket(f, k)


def test_ce_parts_split_insertions_from_the_action():
    """The insertions are the trivial-action differential, and the full
    differential is the pencil X + lam Y: at a concrete module ce_parts
    returns its value there as X, with Y zero.  For the trivial action
    ce_differential is the class k E_k of the insertions, zero iff they are
    a total derivative."""
    for p, q in ((0, 2), (2, 3), (1, 4), (2, 5)):
        c = det_cochain(p, q)
        x, y = ce_parts(c.coeff, 2, c.module_lambda)
        insertions, zero = ce_parts(c.coeff, 2, None)
        assert zero.is_zero()
        trivial = ce_differential(Cochain2(c.coeff, c.value_weight, None))
        assert trivial == jet("k", 0) * euler_derivative(insertions, "k")
        assert trivial.is_zero() == is_total_derivative(insertions)
        for lam in (0, 3, Fraction(-1, 2)):
            assert ce_differential(c.at_lambda(lam)) == x + y.scale(lam)
            assert ce_parts(c.coeff, 2, lam) == (x + y.scale(lam), DiffExpr.zero())


def _background_jet(rng, families):
    fam = rng.choice(families)
    if fam == "hinv":
        return hinv()
    return jet(fam, rng.randrange(fam == "h", 3))


def _random_ce_inputs(rng, count, families="TRw"):
    """Seeded 1-cochains linear in f and antisymmetric 2-cochains (sums of
    det(a,b) blocks), f and g orders up to 14, times background jets of the
    given families."""
    out = []
    for _ in range(count):
        for arity in (1, 2):
            coeff = DiffExpr.zero()
            for _ in range(rng.randrange(1, 4)):
                piece = DiffExpr.rational(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
                for _ in range(rng.randrange(0, 3)):
                    piece = piece * _background_jet(rng, families)
                if arity == 1:
                    piece = piece * jet("f", rng.randrange(0, 15))
                else:
                    piece = piece * det_expr(*sorted(rng.sample(range(15), 2)))
                coeff = coeff + piece
            out.append((coeff, arity))
    return out


def _catalogue_cochains():
    """Every covariant, connection and omega form of the catalogue."""
    out = []
    for name in CATALOGUE_NAMES:
        for form in ("covariant", "connection", "omega"):
            try:
                out.append(catalogue(name, form))
            except KeyError:
                pass
    return out


def test_ce_parts_matches_the_definitional_path():
    """ce_parts against the prolongation through substitute, at the trivial
    action, a rational module and a symbolic one, on seeded cochains with
    T, R and w backgrounds and with h and hinv ones, from empty tables of
    argument jets and of pieces and again after a lambda sweep has grown
    them; and on every covariant, connection and omega form of the
    catalogue, at those three and at its own module."""
    _ce_pieces.cache_clear()
    rng = random.Random(53)
    cases = _random_ce_inputs(rng, 6) + _random_ce_inputs(rng, 4, ("T", "R", "w", "h", "hinv"))
    assert any("hinv" in coeff.families() for coeff, _arity in cases)
    assert any("h" in coeff.families() for coeff, _arity in cases)
    for _sweep in range(2):
        for coeff, arity in cases:
            for lam in (None, Fraction(-3, 2), LamPoly.lam()):
                assert ce_parts(coeff, arity, lam) == ce_parts_reference(coeff, arity, lam)
        for p in (0, 5, 15):
            lambda_solutions(det_cochain(p, 16, 24), 24)
    # the sweep kept the pieces of the determinants it read
    misses = _ce_pieces.cache_info().misses
    for p in (0, 5, 15):
        _ce_pieces((p, 16))
    assert _ce_pieces.cache_info().misses == misses
    forms = _catalogue_cochains()
    assert len(forms) == 18
    for c in forms:
        for lam in {None, Fraction(-3, 2), LamPoly.lam(), c.module_lambda}:
            assert ce_parts(c.coeff, 2, lam) == ce_parts_reference(c.coeff, 2, lam), (c, lam)


def _assert_empty_in_a_fresh_interpreter(name: str):
    """The cache of cochains.<name> holds nothing after the package import."""
    import jetcocycles

    script = ("import jetcocycles\n"
              f"from jetcocycles.cochains import {name}\n"
              f"assert {name}.cache_info().currsize == 0\n")
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_the_pieces_are_the_definitional_ones_for_every_small_block():
    """Every block's pieces, written term by term, are those of the
    definitional path (helpers.ce_parts_reference), for every det(p,q) with
    q <= 16 and every f^(p) with p <= 16: I is the trivial-action
    differential, A and B the lam-free and lam-linear parts of the rest,
    and D(alt) = A + B, which fixes alt, a polynomial with no constant
    term."""
    _ce_pieces.cache_clear()
    blocks = [((p,), jet("f", p), 1) for p in range(17)]
    blocks += [((p, q), det_expr(p, q), 2) for q in range(1, 17) for p in range(q)]
    for block, coeff, arity in blocks:
        insertions, action, linear, alternating = _ce_pieces(block)
        at_zero = ce_parts_reference(coeff, arity, 0)[0]
        assert insertions == ce_parts_reference(coeff, arity, None)[0], block
        assert action == at_zero - insertions, block
        assert linear == ce_parts_reference(coeff, arity, 1)[0] - at_zero, block
        assert total_derivative(alternating) == action + linear, block
        assert () not in alternating._terms


def test_the_bracket_jets_are_the_iterated_derivatives_of_the_bracket():
    """The insertions of a 1-cochain's block f^(n) are -D^n [f,g], the
    closed Leibniz form of the bracket's jets, equal to n total derivatives
    of bracket(f, g), for every n <= 40."""
    d = bracket(jet("f", 0), jet("g", 0))
    for n in range(41):
        assert _ce_pieces((n,))[0] == -d, n
        d = total_derivative(d)


def test_the_piece_caches_need_no_deep_recursion():
    """Under a recursion limit of 120, the lambda solve of det(0, 200) builds
    its bracket jets and the frame builds the binding of R[24] cold."""
    import jetcocycles

    script = ("import sys\n"
              "from jetcocycles.charts import ChartFrame\n"
              "from jetcocycles.cochains import det_cochain, lambda_solutions\n"
              "sys.setrecursionlimit(120)\n"
              "assert lambda_solutions(det_cochain(0, 200, 200), 200).kind == 'none'\n"
              "ChartFrame().binding('R', 24)\n")
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_the_piece_table_is_keyed_per_determinant_and_immutable():
    """A lambda sweep over all det(p,q), q <= 12, leaves one entry per
    determinant, 78, each a tuple of four expressions (I, A, B, alt) with
    D(alt) = A + B, read again as the same tuple and by the solver's
    _det_pieces; the cache is empty at import, and a 1-cochain's f^(p) is
    an entry (p,) of its own."""
    _ce_pieces.cache_clear()
    for q in range(1, 13):
        for p in range(q):
            lambda_solutions(det_cochain(p, q, 24), 24)
    assert _ce_pieces.cache_info().currsize == 78
    misses = _ce_pieces.cache_info().misses
    for block in [(p, q) for p in range(12) for q in range(p + 1, 13)]:
        pieces = _ce_pieces(block)
        assert type(pieces) is tuple and len(pieces) == 4
        assert all(type(piece) is DiffExpr for piece in pieces)
        insertions, action, linear, alternating = pieces
        assert total_derivative(alternating) == action + linear
        assert _ce_pieces(block) is pieces
        with pytest.raises(AttributeError):
            insertions._terms = {}
    assert _ce_pieces.cache_info().misses == misses
    for module in (None, 3):
        c, linear, delta_c, alternating = _det_pieces(2, 5, module)
        assert c == jet("f", 2) * jet("g", 5)
        assert linear == _ordered(_linear_residual(det_expr(2, 5), 5), 2)
        if module is None:
            assert delta_c is None and alternating is None
        else:
            assert delta_c == _ordered(ce_parts(det_expr(2, 5), 2, module)[0], 3)
            assert alternating == _ordered(_ce_pieces((2, 5))[3], 3)
    coboundary(Cochain1(jet("f", 3), 2, 2))
    assert _ce_pieces.cache_info().currsize == 79
    _ce_pieces((3,))
    assert _ce_pieces.cache_info().misses == misses + 1
    _assert_empty_in_a_fresh_interpreter("_ce_pieces")


def test_trivial_action_cocycles_are_read_modulo_total_derivatives():
    """The insertions of c0w are a nonzero total derivative, so it is a
    trivial-action cocycle, and ce_differential says so in both forms."""
    for form in ("flat", "connection"):
        c = catalogue("c0w", form)
        assert c.trivial_action and not ce_parts(c.coeff, 2, None)[0].is_zero()
        assert ce_differential(c).is_zero(), form


def _random_trilinear(rng):
    """A sum of terms c f^(a) g^(b) k^(c) times up to two T, R, w jets."""
    out = DiffExpr.zero()
    for _ in range(rng.randint(1, 4)):
        term = DiffExpr.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for fam in "fgk":
            term = term * jet(fam, rng.randint(0, 3))
        for _ in range(rng.randint(0, 2)):
            term = term * jet(rng.choice("TRw"), rng.randint(0, 2))
        out = out + term
    return out


def test_the_exact_class_agrees_with_the_exactness_test():
    """The oracle helpers.exact_class(e) vanishes iff e is a total
    derivative on seeded random trilinear expressions, half of them exact
    by construction (they are no cochains' insertions); and _trivial_class
    vanishes iff the trivial-action insertions are a total derivative, on
    every det(p,q) with q <= 9."""
    exprs = []
    rng = random.Random(1801)
    for _ in range(40):
        e = total_derivative(_random_trilinear(rng))
        exprs.append(e + _random_trilinear(rng) if rng.random() < 0.5 else e)
    verdicts = [is_total_derivative(e) for e in exprs]
    assert True in verdicts and False in verdicts
    assert [exact_class(e).is_zero() for e in exprs] == verdicts
    dets = [det_expr(p, q) for q in range(1, 10) for p in range(q)]
    verdicts = [is_total_derivative(ce_parts(d, 2, None)[0]) for d in dets]
    assert True in verdicts and False in verdicts
    assert [_trivial_class(d).is_zero() for d in dets] == verdicts


_CLASS_BACKGROUNDS = (DiffExpr.one(), jet("T", 0), jet("R", 0), jet("T", 1) * jet("R", 0),
                      jet("T", 0) ** 2, jet("w", 2), hinv() * jet("T", 0))


def _seeded_class_coefficients(count, seed=34):
    """Seeded 2-cochain coefficients: sums of up to three det(p,q), q <= 7,
    each times a nonzero integer and a background from _CLASS_BACKGROUNDS."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeff = DiffExpr.zero()
        for _ in range(rng.randint(1, 3)):
            q = rng.randint(1, 7)
            scale = rng.choice((-3, -2, -1, 1, 2, 3))
            coeff = coeff + rng.choice(_CLASS_BACKGROUNDS) * det_expr(rng.randrange(q), q) * scale
        if not coeff.is_zero():
            out.append(coeff)
    return out


def test_the_block_class_is_the_euler_derivative_of_the_insertions():
    """_trivial_class(coeff), taken block by block with the higher Euler
    operators, is k E_k(I) for the trivial-action insertions I (the oracle
    helpers.exact_class) as an expression: on all 78 det(p,q) with q <= 12
    at cap 24, and on 160 seeded cochains with backgrounds, constant and
    not, where the terms i >= 1 of nonconstant backgrounds are needed."""
    cases = [det_cochain(p, q, 24).coeff for q in range(1, 13) for p in range(q)]
    cases += _seeded_class_coefficients(160)
    nonzero = 0
    for coeff in cases:
        want = exact_class(ce_parts(coeff, 2, None)[0])
        assert _trivial_class(coeff) == want, coeff
        nonzero += not want.is_zero()
    assert nonzero > 100
    assert any(len(list(_class_pieces((p, q), m))) > 1
               for p, q in ((0, 3), (2, 5)) for m in _CLASS_BACKGROUNDS)


def test_the_higher_euler_tables_are_kept_per_block_and_order():
    """A lambda sweep over all det(p,q), q <= 12, with constant backgrounds,
    reads each block's table at i = 0 only, 78 entries; a nonconstant
    background adds the orders it reaches, and the cache is empty at
    import."""
    _higher_euler.cache_clear()
    for q in range(1, 13):
        for p in range(q):
            lambda_solutions(det_cochain(p, q, 24), 24)
    assert _higher_euler.cache_info().currsize == 78
    misses = _higher_euler.cache_info().misses
    for q in range(1, 13):
        for p in range(q):
            assert _higher_euler((p, q), 0) is _higher_euler((p, q), 0)
    assert _higher_euler.cache_info().misses == misses
    # T det(2,5): D(T) = T', D^2(T) = T'', ..., up to the top k order 6
    ce_differential(Cochain2(jet("T", 0) * det_expr(2, 5), 4, None))
    assert _higher_euler.cache_info().currsize == 78 + 6
    _assert_empty_in_a_fresh_interpreter("_higher_euler")


_VERDICTS = {(row["p"], row["q"]): row for row in json.loads(
    (Path(__file__).parent / "data" / "lambda_verdicts.json").read_text(encoding="utf-8"))}


def _verdict_row(p, q, verdict):
    return {"p": p, "q": q, "kind": verdict.kind,
            "values": [str(v) for v in verdict.values],
            "trivial_action_pass": verdict.trivial_action_pass}


def test_lambda_verdicts_match_pinned_rows():
    """Every det(p,q) with q <= 8, pinned in tests/data/lambda_verdicts.json
    (computed at cap 24): at the default cap, and through the positional
    det_cochain(p, q, 24) / lambda_solutions(c, 24) calls perfbench makes."""
    assert sorted(_VERDICTS) == sorted((p, q) for q in range(1, 9) for p in range(q))
    for (p, q), row in _VERDICTS.items():
        assert _verdict_row(p, q, lambda_solutions(det_cochain(p, q))) == row
        assert _verdict_row(p, q, lambda_solutions(det_cochain(p, q, 24), 24)) == row


@pytest.mark.parametrize("p, q", [(5, 7), (4, 8), (6, 8)])
def test_lambda_verdicts_that_cancel_below_the_default_cap(p, q):
    # the trivial-action class of these vanishes, so it carries no jet past
    # the default cap 12 (unlike the three below)
    assert _verdict_row(p, q, lambda_solutions(det_cochain(p, q))) == _VERDICTS[p, q]
    assert _VERDICTS[p, q]["kind"] == "none" and _VERDICTS[p, q]["trivial_action_pass"]


@pytest.mark.parametrize("p, q", [(6, 7), (5, 8), (7, 8)])
def test_lambda_verdicts_that_reach_jets_past_the_default_cap(p, q):
    # the trivial-action classes of these reach order 13-15; the cap bounds
    # only the input's orders, so they finish at the default with their
    # pinned rows, and a cap below q refuses the input
    c = det_cochain(p, q)
    assert _verdict_row(p, q, lambda_solutions(c)) == _VERDICTS[p, q]
    assert 13 <= max(_trivial_class(c.coeff).max_order(fam) for fam in "fg") <= 15
    with pytest.raises(OrderCapExceeded, match=f"jet order {q} exceeds cap {q - 1}"):
        lambda_solutions(c, q - 1)


def _lambda_verdict_from_every_coefficient(c):
    """lambda_solutions by its definition: the common rational roots of
    every coefficient x + lam y of the pencil delta c = X + lam Y, read in
    sorted order."""
    x, y = ce_parts(c.coeff, 2, c.module_lambda)
    trivial_pass = exact_class(ce_parts(c.coeff, 2, None)[0]).is_zero()
    xs, ys = dict(x.terms()), dict(y.terms())
    gcd = gcd_all(LamPoly((xs.get(m, 0), ys.get(m, 0))) for m in sorted(xs.keys() | ys.keys()))
    if gcd.is_zero():
        return LambdaVerdict("all", (), trivial_pass)
    roots = tuple(rational_roots(gcd))
    return LambdaVerdict("finite" if roots else "none", roots, trivial_pass)


def test_lambda_verdicts_read_from_the_ordered_monomials_equal_a_gcd_over_all():
    """delta c alternates in (f, g, k), so the roots read from its ordered
    monomials are those of every coefficient: on all 78 det(p,q) with
    q <= 12, and on seeded cochains with rational coefficients and T/R
    backgrounds."""
    kinds = set()
    for q in range(1, 13):
        for p in range(q):
            c = det_cochain(p, q, 24)
            got = lambda_solutions(c, 24)
            assert got == _lambda_verdict_from_every_coefficient(c), (p, q)
            kinds.add(got.kind)
    for c in _seeded_background_cochains(40):
        got = lambda_solutions(c)
        assert got == _lambda_verdict_from_every_coefficient(c), c.coeff
        kinds.add(got.kind)
    assert kinds == {"all", "finite", "none"}


def _seeded_background_cochains(count, seed=27):
    """Seeded symbolic cochains: sums of up to three det(p,q), q <= 6, each
    times a T/R background monomial and a rational scale."""
    rng = random.Random(seed)
    backgrounds = (DiffExpr.one(), jet("T", 0), jet("R", 0), jet("T", 1) * jet("R", 0),
                   jet("T", 0) ** 2)
    out = []
    while len(out) < count:
        coeff = DiffExpr.zero()
        for _ in range(rng.randrange(1, 4)):
            q = rng.randrange(1, 7)
            p = rng.randrange(q)
            scale = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            coeff = coeff + (rng.choice(backgrounds) * det_expr(p, q)).scale(scale)
        if not coeff.is_zero():
            out.append(Cochain2(coeff, 0, LAM))
    return out


def _as_reference(verdict):
    return verdict.kind, verdict.values, verdict.trivial_action_pass


def test_lambda_solutions_match_the_gcd_oracle():
    """The pencil's one division and one check against the gcd path of
    helpers.lambda_solutions_reference (the definitional differential at
    lam = 0 and 1, one x + y lam per ordered monomial, the rational roots of
    their gcd): on all 78 det(p,q) with q <= 12 at cap 24, on every row of
    tests/data/lambda_verdicts.json, and on seeded cochains with rational
    coefficients and T/R backgrounds, where every kind occurs."""
    kinds = set()
    for q in range(1, 13):
        for p in range(q):
            got = lambda_solutions(det_cochain(p, q, 24), 24)
            assert _as_reference(got) == lambda_solutions_reference(det_cochain(p, q, 24)), (p, q)
            kinds.add(got.kind)
    for (p, q), row in _VERDICTS.items():
        kind, values, trivial = lambda_solutions_reference(det_cochain(p, q, 24))
        assert _verdict_row(p, q, LambdaVerdict(kind, values, trivial)) == row
    for c in _seeded_background_cochains(20, seed=2701):
        got = lambda_solutions(c)
        assert _as_reference(got) == lambda_solutions_reference(c), c.coeff
        kinds.add(got.kind)
    assert kinds == {"all", "finite", "none"}


def test_a_symbolic_module_must_be_lam_itself():
    """A non-constant LamPoly other than lam is no module parameter: the
    cochain, its at_lambda and the solver refuse it, where each once read
    it differently (lambda_solutions as lam, at_lambda as its value at 0,
    solve_corrections at lam = weight).  A constant still reads as its
    value, and lam as the symbolic module."""
    coeff = det_cochain(0, 2).coeff
    for bad in (LamPoly((1, 1)), LamPoly((0, 2)), LamPoly((0, 0, 1))):
        with pytest.raises(ValueError, match="must be lam itself"):
            Cochain2(coeff, 0, bad)
        with pytest.raises(ValueError, match="must be lam itself"):
            det_cochain(0, 2).at_lambda(bad)
        with pytest.raises(ValueError, match="must be lam itself"):
            solve_corrections(coeff, 1, module_lambda=bad)
    assert Cochain2(coeff, 0, LamPoly.const(1)).module_lambda == 1
    assert Cochain2(coeff, 0, LamPoly((0, 1))).is_symbolic()
    assert lambda_solutions(Cochain2(coeff, 0, LamPoly((0, 1)))).values == (1,)


@pytest.mark.parametrize("bound", [
    lambda cap: check_order_cap(det_expr(1, 2), cap),
    lambda cap: parse_expr("det(1,2)", cap),
    lambda cap: det_cochain(1, 2, cap),
    lambda cap: lambda_solutions(det_cochain(1, 2), cap),
], ids=["check_order_cap", "parse_expr", "det_cochain", "lambda_solutions"])
@pytest.mark.parametrize("cap", [True, False, 12.0, 1.5])
def test_the_order_cap_is_an_int(bound, cap):
    with pytest.raises(ValueError, match="the order cap must be an int"):
        bound(cap)


def test_an_infeasible_derivation_is_a_named_error(monkeypatch):
    """A connection form read from a correction solve that has no solution
    is a ValueError naming the generator, not an AttributeError."""
    from jetcocycles import charts
    from jetcocycles.charts import CorrectionResult
    from jetcocycles.cochains import _derived

    infeasible = CorrectionResult(det_expr(1, 2), 1, 1, (), None)
    _derived.cache_clear()
    monkeypatch.setattr(charts, "derive", lambda name: infeasible)
    try:
        with pytest.raises(ValueError, match="c1 has no connection form: the correction "
                                             "solve of its flat form is infeasible"):
            catalogue("c1", "connection")
    finally:
        _derived.cache_clear()
