"""solve_affine against a naive dense elimination on random small systems."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcocycles.linalg import solve_affine

from helpers import is_canonical

SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
NONZERO = SMALL.filter(bool)
WIDE = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
WIDE_NONZERO = WIDE.filter(bool)


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, nvars - 1), NONZERO)
    row = st.tuples(st.lists(entry, max_size=nvars).map(dict), SMALL)
    return draw(st.lists(row, max_size=8)), nvars


@st.composite
def sparse_systems(draw):
    """Up to 24 variables and 40 rows of at most 4 entries, denominators up
    to 12: distinct rows, half the time consistent with a drawn point, and
    then copies of them at other scales, inserted anywhere."""
    nvars = draw(st.integers(1, 24))
    entry = st.tuples(st.integers(0, nvars - 1), WIDE_NONZERO)
    coefs = draw(st.lists(st.lists(entry, max_size=4).map(dict), max_size=24))
    if draw(st.booleans()):
        x = draw(st.lists(WIDE, min_size=nvars, max_size=nvars))
        rows = [(row, sum(v * x[i] for i, v in row.items())) for row in coefs]
    else:
        rows = [(row, draw(WIDE)) for row in coefs]
    if rows:
        for row, rhs in draw(st.lists(st.sampled_from(rows), max_size=40 - len(rows))):
            scale = draw(WIDE_NONZERO)
            rows.insert(draw(st.integers(0, len(rows))),
                        ({i: scale * v for i, v in row.items()}, scale * rhs))
    return rows, nvars


def naive_solve(rows, nvars):
    """Dense Gauss-Jordan in arrival order, with no deduplication: returns
    (particular, nullspace) of the reduced echelon form, or None."""
    mat = [[Fraction(row.get(j, 0)) for j in range(nvars)] + [Fraction(rhs)]
           for row, rhs in rows]
    leads = []
    for col in range(nvars):
        r = len(leads)
        hit = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        leads.append(col)
    if any(mat[i][nvars] for i in range(len(leads), len(mat))):
        return None
    particular = {col: mat[k][nvars] for k, col in enumerate(leads) if mat[k][nvars]}
    nullspace = []
    for fv in range(nvars):
        if fv not in leads:
            vec = {col: -mat[k][fv] for k, col in enumerate(leads) if mat[k][fv]}
            vec[fv] = Fraction(1)
            nullspace.append(vec)
    return particular, nullspace


def assert_matches(rows, reference, nvars):
    got = solve_affine(rows, nvars)
    expected = naive_solve(reference, nvars)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert (got.particular, got.nullspace) == expected
    for d in (got.particular, *got.nullspace):
        assert list(d) == sorted(d)
        assert all(is_canonical(v) for v in d.values())


@settings(max_examples=200, deadline=None)
@given(systems())
def test_matches_naive_elimination(system):
    rows, nvars = system
    assert_matches(rows, rows, nvars)


@settings(max_examples=50, deadline=None)
@given(sparse_systems())
def test_matches_naive_elimination_on_larger_sparse_systems(system):
    rows, nvars = system
    assert_matches(rows, rows, nvars)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_row_order_does_not_matter(system, data):
    rows, nvars = system
    assert_matches(data.draw(st.permutations(rows)), rows, nvars)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_rows_repeated_at_nonzero_scales_do_not_matter(system, data):
    rows, nvars = system
    padded = list(rows)
    for row, rhs in rows:
        for scale in data.draw(st.lists(NONZERO, max_size=2)):
            at = data.draw(st.integers(0, len(padded)))
            padded.insert(at, ({i: scale * v for i, v in row.items()}, scale * rhs))
    assert_matches(padded, rows, nvars)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_zero_rows_do_not_matter(system, data):
    rows, nvars = system
    padded = list(rows)
    for _ in range(data.draw(st.integers(1, 3))):
        # a zero row may also spell its zeros out
        zeros = data.draw(st.lists(st.integers(0, nvars - 1), max_size=2))
        at = data.draw(st.integers(0, len(padded)))
        padded.insert(at, ({i: Fraction(0) for i in zeros}, Fraction(0)))
    assert_matches(padded, rows, nvars)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_scaled_copy_with_other_rhs_is_inconsistent(system, data):
    rows, nvars = system
    row = data.draw(st.lists(st.tuples(st.integers(0, nvars - 1), NONZERO),
                             min_size=1, max_size=nvars).map(dict))
    rhs = data.draw(SMALL)
    scale, shift = data.draw(NONZERO), data.draw(NONZERO)
    clash = ({i: scale * v for i, v in row.items()}, scale * rhs + shift)
    padded = list(rows)
    padded.insert(data.draw(st.integers(0, len(padded))), (row, rhs))
    padded.insert(data.draw(st.integers(0, len(padded))), clash)
    assert solve_affine(padded, nvars) is None


@settings(max_examples=200, deadline=None)
@given(systems(), NONZERO, st.data())
def test_zero_equals_nonzero_is_inconsistent(system, c, data):
    rows, nvars = system
    padded = list(rows)
    padded.insert(data.draw(st.integers(0, len(padded))), ({0: Fraction(0)}, c))
    assert solve_affine(padded, nvars) is None


def test_known_system():
    # x0 + x1 = 2, x1 - x2 = 1 (twice, at two scales): x2 and x3 are free
    rows = [({0: Fraction(1), 1: Fraction(1)}, Fraction(2)),
            ({1: Fraction(2), 2: Fraction(-2)}, Fraction(2)),
            ({1: Fraction(-1), 2: Fraction(1)}, Fraction(-1))]
    sol = solve_affine(rows, 4)
    assert sol.particular == {0: 1, 1: 1}
    assert sol.nullspace == [{0: -1, 1: 1, 2: 1}, {3: 1}]


@pytest.mark.parametrize("row, nvars", [
    ({5: 1}, 2),
    ({-1: 1, 0: 1}, 1),
    ({2: 1}, 2),
    ({1.0: 1}, 2),
    ({True: 1}, 2),
    ({0: 0, 3: 0}, 3),
])
def test_a_row_index_outside_the_variables_is_refused(row, nvars):
    with pytest.raises(ValueError, match="range"):
        solve_affine([(row, 1)], nvars)


@pytest.mark.parametrize("row, rhs", [
    ({0: 0.5}, 1),
    ({0: 1, 1: 0.0}, 1),
    ({0: 1}, 0.5),
    ({}, 0.5),
])
def test_a_float_entry_or_right_hand_side_is_refused(row, rhs):
    with pytest.raises(TypeError):
        solve_affine([(row, rhs)], 2)
