from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wr1.linalg import RationalMatrix, RationalVector
from wr1.realize import displacement_matrix
from wr1.simplex import Tableau, lp_feasible, lp_maximize_component

from .oracles import (
    as_vector,
    oracle_feasible,
    oracle_positive_component,
    random_decomposition,
    reference_feasible_tableau,
    reference_lp_feasible,
    reference_positive_point,
    solve,
)

F = Fraction


def check_feasible_point(matrix, rhs, point):
    assert all(e >= 0 for e in point)
    assert matrix.matvec(point) == rhs


def check_positive_point(matrix, rhs, j, point):
    check_feasible_point(matrix, rhs, point)
    assert point[j] > 0


def check_positive_answer(matrix, rhs, j, point):
    """None exactly when no feasible point has x_j > 0, else such a point."""
    if oracle_positive_component(matrix, rhs, j):
        assert point is not None
        check_positive_point(matrix, rhs, j, point)
    else:
        assert point is None


def basic_point(tableau):
    """The tableau's basic solution, its numerators over ``det``, as Fractions."""
    return as_vector(tableau.solution(), tableau.det)


def positive(tableau, j):
    """``tableau.positive_point(j)`` as Fractions over the det the search leaves; None stays None."""
    numerators = tableau.positive_point(j)
    return None if numerators is None else as_vector(numerators, tableau.det)


def search(matrix, rhs, j, tableau):
    """``lp_maximize_component`` from ``tableau``, as Fractions over the det it leaves; None stays None."""
    numerators = lp_maximize_component(matrix, rhs, j, start=tableau)
    return None if numerators is None else as_vector(numerators, tableau.det)


def fresh_search(matrix, rhs, j):
    """The search on a fresh lp_feasible tableau, as --check-oracle runs it; None when infeasible."""
    tableau = lp_feasible(matrix, rhs)
    return None if tableau is None else search(matrix, rhs, j, tableau)


def test_feasible_simple_cone():
    # columns are the displacements out of the first of three vertices
    matrix = RationalMatrix.from_rows([[0, 1, 1], [0, 0, 1]])
    rhs = RationalVector.of([1, 0])
    point = basic_point(lp_feasible(matrix, rhs))
    check_feasible_point(matrix, rhs, point)
    assert point[2] == 0  # third coordinate is pinned by the second row


def test_infeasible_negative_direction():
    matrix = RationalMatrix.from_rows([[0, 1], [0, 0]])
    rhs = RationalVector.of([-1, 0])
    assert lp_feasible(matrix, rhs) is None


def test_zero_rhs_gives_zero_vertex():
    matrix = RationalMatrix.from_rows([[1, -2, 3], [0, 1, 1]])
    point = basic_point(lp_feasible(matrix, RationalVector.of([0, 0])))
    assert point == RationalVector.of([0, 0, 0])


def test_feasible_with_zero_rows_and_columns():
    matrix = RationalMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert basic_point(lp_feasible(matrix, RationalVector.of([0, 0]))) == RationalVector.of([0, 0, 0])
    assert lp_feasible(matrix, RationalVector.of([1, 0])) is None


def test_maximize_reaches_positive_mass():
    # one species, three collinear vertices: mass can sit on the third column;
    # phase 1 ends at x1 = 1 and x2 enters at 1/2
    matrix = RationalMatrix.from_rows([[0, 1, 2]])
    rhs = RationalVector.of([1])
    point = search(matrix, rhs, 2, lp_feasible(matrix, rhs))
    check_positive_answer(matrix, rhs, 2, point)
    assert point == RationalVector.of([0, 0, F(1, 2)])


def test_maximize_respects_unit_cap():
    # the phase-1 vertex already has x1 = 1 > 0 and is returned as it is;
    # the search stops at the first positive point and maximizes nothing
    matrix = RationalMatrix.from_rows([[0, 1, 2]])
    rhs = RationalVector.of([1])
    point = search(matrix, rhs, 1, lp_feasible(matrix, rhs))
    check_positive_answer(matrix, rhs, 1, point)
    assert point == RationalVector.of([0, 1, 0])


def test_maximize_detects_forced_zero():
    matrix = RationalMatrix.from_rows([[0, 1, 1], [0, 0, 1]])
    rhs = RationalVector.of([1, 0])
    assert oracle_positive_component(matrix, rhs, 2) is False
    assert lp_maximize_component(matrix, rhs, 2, start=lp_feasible(matrix, rhs)) is None


def test_maximize_infeasible_returns_none():
    matrix = RationalMatrix.from_rows([[0, 1], [0, 0]])
    # no start tableau exists, so there is nothing to search
    assert lp_feasible(matrix, RationalVector.of([-1, 0])) is None


def test_maximize_validates_index():
    matrix, rhs = RationalMatrix.from_rows([[0, 0]]), RationalVector.of([0])
    with pytest.raises(IndexError):
        lp_maximize_component(matrix, rhs, 2, start=lp_feasible(matrix, rhs))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        lp_feasible(RationalMatrix.from_rows([[0, 0], [0, 0]]), RationalVector.of([0, 0, 0]))


small_fractions = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
small_nonneg = st.builds(F, st.integers(0, 3), st.integers(1, 3))


@st.composite
def lp_instances(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    matrix = RationalMatrix.from_rows(entries)
    if draw(st.booleans()):
        # force feasibility by deriving the rhs from a nonnegative point
        point = draw(st.lists(small_nonneg, min_size=cols, max_size=cols))
        rhs = matrix.matvec(RationalVector.of(point))
    else:
        rhs = RationalVector.of(draw(st.lists(small_fractions, min_size=rows, max_size=rows)))
    return matrix, rhs


@settings(max_examples=120, deadline=None)
@given(lp_instances())
def test_feasibility_matches_enumeration_oracle(instance):
    matrix, rhs = instance
    tableau = lp_feasible(matrix, rhs)
    reference = oracle_feasible(matrix, rhs)
    if reference is None:
        assert tableau is None
    else:
        assert tableau is not None
        check_feasible_point(matrix, rhs, basic_point(tableau))


@settings(max_examples=120, deadline=None)
@given(lp_instances(), st.integers(0, 4))
def test_maximize_matches_enumeration_oracle(instance, j):
    matrix, rhs = instance
    j %= matrix.cols
    check_positive_answer(matrix, rhs, j, fresh_search(matrix, rhs, j))


# ---------------------------------------------------------------------------
# same pivots as the Fraction-row tableau: identical vertices and witnesses,
# every j, fresh and chained through one tableau

mixed_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
# mostly zeros, for degenerate bases and zero right-hand sides
sparse_fractions = st.one_of(st.just(F(0)), st.just(F(0)), mixed_fractions)
sparse_nonneg = st.one_of(st.just(F(0)), st.just(F(0)), small_nonneg)


@st.composite
def degenerate_lp_instances(draw):
    """Mixed denominators, possibly negative rhs, zero rows and redundant rows."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 6))
    entries = draw(
        st.lists(st.lists(sparse_fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    if draw(st.booleans()):
        entries[draw(st.integers(0, rows - 1))] = [F(0)] * cols
    if draw(st.booleans()):
        # a rational combination of two rows, appended as a redundant constraint
        a, b = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        s, t = draw(mixed_fractions), draw(mixed_fractions)
        entries.append([s * x + t * y for x, y in zip(entries[a], entries[b])])
    matrix = RationalMatrix.from_rows(entries)
    if draw(st.booleans()):
        point = draw(st.lists(sparse_nonneg, min_size=cols, max_size=cols))
        rhs = matrix.matvec(RationalVector.of(point))
    else:
        rhs = RationalVector.of(draw(st.lists(sparse_fractions, min_size=matrix.rows, max_size=matrix.rows)))
    return matrix, rhs


def assert_same_as_reference(matrix, rhs):
    chained, reference_chained = lp_feasible(matrix, rhs), reference_feasible_tableau(matrix, rhs)
    if reference_chained is None:
        assert chained is None
        assert reference_lp_feasible(matrix, rhs) is None
    else:
        # the drive-out pivots are degenerate: the phase-1 vertex is unchanged
        assert basic_point(chained) == reference_lp_feasible(matrix, rhs)
    for j in range(matrix.cols):
        assert fresh_search(matrix, rhs, j) == reference_positive_point(matrix, rhs, j)
        if chained is not None:
            assert search(matrix, rhs, j, chained) == reference_chained.positive_point(j)


@settings(max_examples=300, deadline=None)
@given(degenerate_lp_instances())
def test_integer_tableau_returns_reference_vertices(instance):
    assert_same_as_reference(*instance)


def test_integer_tableau_matches_reference_on_seeded_sparse_sweep():
    # degenerate bases with several eligible leaving rows, where only Bland's
    # tie-break decides the witness; hypothesis rarely builds these
    rng = Random(1)
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        entries = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        matrix = RationalMatrix.from_rows(entries)
        point = [F(rng.randint(0, 2)) if rng.random() < 0.4 else F(0) for _ in range(cols)]
        assert_same_as_reference(matrix, matrix.matvec(RationalVector(tuple(point))))


def test_integer_tableau_matches_reference_on_displacement_matrices():
    rng = Random(2024)
    for _ in range(30):
        dec = random_decomposition(rng, max_n=3, max_m=6)
        for i in range(dec.m):
            assert_same_as_reference(displacement_matrix(dec, i), dec.net_vector(i))


# ---------------------------------------------------------------------------
# warm-started positive search: the three exits of Tableau.positive_point,
# behind lp_maximize_component(..., start=lp_feasible(...))


def test_positive_point_returns_current_basis_when_already_positive():
    matrix = RationalMatrix.from_rows([[1, 1]])
    rhs = RationalVector.of([1])
    tableau = lp_feasible(matrix, rhs)
    assert positive(tableau, 0) == RationalVector.of([1, 0])


def test_positive_point_stops_at_first_positive_basis():
    # x0 + x2 - x3 = 1, x1 + x3 = 1: phase 1 ends at (1, 1, 0, 0); x2 enters
    # at 1 and the search stops there, short of the optimum x2 = 2
    matrix = RationalMatrix.from_rows([[1, 0, 1, -1], [0, 1, 0, 1]])
    rhs = RationalVector.of([1, 1])
    tableau = lp_feasible(matrix, rhs)
    assert basic_point(tableau) == RationalVector.of([1, 1, 0, 0])
    point = positive(tableau, 2)
    assert point == RationalVector.of([0, 1, 1, 0])
    check_positive_point(matrix, rhs, 2, point)
    assert search(matrix, rhs, 2, lp_feasible(matrix, rhs)) == point


def test_positive_point_follows_an_unbounded_ray():
    # x0 = x1: x0 is basic at zero and only x1's ray, which no row limits, raises it
    matrix = RationalMatrix.from_rows([[1, -1]])
    rhs = RationalVector.of([0])
    tableau = lp_feasible(matrix, rhs)
    assert basic_point(tableau) == RationalVector.of([0, 0])
    point = positive(tableau, 0)
    assert point == RationalVector.of([1, 1])
    check_positive_point(matrix, rhs, 0, point)


def test_positive_point_zero_optimum_is_none():
    matrix = RationalMatrix.from_rows([[0, 1, 1], [0, 0, 1]])
    rhs = RationalVector.of([1, 0])
    tableau = lp_feasible(matrix, rhs)
    assert tableau.positive_point(2) is None
    # the tableau stays at a feasible basis for the next column
    check_positive_point(matrix, rhs, 1, positive(tableau, 1))


def test_warm_start_infeasible_and_index_checks():
    assert lp_feasible(RationalMatrix.from_rows([[0, 1], [0, 0]]), RationalVector.of([-1, 0])) is None
    with pytest.raises(ValueError):
        lp_feasible(RationalMatrix.from_rows([[0, 0], [0, 0]]), RationalVector.of([0, 0, 0]))
    matrix, rhs = RationalMatrix.from_rows([[0, 0]]), RationalVector.of([0])
    tableau = lp_feasible(matrix, rhs)
    with pytest.raises(IndexError):
        tableau.positive_point(2)
    with pytest.raises(IndexError):
        lp_maximize_component(matrix, rhs, 2, start=tableau)
    with pytest.raises(ValueError, match="start tableau"):
        lp_maximize_component(RationalMatrix.from_rows([[0, 0, 0]]), rhs, 0, start=tableau)


def assert_positive_points_match_oracle(matrix, rhs, order):
    """Fresh and chained searches both answer exactly as the enumeration oracle."""
    chained = lp_feasible(matrix, rhs)
    if oracle_feasible(matrix, rhs) is None:
        assert chained is None
        return
    for j in order:
        check_positive_answer(matrix, rhs, j, fresh_search(matrix, rhs, j))
        check_positive_answer(matrix, rhs, j, search(matrix, rhs, j, chained))


@settings(max_examples=150, deadline=None)
@given(degenerate_lp_instances(), st.booleans())
def test_positive_point_matches_positive_component_oracle(instance, reverse):
    matrix, rhs = instance
    order = range(matrix.cols - 1, -1, -1) if reverse else range(matrix.cols)
    assert_positive_points_match_oracle(matrix, rhs, order)


def test_positive_point_matches_oracle_on_displacement_matrices():
    rng = Random(2025)
    for _ in range(30):
        dec = random_decomposition(rng, max_n=3, max_m=6)
        for i in range(dec.m):
            assert_positive_points_match_oracle(displacement_matrix(dec, i), dec.net_vector(i), range(dec.m))


def test_search_result_entry_j_is_positive_exactly_when_x_j_can_be():
    # the benchmark's tracer (perfbench/tracing._lp_positive) counts a useful
    # search by reading result[j] > 0: a numerator over a positive det, so
    # its sign must be the sign of x_j, and None must mean x_j = 0 throughout
    rng = Random(2026)
    outcomes = set()
    for _ in range(30):
        dec = random_decomposition(rng, max_n=3, max_m=6)
        for i in range(dec.m):
            matrix, rhs = displacement_matrix(dec, i), dec.net_vector(i)
            tableau = lp_feasible(matrix, rhs)
            if tableau is None:
                continue
            for j in range(dec.m):
                result = lp_maximize_component(matrix, rhs, j, start=tableau)
                reachable = oracle_positive_component(matrix, rhs, j)
                assert (result is not None and result[j] > 0) == reachable
                if result is not None:
                    assert tableau.det > 0
                    check_positive_point(matrix, rhs, j, as_vector(result, tableau.det))
                outcomes.add(reachable)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the fraction-free tableau: one positive det, every basic column det * e_row


def check_tableau_invariant(tableau):
    assert tableau.det > 0
    for i, basic in enumerate(tableau.basis):
        assert [row[basic] for row in tableau.rows] == [tableau.det if k == i else 0 for k in range(tableau.nrows)]
        assert tableau.costs[basic] == 0


def test_fraction_free_tableau_keeps_one_positive_denominator(monkeypatch):
    # zero-rhs rows with negative entries leave artificials basic after phase 1,
    # and the drive-out must pivot on a negative entry
    negative_pivots = 0
    drive_out = Tableau.drive_out_artificials

    def counting_drive_out(tableau):
        nonlocal negative_pivots
        for i, basic in enumerate(tableau.basis):
            first = next((a for a in tableau.rows[i][: tableau.nstruct] if a != 0), 0)
            negative_pivots += basic >= tableau.nstruct and first < 0
        drive_out(tableau)

    monkeypatch.setattr(Tableau, "drive_out_artificials", counting_drive_out)
    rng = Random(7)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        entries = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        # a redundant row: a rational combination of two others
        a, b = rng.randrange(rows), rng.randrange(rows)
        s, t = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
        entries.append([s * x + t * y for x, y in zip(entries[a], entries[b])])
        matrix = RationalMatrix.from_rows(entries)
        point = [F(rng.randint(0, 2)) if rng.random() < 0.3 else F(0) for _ in range(cols)]
        rhs = matrix.matvec(RationalVector(tuple(point)))
        tableau = lp_feasible(matrix, rhs)
        check_tableau_invariant(tableau)
        for j in rng.sample(range(cols), cols):
            found = positive(tableau, j)
            check_tableau_invariant(tableau)
            if found is not None:
                check_positive_point(matrix, rhs, j, found)
    assert negative_pivots > 0


# ---------------------------------------------------------------------------
# the cone step: one feasible point off the phase-1 basis, with no pivot


def predicted_cone_support(matrix, rhs, basis):
    """Columns the cone point must be positive on, and how many directions are blocked.

    Restated with exact solves against the basic columns, not with the
    tableau's rows: nonbasic nonzero column j moves the basics by the
    solution d of ``B d = -a_j``; it is unblocked when d is >= 0 on every
    basic at zero.  The point must be positive on the positive basics, the
    unblocked columns, and the zero basics that the unblocked directions
    raise in sum.
    """
    basic = [b for b in basis if b < matrix.cols]
    columns = matrix.submatrix(range(matrix.rows), basic)
    values = dict(zip(basic, solve(columns, rhs)))
    at_zero = [b for b in basic if values[b] == 0]
    moves, blocked = [], 0
    for j in range(matrix.cols):
        if j in values or matrix.column(j).is_zero():
            continue
        move = dict(zip(basic, solve(columns, matrix.column(j).scaled(-1))))
        if all(move[b] >= 0 for b in at_zero):
            moves.append((j, move))
        else:
            blocked += 1
    raised = {b for b in at_zero if sum(move[b] for _, move in moves) > 0}
    return {b for b in basic if values[b] > 0} | {j for j, _ in moves} | raised, blocked


def check_cone_point(matrix, rhs):
    """The cone point of a fresh feasible tableau, checked; (blocked directions, raised zero basics)."""
    tableau = lp_feasible(matrix, rhs)
    if tableau is None:
        return 0, 0
    before = (list(tableau.basis), [list(row) for row in tableau.rows], tableau.det)
    numerators, den = tableau.cone_point()
    assert (tableau.basis, tableau.rows, tableau.det) == before  # no pivot
    assert den > 0
    point = as_vector(numerators, den)
    check_feasible_point(matrix, rhs, point)
    predicted, blocked = predicted_cone_support(matrix, rhs, tableau.basis)
    assert set(point.support()) == predicted
    basic = basic_point(tableau)
    raised = sum(1 for b in tableau.basis if b < matrix.cols and basic[b] == 0 < point[b])
    return blocked, raised


def test_cone_point_on_seeded_sweep_with_redundant_rows():
    # redundant rows leave artificials basic at zero; degenerate bases block
    # some directions and let others raise a zero basic
    rng = Random(5)
    blocked = raised = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        entries = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0) for _ in range(cols)]
            for _ in range(rows)
        ]
        a, b = rng.randrange(rows), rng.randrange(rows)
        entries.append([F(2) * x - y for x, y in zip(entries[a], entries[b])])
        matrix = RationalMatrix.from_rows(entries)
        point = [F(rng.randint(0, 2)) if rng.random() < 0.3 else F(0) for _ in range(cols)]
        counts = check_cone_point(matrix, matrix.matvec(RationalVector(tuple(point))))
        blocked, raised = blocked + counts[0], raised + counts[1]
    assert blocked > 0 and raised > 0


def test_cone_point_raises_a_degenerate_basic():
    # x0 + x1 + x2 = 2, x1 - x2 = 0: phase 1 ends with x1 basic at zero, and
    # the direction of x2 raises it, so one step reaches the whole support
    matrix = RationalMatrix.from_rows([[1, 1, 1], [0, 1, -1]])
    rhs = RationalVector.of([2, 0])
    tableau = lp_feasible(matrix, rhs)
    assert tableau.basis == [0, 1] and (tableau.solution(), tableau.det) == ((2, 0, 0), 1)
    # eps = 1/2 = p/q with p = 2, q = 4: numerators over q * det, unreduced
    assert tableau.cone_point() == ((4, 2, 2), 4)
    assert as_vector(*tableau.cone_point()) == RationalVector.of([1, "1/2", "1/2"])
