from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wr1.linalg import (
    RationalMatrix,
    RationalVector,
    kernel_basis,
    rank,
    rref,
    to_fraction,
)

from .oracles import reference_rref, solve

F = Fraction


def test_to_fraction_accepts_exact_forms():
    assert to_fraction(3) == F(3)
    assert to_fraction("-3/4") == F(-3, 4)
    assert to_fraction(F(5, 10)) == F(1, 2)


def test_to_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        to_fraction(True)
    with pytest.raises(ValueError):
        to_fraction("1/0")


def test_to_fraction_takes_only_integer_or_ratio_strings():
    # Fraction() itself reads all but "1/2/3" and "+", and takes seconds over "1e10000000"
    for text in ("1e9", "1.5", " 1", "1_0", "1/2/3", "+", "1e10000000"):
        with pytest.raises(ValueError, match="not a rational literal"):
            to_fraction(text)
    assert to_fraction("+7") == 7
    assert to_fraction("-10/4") == F(-5, 2)


def test_vector_basics():
    v = RationalVector.of([1, 0, "-2/3"])
    assert v.dim == 3
    assert v.support() == (0, 2)
    assert not v.is_zero()
    assert RationalVector(tuple(a + b for a, b in zip(v, v.scaled(-1)))).is_zero()
    assert v.with_entry(1, 7)[1] == 7
    assert sum(a * b for a, b in zip(v, RationalVector.of([3, 1, 3]))) == 3 - 2


def test_matrix_constructors_agree():
    by_rows = RationalMatrix.from_rows([[1, 2], [3, 4]])
    by_cols = RationalMatrix.from_columns([[1, 3], [2, 4]])
    assert by_rows == by_cols
    assert by_rows.column(1) == RationalVector.of([2, 4])
    # rows read as columns give the transpose
    assert RationalMatrix.from_columns(by_rows.entries) == RationalMatrix.from_rows([[1, 3], [2, 4]])


def test_matvec():
    m = RationalMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    assert m.matvec(RationalVector.of([1, 1, 1])).is_zero()
    assert m.matvec(RationalVector.of([1, 2, 3])) == RationalVector.of([-2, -1])


def test_rank_identity():
    assert rank(RationalMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_net_vector_matrix():
    # two independent columns, third is minus their sum
    m = RationalMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    assert rank(m) == 2


def test_rank_zero_matrix():
    assert rank(RationalMatrix.from_rows([[0] * 4] * 3)) == 0


def test_kernel_of_cycle_kirchhoff():
    q = RationalMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    basis = kernel_basis(q)
    assert len(basis) == 1
    (vec,) = basis
    scale = vec[0]
    assert scale != 0
    assert vec.scaled(1 / scale) == RationalVector.of([1, 1, 1])


def test_kernel_of_two_terminal_kirchhoff():
    # rates all 1 on the six-vertex two-terminal-component graph
    a = RationalMatrix.from_rows(
        [
            [-1, 1, 0, 0, 0, 0],
            [1, -1, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, 1, -2, 0, 0],
            [0, 0, 0, 1, -1, 1],
            [0, 0, 0, 0, 1, -1],
        ]
    )
    basis = kernel_basis(a)
    assert len(basis) == 2
    assert sorted(v.support() for v in basis) == [(0, 1), (4, 5)]


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel_basis(RationalMatrix.from_rows([[2, 1], [1, 1]])) == []


def test_solve_unique_and_inconsistent():
    m = RationalMatrix.from_rows([[2, 0], [0, 4]])
    assert solve(m, RationalVector.of([1, 1])) == RationalVector.of(["1/2", "1/4"])
    inconsistent = RationalMatrix.from_rows([[1, 1], [1, 1]])
    assert solve(inconsistent, RationalVector.of([0, 1])) is None


def test_solve_underdetermined_picks_free_zero():
    m = RationalMatrix.from_rows([[1, 1]])
    x = solve(m, RationalVector.of([5]))
    assert x is not None
    assert m.matvec(x) == RationalVector.of([5])
    assert x[1] == 0


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return RationalMatrix.from_rows(entries)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rank_nullity_and_kernel_exactness(matrix):
    basis = kernel_basis(matrix)
    assert len(basis) + rank(matrix) == matrix.cols
    for vec in basis:
        assert matrix.matvec(vec).is_zero()
    if basis:
        stacked = RationalMatrix.from_columns([list(v) for v in basis], rows=matrix.cols)
        assert rank(stacked) == len(basis)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rref_is_idempotent_and_rank_transpose_invariant(matrix):
    reduced, pivots = rref(matrix)
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots
    assert rank(matrix) == rank(RationalMatrix.from_columns(matrix.entries, rows=matrix.cols))


@st.composite
def degenerate_matrices(draw):
    """Mixed denominators with zero rows and rows that combine earlier ones."""
    matrix = draw(small_matrices())
    entries = [list(row) for row in matrix.entries]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("zero", "combination")))
        if kind == "zero":
            row = [F(0)] * matrix.cols
        else:
            a, b = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, len(entries) - 1))
            s, t = draw(small_fractions), draw(small_fractions)
            row = [s * x + t * y for x, y in zip(entries[a], entries[b])]
        entries.insert(draw(st.integers(0, len(entries))), row)
    return RationalMatrix.from_rows(entries)


@settings(max_examples=200, deadline=None)
@given(degenerate_matrices())
def test_integer_rref_matches_fraction_reference(matrix):
    reduced, pivots = rref(matrix)
    expected, expected_pivots = reference_rref(matrix)
    assert pivots == expected_pivots
    assert reduced == expected
    assert all(type(e) is Fraction for row in reduced.entries for e in row)
