"""Exact rational vectors and matrices with elimination-based linear algebra.

Every scalar is a ``fractions.Fraction``, or an ``int`` where a matrix is
built from integers directly (the displacement and Kirchhoff matrices of
``realize``); floats are rejected at the boundary so that ranks, kernels,
and support sets are decided exactly.  Matrices are dense and row-major,
which is plenty for the problem sizes this package targets (tens of rows
and columns).

Elimination itself (here and in the simplex tableau) is fraction-free
Gauss-Jordan on integer rows: all rows of a matrix stand over one shared
denominator ``det``, the last pivot taken (up to sign, the determinant of
the pivot block of the integer starting rows).  A pivot ``p`` replaces each
other row ``a`` by ``(p * a - f * b) // det``, where ``b`` is the pivot row
and ``f`` the row's entry in the pivot column, and then sets ``det = p``.
The division is exact (Bareiss 1968; Edmonds 1967), so only ``int``
arithmetic runs in the inner loops, no common factor is ever divided out,
and an entry becomes a Fraction only when ``rref`` returns it; the simplex
returns its points as integer numerators over a denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


# Fraction() also parses "1e1000000", a value far past the digit limit literals meet
_LITERAL = re.compile(r"[+-]?\d+(/\d+)?")


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``-3/4`` or ``5`` to a Fraction.

    Floats are deliberately not accepted: a float sneaking in would silently
    turn exact support decisions into approximate ones.  Neither are decimal
    or exponent strings such as ``"1.5"`` or ``"1e9"``.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            if isinstance(value, str) and not _LITERAL.fullmatch(value):
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class RationalVector:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> "RationalVector":
        return cls(tuple(to_fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    def scaled(self, factor: RationalLike) -> "RationalVector":
        f = to_fraction(factor)
        return RationalVector(tuple(f * e for e in self.entries))

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero entries, ascending."""
        return tuple(i for i, e in enumerate(self.entries) if e != 0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals, row-major; entries are Fractions or ints."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction | int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None) -> "RationalMatrix":
        data = tuple(tuple(to_fraction(v) for v in row) for row in rows)
        if data:
            width = len(data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        else:
            width = cols
        return cls(len(data), width, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RationalLike]], rows: int | None = None) -> "RationalMatrix":
        cols = [tuple(to_fraction(v) for v in col) for col in columns]
        if cols:
            height = len(cols[0])
        elif rows is None:
            raise ValueError("empty matrix needs an explicit row count")
        else:
            height = rows
        data = tuple(tuple(col[i] for col in cols) for i in range(height))
        return cls(height, len(cols), data)

    def column(self, j: int) -> RationalVector:
        return RationalVector(tuple(row[j] for row in self.entries))

    def matvec(self, vector: RationalVector) -> RationalVector:
        if vector.dim != self.cols:
            raise ValueError("dimension mismatch")
        return RationalVector(
            tuple(sum((a * x for a, x in zip(row, vector.entries)), ZERO) for row in self.entries)
        )

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "RationalMatrix":
        data = tuple(tuple(self.entries[i][j] for j in col_indices) for i in row_indices)
        return RationalMatrix(len(row_indices), len(col_indices), data)


def monomials_at(point: Sequence[Fraction], exponents: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Every monomial ``point ** y`` for ``y`` in ``exponents``, as integers over one denominator.

    Returns ``(numerators, denominator)`` with ``numerators[k] / denominator``
    equal to ``prod_s point[s] ** exponents[k][s]``.  Species s with value
    ``p/q`` contributes ``p**(y_s - lo) * q**(hi - y_s)`` to each numerator
    and ``p**(-lo) * q**hi`` to the denominator, where ``lo = min(0, min_y
    y_s)`` and ``hi = max(0, max_y y_s)``: every power has a nonnegative
    exponent, so negative exponents stay exact integers.  Nothing is
    reduced; a value of 0 needs ``lo == 0``.
    """
    numerators = [1] * len(exponents)
    denominator = 1
    for s, value in enumerate(point):
        column = [y[s] for y in exponents]
        lo = min([0, *column])
        hi = max([0, *column])
        p, q = value.numerator, value.denominator
        denominator *= p**-lo * q**hi
        for k, e in enumerate(column):
            numerators[k] *= p ** (e - lo) * q ** (hi - e)
    return numerators, denominator


def _denominator(values: Iterable[Fraction | int]) -> int:
    """The least common denominator of ``values``; an ``int`` adds nothing and is skipped."""
    # reduce, not lcm(*...): star-arguments build a tuple per call
    return reduce(lcm, (v.denominator for v in values if type(v) is not int), 1)


def _integer_row(values: Iterable[Fraction | int], den: int) -> list[int]:
    """``values`` times ``den``, a common denominator of theirs, as integers."""
    return [v * den if type(v) is int else v.numerator * (den // v.denominator) for v in values]


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, exactly."""
    # scaling a row does not change the reduced form: each row starts as integers
    work = [_integer_row(row, _denominator(row)) for row in matrix.entries]
    det = 1
    pivots: list[int] = []
    pivot_row = 0
    for col in range(matrix.cols):
        if pivot_row >= matrix.rows:
            break
        chosen = None
        for r in range(pivot_row, matrix.rows):
            if work[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        pivot = work[pivot_row]
        p = pivot[col]
        for r in range(matrix.rows):
            if r != pivot_row:
                f = work[r][col]
                work[r] = [(p * a - f * b) // det for a, b in zip(work[r], pivot)]
        det = p
        pivots.append(col)
        pivot_row += 1
    # det may be negative: Fraction normalizes the sign
    reduced = RationalMatrix(
        matrix.rows,
        matrix.cols,
        tuple(tuple(Fraction(a, det) if a else ZERO for a in nums) for nums in work),
    )
    return reduced, tuple(pivots)


def rank(matrix: RationalMatrix) -> int:
    """Exact rank via rational Gaussian elimination."""
    return len(rref(matrix)[1])


def kernel_basis(matrix: RationalMatrix) -> list[RationalVector]:
    """A basis of the right null space; empty for full column rank.

    One basis vector per free column of the reduced echelon form: the free
    entry is 1 and pivot entries are back-substituted, so the result always
    satisfies rank-nullity against :func:`rank`.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * matrix.cols
        vec[free] = ONE
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -reduced.entries[row_idx][free]
        basis.append(RationalVector(tuple(vec)))
    return basis
