"""Exact rational vectors and matrices with elimination-based linear algebra.

Every scalar is a ``fractions.Fraction``; floats are rejected at the boundary
so that ranks, kernels, and support sets are decided exactly.  Matrices are
dense and row-major, which is plenty for the problem sizes this package
targets (tens of rows and columns).

Elimination itself (here and in the simplex tableau) runs on integer rows: a
row is a list of ``int`` numerators over one positive ``int`` denominator,
kept primitive (the denominator and all numerators share no factor), so each
entry equals the Fraction it replaces and only ``int`` arithmetic runs in the
inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``-3/4`` to a Fraction.

    Floats are deliberately not accepted: a float sneaking in would silently
    turn exact support decisions into approximate ones.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
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

    @classmethod
    def zero(cls, dim: int) -> "RationalVector":
        return cls((ZERO,) * dim)

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

    def with_entry(self, index: int, value: RationalLike) -> "RationalVector":
        items = list(self.entries)
        items[index] = to_fraction(value)
        return RationalVector(tuple(items))

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero entries, ascending."""
        return tuple(i for i, e in enumerate(self.entries) if e != 0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def is_nonnegative(self) -> bool:
        return all(e >= 0 for e in self.entries)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    def row(self, i: int) -> RationalVector:
        return RationalVector(self.entries[i])

    def column(self, j: int) -> RationalVector:
        return RationalVector(tuple(row[j] for row in self.entries))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        )

    def matvec(self, vector: RationalVector) -> RationalVector:
        if vector.dim != self.cols:
            raise ValueError("dimension mismatch")
        return RationalVector(
            tuple(sum((a * x for a, x in zip(row, vector.entries)), ZERO) for row in self.entries)
        )

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "RationalMatrix":
        data = tuple(tuple(self.entries[i][j] for j in col_indices) for i in row_indices)
        return RationalMatrix(len(row_indices), len(col_indices), data)


def _integer_row(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Primitive integer row over the least common denominator of ``values``."""
    values = list(values)
    # reduce, not lcm(*...): star-arguments build a tuple per call
    den = reduce(lcm, (v.denominator for v in values), 1)
    return [v.numerator * (den // v.denominator) for v in values], den


def _normalized(nums: list[int], den: int) -> tuple[list[int], int]:
    """The row ``nums / den`` with a positive denominator and no common factor."""
    if den < 0:
        nums = [-a for a in nums]
        den = -den
    if den != 1:
        g = reduce(gcd, nums, den)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    return nums, den


def _eliminate(nums: list[int], den: int, pivot: list[int], pivot_den: int, col: int) -> tuple[list[int], int]:
    """Row ``nums / den`` minus its ``col`` entry times a pivot row whose ``col`` entry is 1."""
    factor = nums[col]
    return _normalized([pivot_den * a - factor * b for a, b in zip(nums, pivot)], den * pivot_den)


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, exactly."""
    work = [_integer_row(row) for row in matrix.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(matrix.cols):
        if pivot_row >= matrix.rows:
            break
        chosen = None
        for r in range(pivot_row, matrix.rows):
            if work[r][0][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        nums = work[pivot_row][0]
        pivot, pivot_den = work[pivot_row] = _normalized(nums, nums[col])
        for r in range(matrix.rows):
            if r != pivot_row and work[r][0][col] != 0:
                work[r] = _eliminate(*work[r], pivot, pivot_den, col)
        pivots.append(col)
        pivot_row += 1
    reduced = RationalMatrix(
        matrix.rows,
        matrix.cols,
        tuple(tuple(Fraction(a, den) if a else ZERO for a in nums) for nums, den in work),
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
