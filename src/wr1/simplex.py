"""Exact two-phase primal simplex over the rationals, with Bland's rule.

Only the forms this package needs are supported: equality constraints with
``x >= 0``.  Phase 1 (``lp_feasible``) finds a feasible basis and drives the
artificials out of it.  The only phase-2 question is whether some feasible
point has ``x_j > 0`` (``Tableau.positive_point``): Bland phase 2 on the
objective ``x_j`` from the current basis, stopping at the first positive
objective or unbounded ray, or proving ``x_j = 0`` at a zero optimum.  Support
saturation chains one ``lp_feasible`` tableau through all columns of a vertex;
``--check-oracle`` builds a fresh one for each column it checks.
Anti-cycling uses Bland's rule throughout (smallest eligible entering index,
ties in the ratio test broken by smallest basic index), which guarantees
termination under exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import InternalInvariantViolation
from .linalg import ONE, ZERO, RationalMatrix, RationalVector, _eliminate, _integer_row, _normalized


class Tableau:
    """Dense simplex tableau for ``A x = b, x >= 0`` with artificial basis.

    Artificial columns are appended after the structural ones; they start as
    the basis and are never allowed to re-enter once they leave.  Each row,
    the reduced-cost row included, is a primitive integer row over a positive
    denominator (see ``linalg``) whose last entry is the right-hand side; the
    cost row's last entry is the negated objective value.
    """

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], nstruct: int):
        self.nstruct = nstruct
        self.nrows = len(rows)
        self.width = self.nstruct + self.nrows
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for i, (row, b) in enumerate(zip(rows, rhs)):
            nums, den = _integer_row([*row, b])
            if b < 0:
                nums = [-a for a in nums]
            rhs_num = nums.pop()
            nums.extend(den if k == i else 0 for k in range(self.nrows))
            nums.append(rhs_num)
            self.rows.append(nums)
            self.dens.append(den)
        self.basis = list(range(self.nstruct, self.width))
        self.costs: list[int] = [0] * (self.width + 1)
        self.cost_den = 1

    def _pivot(self, row: int, col: int):
        nums = self.rows[row]
        pivot, pivot_den = _normalized(nums, nums[col])
        self.rows[row] = pivot
        self.dens[row] = pivot_den
        for r in range(self.nrows):
            if r != row and self.rows[r][col] != 0:
                self.rows[r], self.dens[r] = _eliminate(self.rows[r], self.dens[r], pivot, pivot_den, col)
        if self.costs[col] != 0:
            self.costs, self.cost_den = _eliminate(self.costs, self.cost_den, pivot, pivot_den, col)
        self.basis[row] = col

    def _entering(self) -> int | None:
        """Bland's entering column: the smallest structural one with positive reduced cost."""
        for j in range(self.nstruct):
            if self.costs[j] > 0:
                return j
        return None

    def _leaving(self, entering: int) -> int | None:
        """Row of the ratio test for ``entering``, or None when no row limits it."""
        # ratio rhs_i / coeff_i: a row's denominator cancels, so compare
        # numerators cross-multiplied (both coefficients are positive)
        leaving = None
        best_num = best_coeff = 0
        for i in range(self.nrows):
            row = self.rows[i]
            coeff = row[entering]
            if coeff > 0:
                num = row[-1]
                if leaving is None:
                    better = True
                else:
                    lhs, rhs = num * best_coeff, best_num * coeff
                    better = lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leaving])
                if better:
                    best_num, best_coeff = num, coeff
                    leaving = i
        return leaving

    def run_phase1(self) -> bool:
        """Minimize the artificial mass; True iff the constraints are feasible."""
        # maximize -(sum of artificials): the cost row is the sum of all rows
        # with the artificial entries cleared, its last entry the total rhs
        den = reduce(lcm, self.dens, 1)
        costs = [0] * (self.width + 1)
        for nums, row_den in zip(self.rows, self.dens):
            scale = den // row_den
            costs = [c + scale * a for c, a in zip(costs, nums)]
        costs[self.nstruct : self.width] = [0] * self.nrows
        self.costs, self.cost_den = _normalized(costs, den)
        while (entering := self._entering()) is not None:
            leaving = self._leaving(entering)
            if leaving is None:
                # the objective is bounded: the artificial mass cannot fall below zero
                raise InternalInvariantViolation("unbounded objective in simplex phase 1")
            self._pivot(leaving, entering)
        return self.costs[-1] == 0

    def drive_out_artificials(self) -> None:
        """Degenerate-pivot artificial basics onto structural columns.

        Rows that are zero over every structural column are redundant
        constraints; their artificial stays basic at value zero and can never
        be touched by later pivots, so they are left in place.
        """
        for i in range(self.nrows):
            if self.basis[i] < self.nstruct:
                continue
            for j in range(self.nstruct):
                if self.rows[i][j] != 0:
                    self._pivot(i, j)
                    break

    def positive_point(self, j: int) -> RationalVector | None:
        """A feasible point with ``x_j > 0``, or None when ``x_j = 0`` on the whole feasible set.

        Runs Bland phase 2 on the objective ``x_j`` from the current feasible
        basis and stops at the first basis whose objective is positive, which
        is the returned point.  If the ratio test finds no leaving row, the
        entering column's ray raises ``x_j`` without bound, and the point one
        unit along that ray is returned.  Reaching the optimum at zero proves
        that ``x_j = 0`` on the whole feasible set.  The tableau is left at
        the basis reached, so the next call starts from a feasible basis.
        """
        if not 0 <= j < self.nstruct:
            raise IndexError(f"column {j} out of range")
        # reduced costs of the objective x_j at the current basis
        costs, den = [0] * (self.width + 1), 1
        costs[j] = 1
        for i, basic in enumerate(self.basis):
            if costs[basic] != 0:
                costs, den = _eliminate(costs, den, self.rows[i], self.dens[i], basic)
        self.costs, self.cost_den = costs, den
        # the cost row's last entry is minus the objective value
        while self.costs[-1] == 0:
            entering = self._entering()
            if entering is None:
                return None
            leaving = self._leaving(entering)
            if leaving is None:
                return self._ray_point(entering)
            self._pivot(leaving, entering)
        return self.solution()

    def _ray_point(self, entering: int) -> RationalVector:
        """The basic solution moved one unit along the ray of a nonbasic column.

        No coefficient of ``entering`` is positive, so raising it by one only
        raises the basic variables: the point stays feasible.
        """
        point = list(self.solution())
        point[entering] += ONE
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] -= Fraction(self.rows[i][entering], self.dens[i])
        return RationalVector(tuple(point))

    def solution(self) -> RationalVector:
        """The basic solution at the current basis."""
        point = [ZERO] * self.nstruct
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] = Fraction(self.rows[i][-1], self.dens[i])
        return RationalVector(tuple(point))


def lp_feasible(matrix: RationalMatrix, rhs: RationalVector) -> Tableau | None:
    """A feasible tableau of ``matrix @ x = rhs, x >= 0``, or None if infeasible.

    Infeasibility is an ordinary outcome, not an error.  The tableau is at
    the basis phase 1 ended in, with the artificials driven out by degenerate
    pivots, so ``.solution()`` is a basic feasible solution (a vertex of the
    constraint polyhedron) and the tableau can be passed as ``start`` to
    ``lp_maximize_component`` for one column after another.
    """
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    tableau = Tableau([list(row) for row in matrix.entries], list(rhs.entries), matrix.cols)
    if not tableau.run_phase1():
        return None
    tableau.drive_out_artificials()
    return tableau


def lp_maximize_component(
    matrix: RationalMatrix, rhs: RationalVector, j: int, *, start: Tableau
) -> RationalVector | None:
    """A feasible point of ``matrix @ x = rhs, x >= 0`` with ``x_j > 0``, or None.

    None means ``x_j = 0`` on the whole feasible set.  Despite its name this
    maximizes nothing: the point is the first one ``Tableau.positive_point``
    reaches with ``x_j > 0``.  The name, with ``j`` as the third positional
    argument, is pinned by the benchmark: ``perfbench/tracing.py`` wraps this
    function where ``wr1.realize`` looks it up and reads ``j`` from that
    position.

    ``start``, a tableau of the same system from ``lp_feasible``, is required.
    It is searched from its current basis and left at the basis reached, ready
    for the next column; ``--check-oracle`` passes a fresh one per column.
    """
    if (start.nrows, start.nstruct) != (matrix.rows, matrix.cols):
        raise ValueError("start tableau does not match the system")
    return start.positive_point(j)
