"""Exact two-phase primal simplex over the rationals, with Bland's rule.

Only the forms this package needs are supported: equality constraints with
``x >= 0``.  ``lp_maximize_component`` adds a single upper bound
``x_j <= 1`` to keep its objective bounded; nothing else uses that cap.
Support saturation instead solves phase 1 once (``lp_feasible`` with
``tableau=True``) and passes that tableau to ``lp_maximize_component`` as
``start`` column after column: each call asks whether some feasible point has
``x_j > 0`` (``Tableau.positive_point``), running phase 2 from the basis the
previous column left and stopping at the first positive objective or
unbounded ray, without a cap row.
Anti-cycling uses Bland's rule throughout (smallest eligible entering index,
ties in the ratio test broken by smallest basic index), which guarantees
termination under exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

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

    def _entering(self, enterable: int) -> int | None:
        """Bland's entering column: the smallest below ``enterable`` with positive reduced cost."""
        for j in range(enterable):
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

    def _bland_loop(self, enterable: int) -> None:
        """Pivot until no column below ``enterable`` has positive reduced cost."""
        while (entering := self._entering(enterable)) is not None:
            leaving = self._leaving(entering)
            if leaving is None:
                # cannot happen for the bounded programs built below
                raise RuntimeError("unbounded objective in simplex")
            self._pivot(leaving, entering)

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
        self._bland_loop(self.nstruct)
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

    def _set_objective(self, objective: list[int]) -> None:
        """Reduced-cost row of an integer structural objective at the current basis."""
        costs = list(objective) + [0] * (self.nrows + 1)
        den = 1
        for i, basic in enumerate(self.basis):
            if costs[basic] != 0:
                costs, den = _eliminate(costs, den, self.rows[i], self.dens[i], basic)
        self.costs, self.cost_den = costs, den

    def run_phase2(self, objective: list[int]) -> None:
        """Maximize an integer structural objective from the current feasible basis."""
        self._set_objective(objective)
        self._bland_loop(self.nstruct)

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
        objective = [0] * self.nstruct
        objective[j] = 1
        self._set_objective(objective)
        # the cost row's last entry is minus the objective value
        while self.costs[-1] == 0:
            entering = self._entering(self.nstruct)
            if entering is None:
                return None
            leaving = self._leaving(entering)
            if leaving is None:
                return self._ray_point(entering)
            self._pivot(leaving, entering)
        return RationalVector(tuple(self.solution()))

    def _ray_point(self, entering: int) -> RationalVector:
        """The basic solution moved one unit along the ray of a nonbasic column.

        No coefficient of ``entering`` is positive, so raising it by one only
        raises the basic variables: the point stays feasible.
        """
        point = self.solution()
        point[entering] += ONE
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] -= Fraction(self.rows[i][entering], self.dens[i])
        return RationalVector(tuple(point))

    def solution(self) -> list[Fraction]:
        point = [ZERO] * self.nstruct
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] = Fraction(self.rows[i][-1], self.dens[i])
        return point


def lp_feasible(
    matrix: RationalMatrix, rhs: RationalVector, *, tableau: bool = False
) -> RationalVector | Tableau | None:
    """Some exact ``x >= 0`` with ``matrix @ x = rhs``, or None if infeasible.

    Infeasibility is an ordinary outcome, not an error.  The returned point
    is a basic feasible solution (a vertex of the constraint polyhedron).
    With ``tableau=True`` the ``Tableau`` at that basis is returned instead
    of its point, artificials driven out, to be passed as ``start`` to
    ``lp_maximize_component`` for one column after another.
    """
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    table = Tableau([list(row) for row in matrix.entries], list(rhs.entries), matrix.cols)
    if not table.run_phase1():
        return None
    if not tableau:
        return RationalVector(tuple(table.solution()))
    table.drive_out_artificials()
    return table


def lp_maximize_component(
    matrix: RationalMatrix, rhs: RationalVector, j: int, *, start: Tableau | None = None
) -> RationalVector | None:
    """Maximize ``x_j`` over ``matrix @ x = rhs, x >= 0, x_j <= 1``.

    Returns an optimal vertex, or None when the bounded program is
    infeasible.  The cap on ``x_j`` keeps the objective bounded.  Whenever a
    solution is returned, its ``x_j`` is positive exactly when some feasible
    point of the uncapped system has ``x_j > 0``: a zero optimum means every
    capped point has ``x_j = 0``, and a convex combination of such a point
    with any ``x_j > 0`` point would land under the cap with ``x_j > 0``.

    ``start``, a tableau of the same system from ``lp_feasible(matrix, rhs,
    tableau=True)``, answers only that sign question and is cheaper: no cap
    row and no phase 1, and the search stops at the first feasible point with
    ``x_j > 0``, which need not be a maximizer (``Tableau.positive_point``).
    None then means ``x_j = 0`` on the whole feasible set, and ``start`` is
    left at the basis reached, ready for the next column.
    """
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= j < matrix.cols:
        raise IndexError(f"column {j} out of range")
    if start is not None:
        if (start.nrows, start.nstruct) != (matrix.rows, matrix.cols):
            raise ValueError("start tableau does not match the system")
        return start.positive_point(j)
    rows = [list(row) + [ZERO] for row in matrix.entries]
    bound_row = [ZERO] * (matrix.cols + 1)
    bound_row[j] = ONE
    bound_row[matrix.cols] = ONE
    rows.append(bound_row)
    rhs_ext = list(rhs.entries) + [ONE]
    tableau = Tableau(rows, rhs_ext, matrix.cols + 1)
    if not tableau.run_phase1():
        return None
    tableau.drive_out_artificials()
    objective = [0] * (matrix.cols + 1)
    objective[j] = 1
    tableau.run_phase2(objective)
    return RationalVector(tuple(tableau.solution()[: matrix.cols]))
