"""Exact two-phase primal simplex over the rationals, with Bland's rule.

Only the forms this package needs are supported: equality constraints with
``x >= 0``.  Phase 1 (``lp_feasible``) finds a feasible basis and drives the
artificials out of it.  The only phase-2 question is whether some feasible
point has ``x_j > 0`` (``Tableau.positive_point``): Bland phase 2 on the
objective ``x_j`` from the current basis, stopping at the first positive
objective or unbounded ray, or proving ``x_j = 0`` at a zero optimum.  Before
any such search, ``Tableau.cone_point`` reads one more feasible point off the
phase-1 basis with no pivot: a small step along the sum of every feasible
nonbasic direction, positive on every column those directions and the
positive basics reach, so at a nondegenerate basis it is positive on every
nonzero column.  Support saturation takes that point and then chains one
``lp_feasible`` tableau through the columns it misses; ``--check-oracle``
builds a fresh one for each column it checks.
Anti-cycling uses Bland's rule throughout (smallest eligible entering index,
ties in the ratio test broken by smallest basic index), which guarantees
termination under exact arithmetic.

The tableau is fraction-free (see ``linalg``): its integer rows share one
positive denominator, so every sign test reads the true sign.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantViolation
from .linalg import ONE, ZERO, RationalMatrix, RationalVector, _denominator, _integer_row


class Tableau:
    """Dense fraction-free simplex tableau for ``A x = b, x >= 0`` with artificial basis.

    Artificial columns are appended after the structural ones; they start as
    the basis and are never allowed to re-enter once they leave.  Every row,
    the reduced-cost row included, is a list of integers over the one
    positive denominator ``det`` (see ``linalg``); the last entry of a row is
    its right-hand side, and the cost row's last entry is the negated
    objective value.  Each basic column is ``det`` times a unit vector.
    """

    def __init__(self, rows: list[list[Fraction | int]], rhs: list[Fraction], nstruct: int):
        self.nstruct = nstruct
        self.nrows = len(rows)
        self.width = self.nstruct + self.nrows
        signed = [[*row, b] if b >= 0 else [-a for a in (*row, b)] for row, b in zip(rows, rhs)]
        # one scale for all rows, so phase 1 still minimizes the plain sum of the artificials
        den = _denominator(a for row in signed for a in row)
        self.rows = [
            [*nums[:-1], *(int(k == i) for k in range(self.nrows)), nums[-1]]
            for i, nums in enumerate(_integer_row(row, den) for row in signed)
        ]
        self.det = 1
        self.basis = list(range(self.nstruct, self.width))
        self.costs: list[int] = [0] * (self.width + 1)

    def _pivot(self, row: int, col: int):
        pivot = self.rows[row]
        p, det = pivot[col], self.det
        for r, nums in enumerate(self.rows):
            if r != row:
                f = nums[col]
                self.rows[r] = [(p * a - f * b) // det for a, b in zip(nums, pivot)]
        f = self.costs[col]
        self.costs = [(p * a - f * b) // det for a, b in zip(self.costs, pivot)]
        self.det = p
        self.basis[row] = col

    def _entering(self) -> int | None:
        """Bland's entering column: the smallest structural one with positive reduced cost."""
        for j in range(self.nstruct):
            if self.costs[j] > 0:
                return j
        return None

    def _leaving(self, entering: int) -> int | None:
        """Row of the ratio test for ``entering``, or None when no row limits it."""
        # ratio rhs_i / coeff_i: the shared det cancels, so compare
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
        # maximize -(sum of artificials): with det = 1 the cost row is the sum
        # of all rows with the artificial entries cleared, its last entry the total rhs
        self.costs = [sum(column) for column in zip(self.costs, *self.rows)]
        self.costs[self.nstruct : self.width] = [0] * self.nrows
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
                    if self.rows[i][j] < 0:
                        # keep det positive: the row's rhs is zero, so no point moves
                        self.rows[i] = [-a for a in self.rows[i]]
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
        # reduced costs of the objective x_j at the current basis, times det
        self.costs = [0] * (self.width + 1)
        self.costs[j] = self.det
        if j in self.basis:
            self.costs = [a - b for a, b in zip(self.costs, self.rows[self.basis.index(j)])]
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

    def cone_point(self) -> RationalVector:
        """A feasible point one small step along every feasible direction of the current basis.

        Nonbasic column j has the direction ``e_j - B^-1 a_j``, which stays
        feasible exactly when every row whose rhs is zero has a coefficient
        ``<= 0`` in column j; such a column is *unblocked*.  Zero columns are
        skipped: their direction moves no basic.  With ``s_r`` the sum of the
        unblocked entries of row r, the step is ``eps = min(1, rhs_r / (2 s_r))``
        over the rows with ``rhs_r > 0`` and ``s_r > 0``, so every positive
        basic stays at least half its value.  The point is ``eps`` on each
        unblocked column and ``(rhs_r - eps s_r) / det`` on the basic of row
        r: positive on every positive basic, every unblocked column and every
        degenerate basic with ``s_r < 0``.  The directions lie in the kernel
        of the constraint matrix, so the point satisfies it exactly.  No
        pivot is taken; the tableau is left as it was.
        """
        rows, nstruct = self.rows, self.nstruct
        basic = set(self.basis)
        degenerate = [row for row in rows if row[-1] == 0]
        unblocked = [
            j
            for j in range(nstruct)
            if j not in basic and any(row[j] for row in rows) and all(row[j] <= 0 for row in degenerate)
        ]
        sums = [sum(row[j] for j in unblocked) for row in rows]
        # eps = p / q; rhs_r / (2 s_r) < p / q, cross-multiplied over positive integers
        p = q = 1
        for row, s in zip(rows, sums):
            if row[-1] > 0 and s > 0 and row[-1] * q < 2 * s * p:
                p, q = row[-1], 2 * s
        point = [ZERO] * nstruct
        eps = Fraction(p, q)
        for j in unblocked:
            point[j] = eps
        den = q * self.det
        for row, s, b in zip(rows, sums, self.basis):
            if b < nstruct:
                point[b] = Fraction(q * row[-1] - p * s, den)
        return RationalVector(tuple(point))

    def _ray_point(self, entering: int) -> RationalVector:
        """The basic solution moved one unit along the ray of a nonbasic column.

        No coefficient of ``entering`` is positive, so raising it by one only
        raises the basic variables: the point stays feasible.
        """
        point = list(self.solution())
        point[entering] += ONE
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] -= Fraction(self.rows[i][entering], self.det)
        return RationalVector(tuple(point))

    def solution(self) -> RationalVector:
        """The basic solution at the current basis."""
        point = [ZERO] * self.nstruct
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] = Fraction(self.rows[i][-1], self.det)
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
