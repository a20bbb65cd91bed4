"""Independent oracles and random generators used by the tests.

Nothing here goes through the simplex or the realization engine: linear
programs are answered by exact enumeration of basic solutions, and
realizability questions by exhaustive search over out-edge patterns with a
hand-rolled strong-connectivity check.  That keeps both sides of every
comparison on separate code paths.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from random import Random

from wr1.errors import MissingRatesError
from wr1.graphs import EGraph
from wr1.ingest import PolynomialSystem, SourceDecomposition, Term, decompose
from wr1.linalg import RationalMatrix, RationalVector, rank, rref, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# linear-program oracles by basic-solution enumeration


def solve(matrix: RationalMatrix, rhs: RationalVector) -> RationalVector | None:
    """One exact solution of ``matrix @ x = rhs`` with free variables at zero.

    Returns None when the system is inconsistent.  The solution is unique
    exactly when the matrix has full column rank.
    """
    if rhs.dim != matrix.rows:
        raise ValueError("dimension mismatch")
    augmented = RationalMatrix(
        matrix.rows,
        matrix.cols + 1,
        tuple(row + (b,) for row, b in zip(matrix.entries, rhs.entries)),
    )
    reduced, pivots = rref(augmented)
    if matrix.cols in pivots:
        return None
    solution = [ZERO] * matrix.cols
    for row_idx, pivot_col in enumerate(pivots):
        solution[pivot_col] = reduced.entries[row_idx][matrix.cols]
    return RationalVector(tuple(solution))


def basic_feasible_points(matrix: RationalMatrix, rhs: RationalVector) -> list[RationalVector]:
    """All vertices of {x : matrix x = rhs, x >= 0}, by exact enumeration.

    The feasible set contains no line (x >= 0), so it is nonempty exactly
    when it has a vertex, and every vertex is a basic solution over some
    independent column subset of size rank(matrix).
    """
    r = rank(matrix)
    all_rows = range(matrix.rows)
    points = set()
    for subset in combinations(range(matrix.cols), r):
        sub = matrix.submatrix(all_rows, subset)
        if rank(sub) != len(subset):
            continue
        partial = solve(sub, rhs)
        if partial is None or any(v < 0 for v in partial):
            continue
        full = [ZERO] * matrix.cols
        for k, col in enumerate(subset):
            full[col] = partial[k]
        points.add(tuple(full))
    return [RationalVector(p) for p in sorted(points)]


def oracle_feasible(matrix: RationalMatrix, rhs: RationalVector) -> RationalVector | None:
    points = basic_feasible_points(matrix, rhs)
    return points[0] if points else None


def _with_bound_row(matrix: RationalMatrix, rhs: RationalVector, j: int):
    rows = [list(row) + [ZERO] for row in matrix.entries]
    bound = [ZERO] * (matrix.cols + 1)
    bound[j] = ONE
    bound[matrix.cols] = ONE
    rows.append(bound)
    extended = RationalMatrix.from_rows(rows)
    return extended, RationalVector(tuple(rhs.entries) + (ONE,))


def oracle_max_component(matrix: RationalMatrix, rhs: RationalVector, j: int) -> Fraction | None:
    """Max of x_j over {matrix x = rhs, x >= 0, x_j <= 1}; None when empty."""
    extended, extended_rhs = _with_bound_row(matrix, rhs, j)
    points = basic_feasible_points(extended, extended_rhs)
    if not points:
        return None
    return max(p[j] for p in points)


def oracle_positive_component(matrix: RationalMatrix, rhs: RationalVector, j: int) -> bool | None:
    """Is there x >= 0 with matrix x = rhs and x_j > 0?  None when infeasible.

    When the unit-capped polytope is empty but the uncapped one is not,
    every feasible point has x_j > 1, so the answer is yes; when the capped
    maximum is zero, a feasible point with x_j > 0 would yield a capped
    point with 0 < x_j <= 1 by a convex combination, so the answer is no.
    """
    if oracle_feasible(matrix, rhs) is None:
        return None
    best = oracle_max_component(matrix, rhs, j)
    if best is None:
        return True
    return best > 0


# ---------------------------------------------------------------------------
# reference elimination on Fraction rows: the simplex tableau and rref that
# the integer-row engine must match pivot for pivot, returning the very same
# vertices and reduced matrices, not only the same optima.


class FractionTableau:
    """Dense simplex tableau for ``A x = b, x >= 0`` with artificial basis.

    Artificial columns are appended after the structural ones; they start as
    the basis and are never allowed to re-enter once they leave.
    """

    def __init__(self, rows: list[list[Fraction | int]], rhs: list[Fraction], nstruct: int):
        self.nstruct = nstruct
        self.nrows = len(rows)
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        for row, b in zip(rows, rhs):
            if b < 0:
                row = [-a for a in row]
                b = -b
            # displacement matrices hold ints, and int / int would be a float
            self.rows.append([Fraction(a) for a in row])
            self.rhs.append(b)
        for i, row in enumerate(self.rows):
            row.extend(ONE if k == i else ZERO for k in range(self.nrows))
        self.width = self.nstruct + self.nrows
        self.basis = list(range(self.nstruct, self.width))
        # reduced-cost row and current objective value, maintained by pivots
        self.costs: list[Fraction] = [ZERO] * self.width
        self.value = ZERO

    def _pivot(self, row: int, col: int):
        pivot = self.rows[row][col]
        if pivot != 1:
            self.rows[row] = [a / pivot for a in self.rows[row]]
            self.rhs[row] /= pivot
        for r in range(self.nrows):
            if r != row and self.rows[r][col] != 0:
                factor = self.rows[r][col]
                self.rows[r] = [a - factor * b for a, b in zip(self.rows[r], self.rows[row])]
                self.rhs[r] -= factor * self.rhs[row]
        factor = self.costs[col]
        if factor != 0:
            self.costs = [a - factor * b for a, b in zip(self.costs, self.rows[row])]
            self.value += factor * self.rhs[row]
        self.basis[row] = col

    def _entering(self, enterable: int) -> int | None:
        for j in range(enterable):
            if self.costs[j] > 0:
                return j
        return None

    def _leaving(self, entering: int) -> int | None:
        leaving = None
        best = None
        for i in range(self.nrows):
            coeff = self.rows[i][entering]
            if coeff > 0:
                ratio = self.rhs[i] / coeff
                if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leaving]):
                    best = ratio
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
        # maximize -(sum of artificials); reduced costs fold in the basis
        self.costs = [sum((self.rows[i][j] for i in range(self.nrows)), ZERO) for j in range(self.width)]
        for art in range(self.nstruct, self.width):
            self.costs[art] = ZERO
        self.value = -sum(self.rhs, ZERO)
        self._bland_loop(self.nstruct)
        return self.value == 0

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

    def _set_objective(self, objective: list[Fraction]) -> None:
        """Reduced costs and value of a structural objective at the current basis."""
        costs = list(objective) + [ZERO] * self.nrows
        value = ZERO
        for i, basic in enumerate(self.basis):
            weight = costs[basic]
            if weight != 0:
                costs = [a - weight * b for a, b in zip(costs, self.rows[i])]
                value += weight * self.rhs[i]
        self.costs = costs
        self.value = value

    def run_phase2(self, objective: list[Fraction]) -> None:
        """Maximize a structural objective from the current feasible basis."""
        self._set_objective(objective)
        self._bland_loop(self.nstruct)

    def positive_point(self, j: int) -> RationalVector | None:
        """Bland phase 2 on ``x_j`` from the current basis, stopped early.

        The first basic point with a positive objective; or, when no row
        limits the entering column, the basic point moved one unit along
        that column's ray; or None at a zero optimum.
        """
        objective = [ZERO] * self.nstruct
        objective[j] = ONE
        self._set_objective(objective)
        while self.value == 0:
            entering = self._entering(self.nstruct)
            if entering is None:
                return None
            leaving = self._leaving(entering)
            if leaving is None:
                point = self.solution()
                point[entering] += ONE
                for i, basic in enumerate(self.basis):
                    if basic < self.nstruct:
                        point[basic] -= self.rows[i][entering]
                return RationalVector(tuple(point))
            self._pivot(leaving, entering)
        return RationalVector(tuple(self.solution()))

    def solution(self) -> list[Fraction]:
        point = [ZERO] * self.nstruct
        for i, basic in enumerate(self.basis):
            if basic < self.nstruct:
                point[basic] = self.rhs[i]
        return point


def reference_lp_feasible(matrix: RationalMatrix, rhs: RationalVector) -> RationalVector | None:
    """Some exact ``x >= 0`` with ``matrix @ x = rhs``, or None if infeasible.

    Infeasibility is an ordinary outcome, not an error.  The returned point
    is a basic feasible solution (a vertex of the constraint polyhedron).
    """
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    tableau = FractionTableau([list(row) for row in matrix.entries], list(rhs.entries), matrix.cols)
    if not tableau.run_phase1():
        return None
    return RationalVector(tuple(tableau.solution()))


def reference_feasible_tableau(matrix: RationalMatrix, rhs: RationalVector) -> FractionTableau | None:
    """Phase 1 with the artificials driven out, or None if infeasible."""
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    tableau = FractionTableau([list(row) for row in matrix.entries], list(rhs.entries), matrix.cols)
    if not tableau.run_phase1():
        return None
    tableau.drive_out_artificials()
    return tableau


def reference_positive_point(matrix: RationalMatrix, rhs: RationalVector, j: int) -> RationalVector | None:
    """A feasible point with ``x_j > 0`` from a fresh feasible tableau, or None."""
    tableau = reference_feasible_tableau(matrix, rhs)
    return None if tableau is None else tableau.positive_point(j)


def reference_lp_maximize_component(matrix: RationalMatrix, rhs: RationalVector, j: int) -> RationalVector | None:
    """Maximize ``x_j`` over ``matrix @ x = rhs, x >= 0, x_j <= 1``.

    Returns an optimal vertex, or None when the bounded program is
    infeasible.  The cap on ``x_j`` keeps the objective bounded.  Whenever a
    solution is returned, its ``x_j`` is positive exactly when some feasible
    point of the uncapped system has ``x_j > 0``: a zero optimum means every
    capped point has ``x_j = 0``, and a convex combination of such a point
    with any ``x_j > 0`` point would land under the cap with ``x_j > 0``.
    """
    if matrix.rows != rhs.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= j < matrix.cols:
        raise IndexError(f"column {j} out of range")
    rows = [list(row) + [ZERO] for row in matrix.entries]
    bound_row = [ZERO] * (matrix.cols + 1)
    bound_row[j] = ONE
    bound_row[matrix.cols] = ONE
    rows.append(bound_row)
    rhs_ext = list(rhs.entries) + [ONE]
    tableau = FractionTableau(rows, rhs_ext, matrix.cols + 1)
    if not tableau.run_phase1():
        return None
    tableau.drive_out_artificials()
    objective = [ZERO] * (matrix.cols + 1)
    objective[j] = ONE
    tableau.run_phase2(objective)
    return RationalVector(tuple(tableau.solution()[: matrix.cols]))


def reference_saturate_support(dec: SourceDecomposition, i: int):
    """Support saturation as the engine did it before warm starts: one capped LP per column.

    ``(support, witnesses)`` of vertex i, or None when it is infeasible.  The
    loop is the engine's old one, run on the Fraction-row reference LPs
    above (which return the engine's own LP vertices).
    """
    base_vertex = dec.vertices[i]
    matrix = RationalMatrix.from_columns(
        [[Fraction(vk - vi) for vk, vi in zip(vertex, base_vertex)] for vertex in dec.vertices], rows=dec.n
    )
    target = dec.net_vector(i)
    base = reference_lp_feasible(matrix, target)
    if base is None:
        return None
    base = base.with_entry(i, ONE)
    support = set(base.support())
    witnesses = [base]
    for j in range(dec.m):
        if j in support:
            continue
        candidate = reference_lp_maximize_component(matrix, target, j)
        if candidate is None:
            # the capped program contains the already-known solution
            raise AssertionError(f"capped program of vertex {i} is infeasible at column {j}")
        if candidate[j] > 0:
            witnesses.append(candidate)
            support.update(candidate.support())
    return tuple(sorted(support)), tuple(witnesses)


def reference_rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, exactly."""
    work = [list(row) for row in matrix.entries]
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
        scale = work[pivot_row][col]
        if scale != 1:
            work[pivot_row] = [v / scale for v in work[pivot_row]]
        for r in range(matrix.rows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    reduced = RationalMatrix(matrix.rows, matrix.cols, tuple(tuple(row) for row in work))
    return reduced, tuple(pivots)


# ---------------------------------------------------------------------------
# realizability by exhaustive search


def _strongly_connected(m: int, edges: set[tuple[int, int]]) -> bool:
    def reachable(forward: bool) -> set[int]:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for s, t in edges:
                a, b = (s, t) if forward else (t, s)
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    full = set(range(m))
    return reachable(True) == full and reachable(False) == full


def reference_weakly_reversible(graph: EGraph) -> bool:
    """Does every edge's target reach the edge's source?  One search per edge."""
    successors: dict[int, list[int]] = {}
    for s, t in graph.edges:
        successors.setdefault(s, []).append(t)
    for source, target in graph.edges:
        seen = {target}
        stack = [target]
        while stack:
            for w in successors.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if source not in seen:
            return False
    return True


def wr1_realizable_bruteforce(dec: SourceDecomposition) -> bool:
    """Does any strongly connected network on the vertex set generate the dynamics?

    Per vertex, every candidate out-target set is tested for strictly
    positive rates by one enumeration LP per target (positivity on all
    targets at once then follows by averaging the per-target witnesses);
    the surviving patterns are combined exhaustively and the union graph is
    tested for strong connectivity, which for a graph on all m vertices is
    the same as weak reversibility with a single linkage class.
    """
    m = dec.m
    if m == 1:
        return False

    def feasible_patterns(i: int) -> list[tuple[int, ...]]:
        base = dec.vertices[i]
        w = dec.net_vector(i)
        others = [j for j in range(m) if j != i]
        good = []
        for size in range(1, m):
            for targets in combinations(others, size):
                columns = [
                    [Fraction(dec.vertices[j][axis] - base[axis]) for axis in range(dec.n)]
                    for j in targets
                ]
                sub = RationalMatrix.from_columns(columns, rows=dec.n)
                if all(
                    oracle_positive_component(sub, w, pos)
                    for pos in range(len(targets))
                ):
                    good.append(targets)
        return good

    options = [feasible_patterns(i) for i in range(m)]
    if any(not opts for opts in options):
        return False
    for combo in product(*options):
        edges = {(i, j) for i, targets in enumerate(combo) for j in targets}
        if _strongly_connected(m, edges):
            return True
    return False


# ---------------------------------------------------------------------------
# direct-summation oracle for net vectors and graph-to-decomposition bridge


def net_vectors_direct(graph: EGraph) -> list[RationalVector]:
    """Net vector per vertex by direct summation over its out-edges."""
    totals = [[ZERO] * graph.n for _ in range(graph.m)]
    for (source, target), value in graph.rates.items():
        src = graph.vertices[source]
        dst = graph.vertices[target]
        for axis in range(graph.n):
            totals[source][axis] += value * (dst[axis] - src[axis])
    return [RationalVector(tuple(row)) for row in totals]


def decomposition_of_dynamics(graph: EGraph) -> SourceDecomposition:
    """Decompose the mass-action dynamics of a rated graph on lattice vertices.

    Vertices whose net vector sums to zero disappear from the dynamics and
    therefore from the decomposition.
    """
    nets = net_vectors_direct(graph)
    species = tuple(f"s{i + 1}" for i in range(graph.n))
    terms = tuple(
        Term(vertex, tuple(net.entries))
        for vertex, net in zip(graph.vertices, nets)
        if not net.is_zero()
    )
    return decompose(PolynomialSystem(species, terms))


# ---------------------------------------------------------------------------
# reference rate, stoichiometry and evaluation arithmetic: the engine's former
# Fraction paths, which the integer ones must match value for value


def reference_average_witnesses(profile) -> RationalVector:
    """Equal-weight average of a SupportProfile's witnesses, one Fraction entry sum at a time."""
    total = [sum(entries, ZERO) for entries in zip(*profile.witnesses)]
    return RationalVector(tuple(total)).scaled(Fraction(1, len(profile.witnesses)))


def reference_mass_action_rhs(graph: EGraph, point) -> RationalVector:
    """Mass-action vector field at a positive point, one Fraction product per edge."""
    if graph.rates is None:
        raise MissingRatesError("mass-action evaluation needs rate constants")
    values = tuple(to_fraction(v) for v in point)
    if len(values) != graph.n:
        raise ValueError("dimension mismatch")
    if any(v <= 0 for v in values):
        raise ValueError("evaluation point must be strictly positive")
    total = [ZERO] * graph.n
    for (source, target), rate in graph.rates.items():
        src = graph.vertices[source]
        dst = graph.vertices[target]
        monomial = ONE
        for base, exp in zip(values, src):
            monomial *= base**exp
        for axis in range(graph.n):
            total[axis] += rate * monomial * (dst[axis] - src[axis])
    return RationalVector(tuple(total))


def reference_rhs_at(decomposition: SourceDecomposition, point) -> RationalVector:
    """``sum_i x^{vertex_i} * net_i``, one Fraction product per vertex and species."""
    values = tuple(to_fraction(v) for v in point)
    if len(values) != decomposition.n:
        raise ValueError("dimension mismatch")
    total = [ZERO] * decomposition.n
    for i, vertex in enumerate(decomposition.vertices):
        monomial = ONE
        for base, exp in zip(values, vertex):
            monomial *= base**exp
        column = decomposition.net_vectors.column(i)
        for s in range(decomposition.n):
            total[s] += column[s] * monomial
    return RationalVector(tuple(total))


def reference_reaction_vectors(graph: EGraph) -> RationalMatrix:
    """Matrix whose columns are target minus source, one per edge."""
    columns = []
    for source, target in graph.edges:
        src = graph.vertices[source]
        dst = graph.vertices[target]
        columns.append([Fraction(d - s) for s, d in zip(src, dst)])
    return RationalMatrix.from_columns(columns, rows=graph.n)


def reference_deficiency_from_net_vectors(decomposition: SourceDecomposition) -> int:
    """Deficiency of a single-linkage weakly reversible realization.

    For such a realization the stoichiometric subspace equals the image of
    the net-vector matrix, so the deficiency is ``m - 1 - rank``.
    """
    return decomposition.m - 1 - rank(decomposition.net_vectors)


# ---------------------------------------------------------------------------
# random generators


def _random_fraction(rng: Random, max_value: int = 10) -> Fraction:
    return Fraction(rng.randint(1, max_value), rng.randint(1, max_value))


def _distinct_vertices(rng: Random, n: int, m: int, top: int = 3) -> tuple[tuple[int, ...], ...]:
    while (top + 1) ** n < m:
        top += 1
    pool = set()
    while len(pool) < m:
        pool.add(tuple(rng.randint(0, top) for _ in range(n)))
    return tuple(sorted(pool))


def random_wr1_graph(rng: Random, max_n: int = 4, max_m: int = 6, balanced: bool = False) -> EGraph:
    """Random strongly connected single-class rated graph, every net vector nonzero.

    A shuffled Hamiltonian cycle guarantees strong connectivity and a single
    linkage class; extra edges and the rates are random.  Samples with some
    perfectly balanced vertex are rejected so the dynamics keeps all m
    monomials visible.  With ``balanced`` the graph has such a vertex
    instead (see ``_random_balanced_wr1_graph``).
    """
    if balanced:
        return _random_balanced_wr1_graph(rng, max_n, max_m)
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(2, max_m)
        vertices = _distinct_vertices(rng, n, m)
        order = list(range(m))
        rng.shuffle(order)
        edges = {(order[k], order[(k + 1) % m]) for k in range(m)}
        for s in range(m):
            for t in range(m):
                if s != t and rng.random() < 0.2:
                    edges.add((s, t))
        rates = {edge: _random_fraction(rng) for edge in edges}
        graph = EGraph(vertices=vertices, edges=tuple(sorted(edges)), rates=rates)
        if all(not net.is_zero() for net in net_vectors_direct(graph)):
            return graph


def _random_balanced_wr1_graph(rng: Random, max_n: int, max_m: int) -> EGraph:
    """Random WR1 graph with a balanced vertex c, whose net vector is zero.

    c is a lattice point strictly inside the segment from vertex a to vertex
    b, at ``c = a + t (b - a)`` with 0 < t < 1, and its only out-edges go to a
    and b at rates ``r (1 - t)`` and ``r t``, which cancel.  The other
    vertices lie on a shuffled Hamiltonian cycle with random extra edges, and
    one of them has an edge into c, so the graph is strongly connected.  The
    monomial of c drops out of the dynamics; samples whose dynamics would be
    empty are rejected.
    """
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(3, max_m)
        vertices = list(_distinct_vertices(rng, n, m - 1))
        a, b = rng.sample(range(m - 1), 2)
        step = [q - p for p, q in zip(vertices[a], vertices[b])]
        g = gcd(*step)
        if g < 2:
            continue
        k = rng.randint(1, g - 1)
        c = tuple(p + k * d // g for p, d in zip(vertices[a], step))
        if c in vertices:
            continue
        vertices.append(c)
        order = list(range(m - 1))
        rng.shuffle(order)
        edges = {(order[i], order[(i + 1) % (m - 1)]) for i in range(m - 1)}
        for u in range(m - 1):
            for v in range(m - 1):
                if u != v and rng.random() < 0.2:
                    edges.add((u, v))
        edges.add((rng.randrange(m - 1), m - 1))
        rates = {edge: _random_fraction(rng) for edge in edges}
        r, t = _random_fraction(rng), Fraction(k, g)
        rates[(m - 1, a)], rates[(m - 1, b)] = r * (1 - t), r * t
        graph = EGraph(vertices=tuple(vertices), edges=tuple(sorted(rates)), rates=rates)
        if any(not net.is_zero() for net in net_vectors_direct(graph)):
            return graph


def translated(graph: EGraph, offset: tuple[int, ...], idle: int | None = None) -> EGraph:
    """The rated graph moved by an integer vector (possibly off the orthant).

    With ``idle`` a species whose exponent is 0 in every vertex is inserted
    at that axis after the move.
    """
    vertices = tuple(tuple(c + d for c, d in zip(vertex, offset)) for vertex in graph.vertices)
    if idle is not None:
        vertices = tuple(vertex[:idle] + (0,) + vertex[idle:] for vertex in vertices)
    return EGraph(vertices=vertices, edges=graph.edges, rates=graph.rates)


def random_rated_digraph(rng: Random, max_m: int = 8) -> EGraph:
    """Random rated digraph of any shape: no self-loops, no isolated vertices."""
    n = rng.randint(1, 3)
    m = rng.randint(2, max_m)
    vertices = _distinct_vertices(rng, n, m, top=4)
    edges = set()
    for s in range(m):
        for t in range(m):
            if s != t and rng.random() < 0.3:
                edges.add((s, t))
    for v in range(m):
        if not any(v in edge for edge in edges):
            other = rng.choice([u for u in range(m) if u != v])
            edges.add((v, other) if rng.random() < 0.5 else (other, v))
    rates = {edge: _random_fraction(rng) for edge in edges}
    return EGraph(vertices=vertices, edges=tuple(sorted(edges)), rates=rates)


def random_wr_graph(rng: Random) -> EGraph:
    """Random weakly reversible rated graph with one to three linkage classes."""
    n = rng.randint(1, 3)
    classes = rng.randint(1, 3)
    sizes = [rng.randint(2, 4) for _ in range(classes)]
    vertices = list(_distinct_vertices(rng, n, sum(sizes), top=4))
    rng.shuffle(vertices)
    edges = set()
    start = 0
    for size in sizes:
        block = list(range(start, start + size))
        rng.shuffle(block)
        for k in range(size):
            edges.add((block[k], block[(k + 1) % size]))
        for s in block:
            for t in block:
                if s != t and rng.random() < 0.3:
                    edges.add((s, t))
        start += size
    rates = {edge: _random_fraction(rng) for edge in edges}
    return EGraph(vertices=tuple(vertices), edges=tuple(sorted(edges)), rates=rates)


def random_decomposition(rng: Random, max_n: int = 3, max_m: int = 4) -> SourceDecomposition:
    """Random decomposition with small rational net vectors (zero columns excluded)."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    vertices = _distinct_vertices(rng, n, m)
    columns = []
    for _ in range(m):
        while True:
            column = [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)
            ]
            if any(c != 0 for c in column):
                break
        columns.append(column)
    net = RationalMatrix.from_columns(columns, rows=n)
    species = tuple(f"s{i + 1}" for i in range(n))
    return SourceDecomposition(species, vertices, net)
