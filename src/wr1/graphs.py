"""Structural analysis of reaction graphs embedded in integer space.

An embedded graph carries distinct integer-vector vertices, directed edges
without self-loops, and optionally a positive rational rate per edge.  The
operations here compute connectivity structure (linkage classes, strong
components, weak reversibility), the stoichiometric dimension and
deficiency, and the rate-weighted Kirchhoff matrix together with its
kernel/terminal-component cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Mapping

from .errors import MissingRatesError
from .linalg import ZERO, RationalMatrix, RationalVector, kernel_basis, monomials_at, rank, to_fraction

Edge = tuple[int, int]


@dataclass(frozen=True)
class EGraph:
    """Directed graph with integer-vector vertices; no self-loops, no isolated vertices."""

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    rates: Mapping[Edge, Fraction] | None = None

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a graph needs at least one vertex")
        dim = len(self.vertices[0])
        for vertex in self.vertices:
            if len(vertex) != dim:
                raise ValueError("vertices of mixed dimension")
            if any(not isinstance(e, int) for e in vertex):
                raise ValueError("vertex coordinates must be integers")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex")
        edges = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", edges)
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edge")
        touched = set()
        for source, target in edges:
            if source == target:
                raise ValueError("self-loop")
            for endpoint in (source, target):
                if not 0 <= endpoint < len(self.vertices):
                    raise ValueError("edge endpoint out of range")
            touched.add(source)
            touched.add(target)
        if touched != set(range(len(self.vertices))):
            raise ValueError("isolated vertex")
        if self.rates is not None:
            converted = {}
            for edge, value in self.rates.items():
                value = to_fraction(value)
                if value <= 0:
                    raise ValueError(f"rate on edge {edge} must be positive")
                converted[(int(edge[0]), int(edge[1]))] = value
            if set(converted) != set(edges):
                raise ValueError("rate map keys must be exactly the edge set")
            object.__setattr__(self, "rates", converted)

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    @property
    def m(self) -> int:
        return len(self.vertices)

    def out_neighbors(self) -> list[list[int]]:
        adjacency: list[list[int]] = [[] for _ in range(self.m)]
        for source, target in self.edges:
            adjacency[source].append(target)
        return adjacency


def linkage_classes(graph: EGraph) -> tuple[tuple[int, ...], ...]:
    """Partition of the vertex indices by undirected connectivity."""
    neighbors: list[set[int]] = [set() for _ in range(graph.m)]
    for source, target in graph.edges:
        neighbors[source].add(target)
        neighbors[target].add(source)
    seen = [False] * graph.m
    classes = []
    for start in range(graph.m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        classes.append(tuple(sorted(members)))
    return tuple(sorted(classes))


def strong_components(graph: EGraph) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """Strongly connected components plus a terminal flag for each.

    A component is terminal when no edge leaves it.  Components are listed
    sorted by their smallest member.
    """
    adjacency = graph.out_neighbors()
    m = graph.m
    index: list[int | None] = [None] * m
    low = [0] * m
    on_stack = [False] * m
    stack: list[int] = []
    counter = 0
    raw_components: list[tuple[int, ...]] = []

    for root in range(m):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        call_stack: list[tuple[int, Iterable[int]]] = [(root, iter(adjacency[root]))]
        while call_stack:
            v, edge_iter = call_stack[-1]
            descended = False
            for w in edge_iter:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    call_stack.append((w, iter(adjacency[w])))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                raw_components.append(tuple(sorted(members)))

    components = tuple(sorted(raw_components))
    membership = {}
    for c, comp in enumerate(components):
        for v in comp:
            membership[v] = c
    leaves = [False] * len(components)
    for source, target in graph.edges:
        if membership[source] != membership[target]:
            leaves[membership[source]] = True
    terminal = tuple(not leak for leak in leaves)
    return components, terminal


def stoich_dim(graph: EGraph, classes: tuple[tuple[int, ...], ...]) -> int:
    """Dimension of the stoichiometric subspace, the span of the reaction vectors.

    That span equals the span of the differences ``y_k - y_first``, taken
    over the non-first members k of each linkage class: a difference within
    one class is the sum of the edge vectors along an undirected path, and
    each edge vector is a difference of two vertices of one class.  So the
    rank is taken of the n-by-(m - L) differences over ``classes``, the
    graph's ``linkage_classes`` that every caller already holds.
    """
    columns = []
    for members in classes:
        first = graph.vertices[members[0]]
        for k in members[1:]:
            columns.append([Fraction(a - b) for a, b in zip(graph.vertices[k], first)])
    return rank(RationalMatrix.from_columns(columns, rows=graph.n))


def deficiency(graph: EGraph) -> int:
    """Vertex count minus linkage classes minus stoichiometric dimension.

    Reported as computed; no nonnegativity is assumed or asserted.
    """
    classes = linkage_classes(graph)
    return graph.m - len(classes) - stoich_dim(graph, classes)


def kirchhoff_matrix(graph: EGraph) -> RationalMatrix:
    """Rate-weighted Kirchhoff matrix: entry (j, i) is the rate of i -> j.

    Column i's diagonal entry is minus the total outflow rate of vertex i,
    so every column sums to zero.
    """
    if graph.rates is None:
        raise MissingRatesError("Kirchhoff matrix needs rate constants")
    m = graph.m
    grid = [[ZERO] * m for _ in range(m)]
    for (source, target), value in graph.rates.items():
        grid[target][source] += value
        grid[source][source] -= value
    return RationalMatrix(m, m, tuple(tuple(row) for row in grid))


def net_reaction_vectors(graph: EGraph) -> RationalMatrix:
    """Per-vertex aggregate outflow directions, columnwise.

    Column i is the rate-weighted sum of (target - source) over the
    out-edges of vertex i; vertices without out-edges (or with perfectly
    balanced outflow) get a zero column.
    """
    if graph.rates is None:
        raise MissingRatesError("net reaction vectors need rate constants")
    n = graph.n
    columns = [[ZERO] * n for _ in range(graph.m)]
    for (source, target), value in graph.rates.items():
        src = graph.vertices[source]
        dst = graph.vertices[target]
        for axis in range(n):
            columns[source][axis] += value * (dst[axis] - src[axis])
    return RationalMatrix.from_columns(columns, rows=n)


def mass_action_rhs(graph: EGraph, point: Iterable[Fraction]) -> RationalVector:
    """Exact mass-action vector field of the rated graph at a positive point.

    Summed edge by edge, independently of :func:`net_reaction_vectors`, on
    integers: each source vertex's monomial comes from
    :func:`~wr1.linalg.monomials_at` once, each rate is scaled to the lcm of
    the rate denominators, and each entry becomes one reduced Fraction over
    the common denominator at the end.
    """
    if graph.rates is None:
        raise MissingRatesError("mass-action evaluation needs rate constants")
    values = tuple(to_fraction(v) for v in point)
    if len(values) != graph.n:
        raise ValueError("dimension mismatch")
    if any(v <= 0 for v in values):
        raise ValueError("evaluation point must be strictly positive")
    sources = sorted({source for source, _ in graph.edges})
    numerators, denominator = monomials_at(values, [graph.vertices[i] for i in sources])
    monomial = dict(zip(sources, numerators))
    scale = reduce(lcm, (rate.denominator for rate in graph.rates.values()), 1)
    total = [0] * graph.n
    for (source, target), rate in graph.rates.items():
        src = graph.vertices[source]
        dst = graph.vertices[target]
        weight = rate.numerator * (scale // rate.denominator) * monomial[source]
        for axis in range(graph.n):
            total[axis] += (dst[axis] - src[axis]) * weight
    denominator *= scale
    return RationalVector(tuple(Fraction(t, denominator) for t in total))


@dataclass(frozen=True)
class KernelSupportCheck:
    """Cross-check of the Kirchhoff kernel against the terminal components.

    For any rated graph the kernel dimension equals the number of terminal
    strong components, and the kernel has a nonnegative basis supported
    exactly on them.  ``ok`` records whether both facts held here.
    """

    kernel_dimension: int
    terminal: tuple[tuple[int, ...], ...]
    dimension_matches: bool
    basis: tuple[RationalVector, ...]
    supports_match: bool

    @property
    def ok(self) -> bool:
        return self.dimension_matches and self.supports_match


def kernel_support_check(graph: EGraph) -> KernelSupportCheck:
    """Verify the kernel/terminal-component correspondence for a rated graph.

    The nonnegative basis is built blockwise: the Kirchhoff matrix restricted
    to one terminal component is itself a Kirchhoff matrix of a strongly
    connected graph, so its kernel is one-dimensional with a strictly
    positive generator.
    """
    kirchhoff = kirchhoff_matrix(graph)
    dim = len(kernel_basis(kirchhoff))
    components, flags = strong_components(graph)
    terminal = tuple(comp for comp, is_terminal in zip(components, flags) if is_terminal)
    dimension_matches = dim == len(terminal)

    basis = []
    supports_match = True
    for component in terminal:
        block = kirchhoff.submatrix(component, component)
        block_kernel = kernel_basis(block)
        if len(block_kernel) != 1:
            supports_match = False
            continue
        generator = block_kernel[0]
        if all(entry <= 0 for entry in generator):
            generator = generator.scaled(-1)
        if any(entry <= 0 for entry in generator):
            supports_match = False
            continue
        embedded = [ZERO] * graph.m
        for local, vertex in enumerate(component):
            embedded[vertex] = generator[local]
        vector = RationalVector(tuple(embedded))
        if not kirchhoff.matvec(vector).is_zero():
            supports_match = False
            continue
        basis.append(vector)
    return KernelSupportCheck(
        kernel_dimension=dim,
        terminal=terminal,
        dimension_matches=dimension_matches,
        basis=tuple(basis),
        supports_match=supports_match,
    )


@dataclass(frozen=True)
class StructureReport:
    """Full structural summary of one graph."""

    linkage_classes: tuple[tuple[int, ...], ...]
    strong_components: tuple[tuple[int, ...], ...]
    terminal_flags: tuple[bool, ...]
    weakly_reversible: bool
    stoich_dimension: int
    deficiency: int

    @property
    def terminal_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            comp for comp, flag in zip(self.strong_components, self.terminal_flags) if flag
        )


def structure_report(graph: EGraph) -> StructureReport:
    components, terminal_flags = strong_components(graph)
    classes = linkage_classes(graph)
    s = stoich_dim(graph, classes)
    return StructureReport(
        linkage_classes=classes,
        strong_components=components,
        terminal_flags=terminal_flags,
        # an edge between two components leaves its source's component, so
        # every edge stays inside one component exactly when all are terminal
        weakly_reversible=all(terminal_flags),
        stoich_dimension=s,
        deficiency=graph.m - len(classes) - s,
    )
