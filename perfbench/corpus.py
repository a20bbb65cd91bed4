"""Seeded operation corpora for the three benchmark workloads.

Nothing here imports the engine.  Every system is generated from a rated
graph whose net vectors are summed directly with ``fractions.Fraction``, and
every expected answer is known from how the graph was built:

* ``dense_wr1``: a random strongly connected rated graph on n = 3-4 species
  is realizable, and its maximal realization contains every generating edge.
* ``sparse_blocks``: species are split into blocks and every vertex is
  nonzero on its own block only.  An edge from block A into block B would
  need a positive B-entry that no A-vertex's net vector has, so cross-block
  edges are impossible and the outcome follows from the block layout:
  one block realizes, two blocks give two terminal components, dangling
  vertices (positive on an extra species, one edge into the block) are
  never reached, and a vertex ``K * e_last`` with a positive last-species
  net entry is lexicographically first and infeasible.
* ``verify_highdeg``: ``wr1 verify`` of a generating graph with exponents in
  the thousands against its own system passes; with one rate changed, the
  net vector of that edge's source moves, so verification fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

Vertex = tuple[int, ...]
Edge = tuple[int, int]

WORKLOADS = ("dense_wr1", "sparse_blocks", "verify_highdeg")

# realize-outcome labels, as ``wr1 realize`` prints them
REALIZED = "realized"
INFEASIBLE = "infeasible-vertex"
KERNEL_DIMENSION = "kernel-dimension"
KERNEL_SUPPORT = "kernel-support"
VERIFY_OK = "verify-ok"
VERIFY_MISMATCH = "verify-mismatch"

# One cycle of case shapes per workload; a corpus repeats its cycle with fresh
# random content, and a traced pass runs the first TRACE_PASS cases.  Shapes
# are chosen so that operations of one workload cost about the same (the
# median and tail of a run then rest on many similar samples), and the order
# interleaves them, so a run cut at any point has seen the same mix.  In
# sparse_blocks and verify_highdeg one share in four ends within milliseconds,
# so the median falls among the other three, which are matched in cost: a gap
# between two of them would make the median jump from one to the other.
DENSE_CYCLE = ((4, 14), (3, 16), (4, 15), (3, 17), (4, 16), (3, 18))
SPARSE_CYCLE = ((REALIZED, 7, 10), (KERNEL_DIMENSION, 9, 10), (KERNEL_SUPPORT, 7, 10), (INFEASIBLE, 8, 10))
VERIFY_CYCLE = ((3, 12, False), (4, 9, False), (3, 12, False), (4, 9, True))
CYCLES = {"dense_wr1": DENSE_CYCLE, "sparse_blocks": SPARSE_CYCLE, "verify_highdeg": VERIFY_CYCLE}
REPEATS = {"dense_wr1": 8, "sparse_blocks": 24, "verify_highdeg": 60}
TRACE_PASS = {"dense_wr1": 6, "sparse_blocks": 8, "verify_highdeg": 8}
# speed-probe kernel (speed.py) whose instruction mix matches the workload's operations
PROBE = {"dense_wr1": "small", "sparse_blocks": "small", "verify_highdeg": "big"}
VERIFY_TOP = 2000


@dataclass(frozen=True)
class RatedGraph:
    vertices: tuple[Vertex, ...]
    rates: dict[Edge, Fraction]

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    @property
    def m(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Case:
    """One benchmark operation and the answer it must produce.

    ``files`` maps file names to contents; ``argv`` names them relative to
    the directory they are written to.  ``vertices`` and ``nets`` are the
    decomposition the answer must reproduce, in lexicographic vertex order.
    ``generating_edges`` are the edges of the graph the case was built from,
    which a realized answer must contain; the last three fields are the
    predicted failure.
    """

    kind: str
    argv: tuple[str, ...]
    files: dict[str, str]
    vertices: tuple[Vertex, ...]
    nets: tuple[tuple[Fraction, ...], ...]
    generating_edges: frozenset[Edge] = frozenset()
    failure_vertex: int | None = None
    kernel_dimension: int | None = None
    missing: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    @property
    def m(self) -> int:
        return len(self.vertices)

    @property
    def max_exponent(self) -> int:
        return max(max(v) for v in self.vertices)


# ---------------------------------------------------------------------------
# graphs and their dynamics


def net_vectors(graph: RatedGraph) -> list[tuple[Fraction, ...]]:
    """Per-vertex rate-weighted sum of (target - source), by direct summation."""
    totals = [[Fraction(0)] * graph.n for _ in range(graph.m)]
    for (s, t), rate in graph.rates.items():
        for axis in range(graph.n):
            totals[s][axis] += rate * (graph.vertices[t][axis] - graph.vertices[s][axis])
    return [tuple(row) for row in totals]


def _rate(rng: Random) -> Fraction:
    return Fraction(rng.randint(1, 10), rng.randint(1, 10))


def _points(rng: Random, count: int, coords: list[int], n: int, top: int) -> list[Vertex]:
    """Distinct nonzero vectors of length n, zero outside ``coords``, entries <= top."""
    pool: set[Vertex] = set()
    fresh: list[Vertex] = []
    while len(fresh) < count:
        point = [0] * n
        for axis in coords:
            point[axis] = rng.randint(0, top)
        point = tuple(point)
        if any(point) and point not in pool:
            pool.add(point)
            fresh.append(point)
    return fresh


def _strong_graph(rng: Random, vertices: list[Vertex], extra: float) -> dict[Edge, Fraction]:
    """Rates on a shuffled Hamiltonian cycle plus random extra edges, over local indices."""
    m = len(vertices)
    order = list(range(m))
    rng.shuffle(order)
    edges = {(order[k], order[(k + 1) % m]) for k in range(m)}
    for s in range(m):
        for t in range(m):
            if s != t and rng.random() < extra:
                edges.add((s, t))
    return {edge: _rate(rng) for edge in sorted(edges)}


def _block_graph(rng: Random, m: int, coords: list[int], n: int, top: int, extra: float) -> RatedGraph:
    """Strongly connected rated graph on m vertices supported on ``coords``, no zero net vector."""
    while True:
        vertices = _points(rng, m, coords, n, top)
        graph = RatedGraph(tuple(vertices), _strong_graph(rng, vertices, extra))
        if all(any(net) for net in net_vectors(graph)):
            return graph


def _union(*graphs: RatedGraph) -> RatedGraph:
    vertices: list[Vertex] = []
    rates: dict[Edge, Fraction] = {}
    for graph in graphs:
        offset = len(vertices)
        vertices.extend(graph.vertices)
        for (s, t), rate in graph.rates.items():
            rates[(s + offset, t + offset)] = rate
    return RatedGraph(tuple(vertices), rates)


def _sorted(graph: RatedGraph) -> tuple[RatedGraph, list[int]]:
    """Same graph with vertices in lexicographic order, plus old-to-new index map."""
    order = sorted(range(graph.m), key=lambda i: graph.vertices[i])
    new_index = [0] * graph.m
    for new, old in enumerate(order):
        new_index[old] = new
    rates = {(new_index[s], new_index[t]): r for (s, t), r in graph.rates.items()}
    return RatedGraph(tuple(graph.vertices[i] for i in order), dict(sorted(rates.items()))), new_index


# ---------------------------------------------------------------------------
# rendering


def species_names(n: int) -> list[str]:
    return [f"s{k + 1}" for k in range(n)]


def _monomial(vertex: Vertex, names: list[str]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, vertex) if e)


def system_text(vertices: tuple[Vertex, ...], nets) -> str:
    """ODE text whose term for monomial x^vertex carries that vertex's net vector."""
    n = len(vertices[0])
    names = species_names(n)
    lines = [f"species {', '.join(names)};"]
    for axis, name in enumerate(names):
        parts = []
        for vertex, net in zip(vertices, nets):
            coeff = net[axis]
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            magnitude = str(abs(coeff))
            mono = _monomial(vertex, names)
            parts.append(f"{sign} {magnitude}*{mono}" if mono else f"{sign} {magnitude}")
        body = " ".join(parts) if parts else "0"
        lines.append(f"{name}' = {body.removeprefix('+ ')};")
    return "\n".join(lines) + "\n"


def graph_json(graph: RatedGraph) -> str:
    doc = {
        "n": graph.n,
        "species": species_names(graph.n),
        "vertices": [list(v) for v in graph.vertices],
        "edges": [{"from": s, "to": t, "rate": str(r)} for (s, t), r in sorted(graph.rates.items())],
    }
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# workloads


def _realize_case(name: str, kind: str, vertices, nets, **expected) -> Case:
    file = f"{name}.txt"
    return Case(
        kind=kind,
        argv=("realize", file),
        files={file: system_text(vertices, nets)},
        vertices=tuple(vertices),
        nets=tuple(tuple(net) for net in nets),
        **expected,
    )


def dense_case(rng: Random, name: str, n: int, m: int) -> Case:
    top = 3
    graph, _ = _sorted(_block_graph(rng, m, list(range(n)), n, top, extra=0.2))
    return _realize_case(
        name, REALIZED, graph.vertices, net_vectors(graph), generating_edges=frozenset(graph.rates)
    )


def sparse_case(rng: Random, name: str, kind: str, n: int, m: int) -> Case:
    """One block-structured system of the given outcome kind over n species and m vertices."""
    top = 2
    if kind == REALIZED:
        graph, _ = _sorted(_block_graph(rng, m, list(range(n)), n, top, extra=0.1))
        return _realize_case(
            name, kind, graph.vertices, net_vectors(graph), generating_edges=frozenset(graph.rates)
        )
    if kind == KERNEL_DIMENSION:
        split_n, split_m = n // 2, m // 2
        first = _block_graph(rng, split_m, list(range(split_n)), n, top, extra=0.1)
        second = _block_graph(rng, m - split_m, list(range(split_n, n)), n, top, extra=0.1)
        graph, _ = _sorted(_union(first, second))
        return _realize_case(name, kind, graph.vertices, net_vectors(graph), kernel_dimension=2)
    if kind == KERNEL_SUPPORT:
        dangling = max(1, m // 4)
        block_axes = list(range(n - 1))
        block = _block_graph(rng, m - dangling, block_axes, n, top, extra=0.1)
        extra_axis = n - 1
        # each dangling vertex is positive on the extra species and points into the block
        points = []
        while len(points) < dangling:
            point = list(_points(rng, 1, block_axes, n, top)[0]) if rng.random() < 0.5 else [0] * n
            point[extra_axis] = rng.randint(1, top)
            point = tuple(point)
            if point not in points:
                points.append(point)
        rates = dict(block.rates)
        base = block.m
        for k in range(dangling):
            rates[(base + k, rng.randrange(block.m))] = _rate(rng)
        graph, new_index = _sorted(RatedGraph(block.vertices + tuple(points), rates))
        missing = tuple(sorted(new_index[base + k] for k in range(dangling)))
        return _realize_case(name, kind, graph.vertices, net_vectors(graph), missing=missing)
    if kind == INFEASIBLE:
        block = _block_graph(rng, m - 1, list(range(n - 1)), n, top, extra=0.1)
        corner = tuple([0] * (n - 1) + [rng.randint(1, top + 2)])
        graph, _ = _sorted(RatedGraph((corner,) + block.vertices, {(s + 1, t + 1): r for (s, t), r in block.rates.items()}))
        nets = net_vectors(graph)
        # vertex 0 is the corner: any net vector with a positive last entry is infeasible there
        nets[0] = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)) + (_rate(rng),)
        return _realize_case(name, kind, graph.vertices, nets, failure_vertex=0)
    raise ValueError(f"unknown sparse kind {kind!r}")


def verify_case(rng: Random, name: str, n: int, m: int, perturb: bool) -> Case:
    graph, _ = _sorted(_block_graph(rng, m, list(range(n)), n, VERIFY_TOP, extra=0.2))
    nets = net_vectors(graph)
    rates = dict(graph.rates)
    if perturb:
        edge = rng.choice(sorted(rates))
        rates[edge] += 1
    graph_file, system_file = f"{name}.graph.json", f"{name}.txt"
    return Case(
        kind=VERIFY_MISMATCH if perturb else VERIFY_OK,
        argv=("verify", "--graph", graph_file, "--system", system_file),
        files={
            graph_file: graph_json(RatedGraph(graph.vertices, rates)),
            system_file: system_text(graph.vertices, nets),
        },
        vertices=graph.vertices,
        nets=tuple(nets),
        generating_edges=frozenset(rates),
    )


def build_corpus(workload: str, seed: int) -> list[Case]:
    """All operations of one workload; the same seed gives the same cases."""
    make = {"dense_wr1": dense_case, "sparse_blocks": sparse_case, "verify_highdeg": verify_case}[workload]
    cycle = CYCLES[workload]
    rng = Random(f"{workload}/{seed}")
    return [make(rng, f"c{k}", *cycle[k % len(cycle)]) for k in range(REPEATS[workload] * len(cycle))]
