"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every equality here is exact rational equality; the only tolerances
are the two wall-clock budgets, pinned in this file.
"""

import time
from fractions import Fraction
from functools import lru_cache
from random import Random

from wr1.graphs import (
    deficiency,
    kernel_support_check,
    linkage_classes,
    net_reaction_vectors,
    stoich_dim,
    structure_report,
)
from wr1.ingest import decompose, parse_system
from wr1.linalg import RationalVector, kernel_basis, rank
from wr1.realize import (
    FailureKind,
    build_kirchhoff,
    displacement_matrix,
    realize_wr1,
    saturate_support,
)

from .conftest import (
    COMPLETE3_TEXT,
    CYCLE3_TEXT,
    CYCLE4_TEXT,
    UNREALIZABLE_TEXT,
    autocatalytic_closure_graph,
    two_terminal_graph,
    unit_cycle3_graph,
)
from .oracles import (
    decomposition_of_dynamics,
    oracle_positive_component,
    random_decomposition,
    random_rated_digraph,
    random_wr1_graph,
    random_wr_graph,
    wr1_realizable_bruteforce,
)

F = Fraction

GOLDEN_RUNTIME_BUDGET = 1.0  # seconds, criterion 1
ROUNDTRIP_RUNTIME_BUDGET = 60.0  # seconds, criterion 6
ROUNDTRIP_CASES = 200
NEGATIVE_CASES = 50
KERNEL_SUITE_CASES = 100
RANK_SUITE_CASES = 100

ROUNDTRIP_SEED = 101
NEGATIVE_SEED = 202
KERNEL_SEED = 303
RANK_SEED = 404


def report(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"acceptance criterion {number:02d}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


@lru_cache(maxsize=None)
def roundtrip_cases():
    """The shared random round-trip corpus, generated and realized once."""
    rng = Random(ROUNDTRIP_SEED)
    started = time.perf_counter()
    cases = []
    for _ in range(ROUNDTRIP_CASES):
        graph = random_wr1_graph(rng, max_n=4, max_m=6)
        dec = decomposition_of_dynamics(graph)
        cases.append((graph, dec, realize_wr1(dec)))
    elapsed = time.perf_counter() - started
    return tuple(cases), elapsed


def test_criterion_01_three_cycle_golden():
    started = time.perf_counter()
    dec = decompose(parse_system(CYCLE3_TEXT))
    result = realize_wr1(dec)
    elapsed = time.perf_counter() - started

    problems = []
    if not result.realized:
        problems.append("not realized")
    else:
        graph = result.realization.graph
        if graph.edges != ((0, 1), (1, 2), (2, 0)):
            problems.append(f"edges {graph.edges}")
        if any(graph.rates[edge] != 1 for edge in graph.edges):
            problems.append("rates not all 1")
        supports = [p.support for p in result.realization.profiles]
        if supports != [(0, 1), (1, 2), (0, 2)]:
            problems.append(f"supports {supports}")
        basis = kernel_basis(build_kirchhoff(result.realization.profiles))
        if len(basis) != 1 or basis[0].scaled(1 / basis[0][0]) != RationalVector.of([1, 1, 1]):
            problems.append("kernel not spanned by (1,1,1)")
        if deficiency(graph) != 0:
            problems.append(f"deficiency {deficiency(graph)}")
    if elapsed >= GOLDEN_RUNTIME_BUDGET:
        problems.append(f"took {elapsed:.3f}s")
    report(1, not problems, "; ".join(problems) or f"{elapsed * 1000:.1f} ms")


def test_criterion_02_unrealizable_golden():
    dec = decompose(parse_system(UNREALIZABLE_TEXT))
    result = realize_wr1(dec)
    ok = (
        not result.realized
        and result.failure.kind is FailureKind.INFEASIBLE_VERTEX
        and dec.vertices[result.failure.vertex] == (1, 0)
    )
    report(2, ok, "" if ok else repr(result))


def test_criterion_03_four_cycle_golden():
    dec = decompose(parse_system(CYCLE4_TEXT))
    result = realize_wr1(dec)
    problems = []
    if not result.realized:
        problems.append("not realized")
    else:
        graph = result.realization.graph
        # vertex order is lexicographic: x, x y, x^2, x^2 y
        cycle = ((0, 2), (1, 0), (2, 3), (3, 1))
        if graph.edges != cycle:
            problems.append(f"edges {graph.edges}")
        supports = [p.support for p in result.realization.profiles]
        if supports != [(0, 2), (0, 1), (2, 3), (1, 3)]:
            problems.append(f"supports {supports}")
        if deficiency(graph) != 1:
            problems.append(f"deficiency {deficiency(graph)}")
    report(3, not problems, "; ".join(problems))


def test_criterion_04_complete_digraph_golden():
    dec = decompose(parse_system(COMPLETE3_TEXT))
    result = realize_wr1(dec)
    problems = []
    if not result.realized:
        problems.append("not realized")
    else:
        graph = result.realization.graph
        complete = tuple(sorted((i, j) for i in range(3) for j in range(3) if i != j))
        if graph.edges != complete:
            problems.append(f"edges {graph.edges}")
        supports = [p.support for p in result.realization.profiles]
        if supports != [(0, 1, 2)] * 3:
            problems.append(f"supports {supports}")
        kirchhoff = build_kirchhoff(result.realization.profiles)
        for i in range(3):
            for j in range(3):
                expected = F(-2) if i == j else F(1)
                if kirchhoff.entries[i][j] != expected:
                    problems.append("Kirchhoff pattern wrong")
        # the emitted rates must reproduce each net vector exactly
        for i in range(3):
            total = F(0)
            for (source, target), rate in graph.rates.items():
                if source == i:
                    total += rate * (dec.vertices[target][0] - dec.vertices[i][0])
            if total != dec.net_vector(i)[0]:
                problems.append(f"vertex {i} reconstruction {total}")
    report(4, not problems, "; ".join(problems))


def test_criterion_05_kernel_support_suite():
    problems = []

    two_terminal = two_terminal_graph()
    check = kernel_support_check(two_terminal)
    if check.kernel_dimension != 2:
        problems.append(f"kernel dimension {check.kernel_dimension}")
    if [v.support() for v in check.basis] != [(0, 1), (4, 5)]:
        problems.append("kernel supports wrong")
    if not check.ok:
        problems.append("kernel check failed")
    if deficiency(two_terminal) != 2:
        problems.append(f"two-class deficiency {deficiency(two_terminal)}")

    cycle = unit_cycle3_graph()
    if deficiency(cycle) != 0:
        problems.append(f"single-class deficiency {deficiency(cycle)}")

    closure = autocatalytic_closure_graph()
    if deficiency(closure) != 3:
        problems.append(f"closure deficiency {deficiency(closure)}")
    if not structure_report(closure).weakly_reversible:
        problems.append("closure not weakly reversible")

    report(5, not problems, "; ".join(problems))


def test_criterion_06_roundtrip_suite():
    cases, elapsed = roundtrip_cases()
    problems = []
    for idx, (graph, dec, result) in enumerate(cases):
        if not result.realized:
            problems.append(f"case {idx} not realized")
            continue
        produced = result.realization.graph
        index = {v: k for k, v in enumerate(dec.vertices)}
        original_edges = {
            (index[graph.vertices[s]], index[graph.vertices[t]]) for s, t in graph.edges
        }
        if not original_edges <= set(produced.edges):
            problems.append(f"case {idx} lost edges")
        if net_reaction_vectors(produced) != dec.net_vectors:
            problems.append(f"case {idx} net vectors differ")
    if elapsed >= ROUNDTRIP_RUNTIME_BUDGET:
        problems.append(f"took {elapsed:.1f}s")
    report(
        6,
        not problems,
        "; ".join(problems[:5]) or f"{len(cases)} cases in {elapsed:.1f}s",
    )


def test_criterion_07_maximality_of_supports():
    golden = [
        decompose(parse_system(text)) for text in (CYCLE3_TEXT, CYCLE4_TEXT, COMPLETE3_TEXT)
    ]
    cases, _ = roundtrip_cases()
    examined = [(dec, result) for _, dec, result in cases if result.realized]
    examined += [(dec, realize_wr1(dec)) for dec in golden]

    problems = []
    checked = 0
    for dec, result in examined:
        for profile in result.realization.profiles:
            matrix = displacement_matrix(dec, profile.vertex)
            target = dec.net_vector(profile.vertex)
            for j in range(dec.m):
                if j in profile.support:
                    continue
                checked += 1
                if oracle_positive_component(matrix, target, j) is not False:
                    problems.append(f"vertex {profile.vertex} column {j} attainable")
    report(7, not problems, "; ".join(problems[:5]) or f"{checked} excluded pairs checked")


def test_criterion_08_negative_oracle_suite():
    rng = Random(NEGATIVE_SEED)
    problems = []
    confirmed = 0
    attempts = 0
    while confirmed < NEGATIVE_CASES:
        attempts += 1
        assert attempts < 10000, "generator failed to produce enough negative cases"
        dec = random_decomposition(rng, max_m=4)
        result = realize_wr1(dec)
        if result.realized:
            continue
        if wr1_realizable_bruteforce(dec):
            problems.append(f"case {confirmed}: brute force found a realization")
        confirmed += 1
    report(8, not problems, "; ".join(problems[:5]) or f"{confirmed} failures confirmed")


def test_criterion_09_kernel_dimension_suite():
    rng = Random(KERNEL_SEED)
    problems = []
    for idx in range(KERNEL_SUITE_CASES):
        graph = random_rated_digraph(rng, max_m=8)
        check = kernel_support_check(graph)
        if not check.dimension_matches:
            problems.append(f"case {idx}: dimension mismatch")
        if not check.supports_match:
            problems.append(f"case {idx}: supports mismatch")
        elif sorted(v.support() for v in check.basis) != sorted(check.terminal):
            problems.append(f"case {idx}: support sets differ")
    report(9, not problems, "; ".join(problems[:5]) or f"{KERNEL_SUITE_CASES} graphs checked")


def test_criterion_10_net_vector_rank_suite():
    rng = Random(RANK_SEED)
    problems = []
    for idx in range(RANK_SUITE_CASES):
        graph = random_wr_graph(rng)
        if not structure_report(graph).weakly_reversible:
            problems.append(f"case {idx}: generator emitted a non-reversible graph")
            continue
        if rank(net_reaction_vectors(graph)) != stoich_dim(graph, linkage_classes(graph)):
            problems.append(f"case {idx}: rank differs from stoichiometric dimension")
    report(10, not problems, "; ".join(problems[:5]) or f"{RANK_SUITE_CASES} graphs checked")
