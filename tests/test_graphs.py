from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wr1 import graphs as graphs_module
from wr1.errors import MissingRatesError
from wr1.graphs import (
    EGraph,
    deficiency,
    kernel_support_check,
    kirchhoff_matrix,
    linkage_classes,
    mass_action_rhs,
    net_reaction_vectors,
    stoich_dim,
    strong_components,
    structure_report,
)
from wr1.ingest import decompose, parse_system
from wr1.linalg import RationalMatrix, RationalVector, rank
from wr1.realize import realize_wr1

from .conftest import (
    CYCLE3_TEXT,
    CYCLE4_TEXT,
    COMPLETE3_TEXT,
    autocatalytic_closure_graph,
    two_terminal_graph,
    unit_cycle3_graph,
)
from .oracles import (
    net_vectors_direct,
    random_rated_digraph,
    random_wr1_graph,
    random_wr_graph,
    reference_deficiency_from_net_vectors,
    reference_reaction_vectors,
    reference_weakly_reversible,
)

F = Fraction


# ---------------------------------------------------------------------------
# construction invariants


def test_egraph_rejects_self_loop():
    with pytest.raises(ValueError):
        EGraph(vertices=((0,), (1,)), edges=((0, 0),))


def test_egraph_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        EGraph(vertices=((0,), (1,), (2,)), edges=((0, 1),))


def test_egraph_rejects_duplicate_vertex():
    with pytest.raises(ValueError):
        EGraph(vertices=((0,), (0,)), edges=((0, 1),))


def test_egraph_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        EGraph(vertices=((0,), (1,)), edges=((0, 1),), rates={(0, 1): F(0)})


def test_egraph_rejects_partial_rate_map():
    with pytest.raises(ValueError):
        EGraph(
            vertices=((0,), (1,)),
            edges=((0, 1), (1, 0)),
            rates={(0, 1): F(1)},
        )


# ---------------------------------------------------------------------------
# connectivity


def test_linkage_classes_two_and_one():
    assert linkage_classes(two_terminal_graph()) == ((0, 1), (2, 3, 4, 5))
    assert linkage_classes(unit_cycle3_graph()) == ((0, 1, 2),)
    single_edge = EGraph(vertices=((0,), (1,)), edges=((0, 1),))
    assert linkage_classes(single_edge) == ((0, 1),)


def test_strong_components_and_terminal_flags():
    components, terminal = strong_components(two_terminal_graph())
    assert components == ((0, 1), (2, 3), (4, 5))
    assert terminal == (True, False, True)
    assert structure_report(two_terminal_graph()).terminal_components == ((0, 1), (4, 5))


def test_strong_components_of_cycle():
    components, terminal = strong_components(unit_cycle3_graph())
    assert components == ((0, 1, 2),)
    assert terminal == (True,)


def test_strong_components_of_single_edge():
    graph = EGraph(vertices=((0,), (1,)), edges=((0, 1),))
    components, terminal = strong_components(graph)
    assert components == ((0,), (1,))
    assert terminal == (False, True)


def test_weak_reversibility():
    assert structure_report(unit_cycle3_graph()).weakly_reversible
    assert not structure_report(two_terminal_graph()).weakly_reversible
    two_cycle = EGraph(vertices=((0,), (1,)), edges=((0, 1), (1, 0)))
    assert structure_report(two_cycle).weakly_reversible


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((random_rated_digraph, random_wr1_graph, random_wr_graph)), st.integers(0, 2**32))
def test_weak_reversibility_matches_reachability(generator, seed):
    # random_rated_digraph mostly draws graphs that are not weakly reversible
    graph = generator(Random(seed))
    assert structure_report(graph).weakly_reversible == reference_weakly_reversible(graph)


def test_weak_reversibility_matches_reachability_on_seeded_sweep():
    rng = Random(23)
    answers = set()
    for _ in range(60):
        graph = random_rated_digraph(rng)
        weakly_reversible = structure_report(graph).weakly_reversible
        assert weakly_reversible == reference_weakly_reversible(graph)
        answers.add(weakly_reversible)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# stoichiometry and deficiency


def test_stoich_dim():
    for graph, expected in ((two_terminal_graph(), 2), (unit_cycle3_graph(), 2)):
        assert stoich_dim(graph, linkage_classes(graph)) == expected
    pair = EGraph(vertices=((0, 0), (1, 0)), edges=((0, 1), (1, 0)))
    assert stoich_dim(pair, linkage_classes(pair)) == 1


def test_linkage_classes_run_once_per_structural_call(monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return linkage_classes(graph)

    monkeypatch.setattr(graphs_module, "linkage_classes", counted)
    graph = two_terminal_graph()
    assert deficiency(graph) == 2
    assert len(calls) == 1
    assert structure_report(graph).deficiency == 2
    assert len(calls) == 2


@settings(max_examples=90, deadline=None)
@given(st.sampled_from((random_rated_digraph, random_wr1_graph, random_wr_graph)), st.integers(0, 2**32))
def test_stoich_dim_equals_rank_of_edge_vectors(generator, seed):
    # vertex differences within each linkage class span what the edge vectors
    # span; random_wr_graph draws one to three classes
    graph = generator(Random(seed))
    assert stoich_dim(graph, linkage_classes(graph)) == rank(reference_reaction_vectors(graph))


def test_deficiency_fixtures():
    assert deficiency(two_terminal_graph()) == 2
    assert deficiency(unit_cycle3_graph()) == 0
    closure = autocatalytic_closure_graph()
    assert deficiency(closure) == 3
    assert structure_report(closure).weakly_reversible
    assert len(linkage_classes(closure)) == 1


def test_deficiency_from_net_vectors_matches_realizations():
    for text, expected in ((CYCLE3_TEXT, 0), (CYCLE4_TEXT, 1), (COMPLETE3_TEXT, 1)):
        dec = decompose(parse_system(text))
        assert reference_deficiency_from_net_vectors(dec) == expected
        report = realize_wr1(dec)
        assert report.realized
        assert deficiency(report.realization.graph) == expected


# ---------------------------------------------------------------------------
# rated-graph operations


def test_kirchhoff_matrix_two_cycle():
    graph = EGraph(
        vertices=((0,), (1,)),
        edges=((0, 1), (1, 0)),
        rates={(0, 1): F(2, 3), (1, 0): F(5)},
    )
    assert kirchhoff_matrix(graph) == RationalMatrix.from_rows(
        [[F(-2, 3), F(5)], [F(2, 3), F(-5)]]
    )


def test_kirchhoff_matrix_two_terminal_pattern():
    rates = {
        (0, 1): F(2),
        (1, 0): F(3),
        (2, 3): F(5),
        (3, 2): F(7),
        (3, 4): F(1, 2),
        (4, 5): F(11),
        (5, 4): F(1, 3),
    }
    expected = RationalMatrix.from_rows(
        [
            [-2, 3, 0, 0, 0, 0],
            [2, -3, 0, 0, 0, 0],
            [0, 0, -5, 7, 0, 0],
            [0, 0, 5, F(-15, 2), 0, 0],
            [0, 0, 0, F(1, 2), -11, F(1, 3)],
            [0, 0, 0, 0, 11, F(-1, 3)],
        ]
    )
    assert kirchhoff_matrix(two_terminal_graph(rates)) == expected


def test_kirchhoff_requires_rates():
    bare = EGraph(vertices=((0,), (1,)), edges=((0, 1),))
    with pytest.raises(MissingRatesError):
        kirchhoff_matrix(bare)
    with pytest.raises(MissingRatesError):
        net_reaction_vectors(bare)
    with pytest.raises(MissingRatesError):
        mass_action_rhs(bare, [F(1)])


def test_net_reaction_vectors_recovers_input():
    dec = decompose(parse_system(CYCLE3_TEXT))
    graph = realize_wr1(dec).realization.graph
    assert net_reaction_vectors(graph) == dec.net_vectors


def test_net_reaction_vectors_balanced_vertex_is_zero_column():
    graph = EGraph(
        vertices=((0,), (1,), (2,)),
        edges=((1, 0), (1, 2), (0, 1), (2, 1)),
        rates={(1, 0): F(3), (1, 2): F(3), (0, 1): F(1), (2, 1): F(1)},
    )
    net = net_reaction_vectors(graph)
    assert net.column(1).is_zero()
    assert net.column(0) == RationalVector.of([1])
    assert net.column(2) == RationalVector.of([-1])


def test_net_reaction_vectors_match_direct_summation():
    rng = Random(11)
    for _ in range(30):
        graph = random_rated_digraph(rng)
        produced = net_reaction_vectors(graph)
        for i, expected in enumerate(net_vectors_direct(graph)):
            assert produced.column(i) == expected


def test_mass_action_rhs_steady_state_of_unit_cycle():
    graph = unit_cycle3_graph()
    assert mass_action_rhs(graph, [F(1), F(1)]).is_zero()
    value = mass_action_rhs(graph, [F(2), F(1)])
    # monomials x, x^2, x^2 y at (2, 1) weighted by the cycle displacements
    expected = RationalVector.of([2 * 1 + 4 * 0 + 4 * (-1), 2 * 0 + 4 * 1 + 4 * (-1)])
    assert value == expected


def test_mass_action_rhs_equals_decomposition_evaluation():
    rng = Random(13)
    dec = decompose(parse_system(CYCLE4_TEXT))
    graph = realize_wr1(dec).realization.graph
    for _ in range(10):
        point = [F(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
        assert mass_action_rhs(graph, point) == dec.rhs_at(point)


def test_mass_action_rhs_requires_positive_point():
    with pytest.raises(ValueError):
        mass_action_rhs(unit_cycle3_graph(), [F(1), F(0)])


# ---------------------------------------------------------------------------
# kernel/terminal-component correspondence


def test_kernel_support_check_two_terminal():
    check = kernel_support_check(two_terminal_graph())
    assert check.kernel_dimension == 2
    assert check.terminal == ((0, 1), (4, 5))
    assert check.ok
    assert [v.support() for v in check.basis] == [(0, 1), (4, 5)]
    for vec in check.basis:
        assert all(vec[i] > 0 for i in vec.support())


def test_kernel_support_check_random_graphs():
    rng = Random(17)
    for _ in range(40):
        graph = random_rated_digraph(rng)
        check = kernel_support_check(graph)
        assert check.ok, (graph.edges, check)
        assert sorted(v.support() for v in check.basis) == sorted(check.terminal)


def test_rank_of_net_vectors_equals_stoich_dim_for_wr():
    rng = Random(19)
    for _ in range(40):
        graph = random_wr_graph(rng)
        assert structure_report(graph).weakly_reversible
        assert rank(net_reaction_vectors(graph)) == stoich_dim(graph, linkage_classes(graph))


def test_structure_report_consistency():
    report = structure_report(two_terminal_graph())
    assert report.linkage_classes == ((0, 1), (2, 3, 4, 5))
    assert report.strong_components == ((0, 1), (2, 3), (4, 5))
    assert report.terminal_components == ((0, 1), (4, 5))
    assert not report.weakly_reversible
    assert report.stoich_dimension == 2
    assert report.deficiency == 2
