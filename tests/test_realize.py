from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wr1.realize
from wr1.errors import InternalInvariantViolation
from wr1.graphs import EGraph, net_reaction_vectors, structure_report
from wr1.ingest import SourceDecomposition, decompose, parse_system
from wr1.linalg import RationalMatrix, RationalVector
from wr1.realize import (
    Failure,
    FailureKind,
    RealizationReport,
    SupportProfile,
    assert_maximal_supports,
    average_witnesses,
    build_kirchhoff,
    decide_wr1,
    displacement_matrix,
    extract_rates,
    realize_wr1,
    saturate_support,
)

from .oracles import (
    as_vector,
    as_witness,
    decomposition_of_dynamics,
    net_vectors_direct,
    oracle_positive_component,
    random_decomposition,
    random_rated_digraph,
    random_wr1_graph,
    reference_average_witnesses,
    reference_saturate_support,
    wr1_realizable_bruteforce,
)
from .test_simplex import check_cone_point

F = Fraction


def check_profile(dec, profile):
    """Each witness ``(numerators, den)`` solves ``D_i numerators = den w_i`` in nonnegative integers.

    The union of the witnesses' supports, their nonzero numerators, is the
    profile's support.
    """
    matrix = displacement_matrix(dec, profile.vertex)
    target = dec.net_vector(profile.vertex)
    assert profile.vertex in profile.support
    union = set()
    for numerators, den in profile.witnesses:
        assert den > 0 and all(e >= 0 for e in numerators)
        assert [sum(a * e for a, e in zip(row, numerators)) for row in matrix.entries] == [den * t for t in target]
        union |= {k for k, e in enumerate(numerators) if e}
    assert tuple(sorted(union)) == profile.support


# ---------------------------------------------------------------------------
# displacement matrices


def test_displacement_matrix_first_vertex(cycle3_dec):
    assert displacement_matrix(cycle3_dec, 0) == RationalMatrix.from_rows(
        [[0, 1, 1], [0, 0, 1]]
    )


def test_displacement_matrix_in_given_column_order():
    # columns ordered as supplied, not sorted: (1,0), (2,0), (2,1), (1,1)
    dec = SourceDecomposition(
        species=("x", "y"),
        vertices=((1, 0), (2, 0), (2, 1), (1, 1)),
        net_vectors=RationalMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]]),
    )
    assert displacement_matrix(dec, 3) == RationalMatrix.from_rows(
        [[0, 1, 1, 0], [-1, -1, 0, 0]]
    )


def test_displacement_matrix_own_column_is_zero(cycle4_dec):
    for i in range(cycle4_dec.m):
        assert displacement_matrix(cycle4_dec, i).column(i).is_zero()


# ---------------------------------------------------------------------------
# support saturation


def test_saturate_support_no_growth(cycle3_dec):
    profile = saturate_support(cycle3_dec, 0)
    assert profile.support == (0, 1)
    assert len(profile.witnesses) == 1
    numerators, den = profile.witnesses[0]
    assert numerators[0] == den  # own coordinate forced to one
    check_profile(cycle3_dec, profile)


def test_saturate_support_grows_to_full(complete3_dec):
    profile = saturate_support(complete3_dec, 1)
    assert profile.support == (0, 1, 2)
    assert len(profile.witnesses) == 2
    check_profile(complete3_dec, profile)


def test_saturate_support_infeasible(unrealizable_dec):
    assert saturate_support(unrealizable_dec, 0) is None


def permuted(dec, perm):
    """The same dynamics with vertex k of the result being vertex perm[k] of dec."""
    columns = [dec.net_vector(old).entries for old in perm]
    return SourceDecomposition(
        dec.species, tuple(dec.vertices[old] for old in perm), RationalMatrix.from_columns(columns, rows=dec.n)
    )


def assert_supports_permute(dec, perm):
    """Saturating the permuted decomposition gives the permuted supports."""
    moved = permuted(dec, perm)
    new_index = {old: new for new, old in enumerate(perm)}
    for new, old in enumerate(perm):
        original, profile = saturate_support(dec, old), saturate_support(moved, new)
        if original is None:
            assert profile is None
            continue
        assert profile.support == tuple(sorted(new_index[j] for j in original.support))
        check_profile(moved, profile)


def test_saturate_support_order_independent(cycle4_dec, complete3_dec):
    # the scan runs in index order, so relabelling the vertices reorders it
    for dec in (cycle4_dec, complete3_dec):
        assert_supports_permute(dec, range(dec.m - 1, -1, -1))
        assert_supports_permute(dec, [*range(1, dec.m), 0])


GENERATORS = {
    "decomposition": lambda rng: random_decomposition(rng, max_n=3, max_m=5),
    "wr1-graph": lambda rng: decomposition_of_dynamics(random_wr1_graph(rng, max_n=3, max_m=6)),
    "rated-digraph": lambda rng: decomposition_of_dynamics(random_rated_digraph(rng, max_m=6)),
}


def assert_supports_match_reference(dec):
    """Same supports and infeasible vertices as one capped LP per column; count of the latter."""
    infeasible = 0
    for i in range(dec.m):
        profile = saturate_support(dec, i)
        reference = reference_saturate_support(dec, i)
        if reference is None:
            assert profile is None
            infeasible += 1
            continue
        support, witnesses = reference
        assert profile.support == support
        assert as_vector(*profile.witnesses[0]) == witnesses[0]  # the phase-1 point is unchanged
        check_profile(dec, profile)
    return infeasible


def test_supports_match_capped_reference_on_seeded_sweep():
    rng = Random(41)
    infeasible = 0
    for make in GENERATORS.values():
        for _ in range(25):
            dec = make(rng)
            infeasible += assert_supports_match_reference(dec)
            assert_supports_match_reference(permuted(dec, range(dec.m - 1, -1, -1)))
    assert infeasible > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32), st.booleans())
def test_supports_match_capped_reference(generator, seed, reverse):
    dec = GENERATORS[generator](Random(seed))
    assert_supports_match_reference(permuted(dec, range(dec.m - 1, -1, -1)) if reverse else dec)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_permuting_vertices_permutes_supports(generator, seed, rng):
    dec = GENERATORS[generator](Random(seed))
    perm = list(range(dec.m))
    rng.shuffle(perm)
    assert_supports_permute(dec, perm)


def test_integer_witnesses_on_seeded_sweep():
    # every stored witness is an exact nonnegative integer solution over a
    # positive denominator, the supports add up to the maximal support the
    # enumeration oracle finds, and the average over the lcm of the
    # denominators solves the same system
    rng = Random(47)
    multi_denominator = 0
    for make in GENERATORS.values():
        for _ in range(10):
            dec = make(rng)
            for i in range(dec.m):
                profile = saturate_support(dec, i)
                if profile is None:
                    continue
                check_profile(dec, profile)
                matrix, target = displacement_matrix(dec, i), dec.net_vector(i)
                reachable = tuple(j for j in range(dec.m) if oracle_positive_component(matrix, target, j))
                assert profile.support == reachable
                totals, scale = average_witnesses(profile)
                assert [sum(a * t for a, t in zip(row, totals)) for row in matrix.entries] == [scale * t for t in target]
                assert all(totals[j] > 0 for j in profile.support)
                multi_denominator += len({den for _, den in profile.witnesses}) > 1
    assert multi_denominator > 0


def test_cone_point_on_seeded_sweep():
    # D_i x = w_i exactly, x >= 0, positive on exactly the predicted columns
    rng = Random(43)
    blocked = raised = 0
    for make in GENERATORS.values():
        for _ in range(25):
            dec = make(rng)
            for i in range(dec.m):
                counts = check_cone_point(displacement_matrix(dec, i), dec.net_vector(i))
                blocked, raised = blocked + counts[0], raised + counts[1]
    assert blocked > 0 and raised > 0


def test_nondegenerate_vertices_need_no_positive_search(complete3_dec, monkeypatch):
    # every phase-1 basis of x' = x + x^2 - x^3 is nondegenerate: the cone
    # step alone reaches the complete support of each vertex
    searched = []
    search = wr1.realize.lp_maximize_component

    def counting(matrix, rhs, j, *, start):
        searched.append(j)
        return search(matrix, rhs, j, start=start)

    monkeypatch.setattr(wr1.realize, "lp_maximize_component", counting)
    for i in range(complete3_dec.m):
        tableau = wr1.realize.lp_feasible(displacement_matrix(complete3_dec, i), complete3_dec.net_vector(i))
        assert all(row[-1] > 0 for row in tableau.rows)
        profile = saturate_support(complete3_dec, i)
        assert profile.support == (0, 1, 2)
        check_profile(complete3_dec, profile)
    assert searched == []


def decision_and_supports(dec):
    """The failure (None when realized) and each vertex's maximal support (None when infeasible)."""
    profiles = [saturate_support(dec, i) for i in range(dec.m)]
    return realize_wr1(dec).failure, [None if p is None else p.support for p in profiles]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32), st.data())
def test_shifting_every_vertex_keeps_decision_and_supports(generator, seed, data):
    # the displacement columns y_k - y_i do not see a common shift
    dec = GENERATORS[generator](Random(seed))
    shift = data.draw(st.tuples(*[st.integers(0, 4)] * dec.n))
    moved = SourceDecomposition(
        dec.species, tuple(tuple(a + b for a, b in zip(v, shift)) for v in dec.vertices), dec.net_vectors
    )
    assert decision_and_supports(moved) == decision_and_supports(dec)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_permuting_species_keeps_decision_and_supports(generator, seed, rng):
    # the rows of every D_i v = w_i are reordered together: same feasible sets
    dec = GENERATORS[generator](Random(seed))
    perm = list(range(dec.n))
    rng.shuffle(perm)
    moved = SourceDecomposition(
        tuple(dec.species[old] for old in perm),
        tuple(tuple(v[old] for old in perm) for v in dec.vertices),
        RationalMatrix.from_rows([dec.net_vectors.entries[old] for old in perm]),
    )
    assert decision_and_supports(moved) == decision_and_supports(dec)


_SCALES = st.fractions(F(1, 40), 40, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32), _SCALES)
def test_scaling_net_vectors_keeps_decision_and_supports(generator, seed, scale):
    # D_i v = s w_i exactly when D_i (v / s) = w_i: the feasible sets scale.
    # The rates need not scale by s, since a ray exit adds one unit whatever
    # the size of w; but the scaled system's rates over s must realize the
    # original one.
    dec = GENERATORS[generator](Random(seed))
    rows = [[scale * e for e in row] for row in dec.net_vectors.entries]
    scaled = SourceDecomposition(dec.species, dec.vertices, RationalMatrix.from_rows(rows))
    assert decision_and_supports(scaled) == decision_and_supports(dec)
    report = realize_wr1(scaled)
    if report.realized:
        rates = {edge: rate / scale for edge, rate in report.realization.graph.rates.items()}
        assert all(rate > 0 for rate in rates.values())
        graph = EGraph(vertices=dec.vertices, edges=tuple(rates), rates=rates)
        assert net_vectors_direct(graph) == [dec.net_vector(i) for i in range(dec.m)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_graphs_with_a_balanced_vertex_match_bruteforce(seed):
    # the balanced vertex's monomial drops out of the dynamics, so the
    # realization is sought on the remaining vertices
    graph = random_wr1_graph(Random(seed), max_n=2, max_m=5, balanced=True)
    dec = decomposition_of_dynamics(graph)
    assert dec.m < graph.m
    assert realize_wr1(dec).realized == wr1_realizable_bruteforce(dec)


# ---------------------------------------------------------------------------
# Kirchhoff construction and the kernel decision


def test_build_kirchhoff_cycle(cycle3_dec):
    profiles = [saturate_support(cycle3_dec, i) for i in range(3)]
    assert build_kirchhoff(profiles) == RationalMatrix.from_rows(
        [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    )


def test_build_kirchhoff_complete(complete3_dec):
    profiles = [saturate_support(complete3_dec, i) for i in range(3)]
    assert build_kirchhoff(profiles) == RationalMatrix.from_rows(
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
    )


def test_build_kirchhoff_single_vertex_is_zero():
    profile = SupportProfile(vertex=0, support=(0,), witnesses=(as_witness([1]),))
    assert build_kirchhoff([profile]) == RationalMatrix.from_rows([[0]])


def test_build_kirchhoff_needs_every_vertex():
    profile = SupportProfile(vertex=1, support=(1,), witnesses=(as_witness([0, 1]),))
    with pytest.raises(ValueError):
        build_kirchhoff([profile])


def test_decide_wr1_accepts_cycle(cycle3_dec):
    q = build_kirchhoff([saturate_support(cycle3_dec, i) for i in range(3)])
    assert decide_wr1(q) is None


def test_decide_wr1_rejects_two_disjoint_cycles():
    # supports pair {0,1} and {2,3} into two reversible blocks
    profiles = [
        SupportProfile(0, (0, 1), (as_witness([1, 1, 0, 0]),)),
        SupportProfile(1, (0, 1), (as_witness([1, 1, 0, 0]),)),
        SupportProfile(2, (2, 3), (as_witness([0, 0, 1, 1]),)),
        SupportProfile(3, (2, 3), (as_witness([0, 0, 1, 1]),)),
    ]
    failure = decide_wr1(build_kirchhoff(profiles))
    assert failure.kind is FailureKind.KERNEL_DIMENSION
    assert failure.kernel_dimension == 2


def test_decide_wr1_rejects_sink_vertex():
    # vertex 0 keeps all mass on itself; its kernel line misses vertex 1
    profiles = [
        SupportProfile(0, (0,), (as_witness([1, 0]),)),
        SupportProfile(1, (0, 1), (as_witness([1, 1]),)),
    ]
    failure = decide_wr1(build_kirchhoff(profiles))
    assert failure.kind is FailureKind.KERNEL_SUPPORT
    assert failure.missing == (1,)


# ---------------------------------------------------------------------------
# rate extraction


def averaged(profile):
    """The witness average as Fractions, built from its integer numerators and their scale."""
    totals, scale = average_witnesses(profile)
    return RationalVector(tuple(F(total, scale) for total in totals))


def test_extract_rates_single_witness(cycle3_dec):
    profiles = [saturate_support(cycle3_dec, i) for i in range(3)]
    assert extract_rates(cycle3_dec, profiles) == {(0, 1): F(1), (1, 2): F(1), (2, 0): F(1)}
    assert averaged(profiles[0]) == reference_average_witnesses(profiles[0]) == RationalVector.of([1, 1, 0])


def test_extract_rates_averages_witnesses():
    dec = SourceDecomposition(
        species=("x",),
        vertices=((1,), (2,), (3,)),
        net_vectors=RationalMatrix.from_rows([[1, 1, -1]]),
    )
    profile = SupportProfile(
        vertex=0,
        support=(0, 1, 2),
        witnesses=(as_witness([1, 1, 0]), as_witness([1, 0, "1/2"])),
    )
    assert averaged(profile) == reference_average_witnesses(profile) == RationalVector.of([1, "1/2", "1/4"])
    rates = extract_rates(dec, [profile] + _padding_profiles(dec))
    assert rates[(0, 1)] == F(1, 2)
    assert rates[(0, 2)] == F(1, 4)
    # reconstruction: 1/2 * (2-1) + 1/4 * (3-1) = 1
    assert F(1, 2) * 1 + F(1, 4) * 2 == dec.net_vector(0)[0]


_ENTRIES = st.sampled_from([F(0), F(7), F(1, 6), F(2, 15), F(3, 4), F(5, 9), F(11, 10)])


def _unreduced(values, factor):
    """``values`` as a witness whose numerators and denominator share ``factor``, as the tableau's may."""
    numerators, den = as_witness(values)
    return tuple(e * factor for e in numerators), den * factor


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(st.tuples(st.lists(_ENTRIES, min_size=m, max_size=m), st.integers(1, 4)), min_size=1, max_size=6)
    )
)
def test_average_witnesses_matches_fraction_sum(witnesses):
    # mixed denominators make the common denominator differ from every single
    # one, and common factors leave some witnesses unreduced
    profile = SupportProfile(0, (0,), tuple(_unreduced(w, factor) for w, factor in witnesses))
    assert averaged(profile) == reference_average_witnesses(profile)


def _padding_profiles(dec):
    # feasible profiles for the remaining vertices, only to satisfy extract_rates
    return [saturate_support(dec, i) for i in range(1, dec.m)]


def test_extract_rates_skips_self_only_support():
    dec = SourceDecomposition(
        species=("x",),
        vertices=((0,), (1,)),
        net_vectors=RationalMatrix.from_rows([[1, 0]]),
    )
    profiles = [
        SupportProfile(0, (0, 1), (as_witness([1, 1]),)),
        SupportProfile(1, (1,), (as_witness([0, 1]),)),
    ]
    assert extract_rates(dec, profiles) == {(0, 1): F(1)}


def test_extract_rates_detects_bad_reconstruction():
    dec = SourceDecomposition(
        species=("x",),
        vertices=((0,), (1,)),
        net_vectors=RationalMatrix.from_rows([[2, -1]]),
    )
    wrong = [
        SupportProfile(0, (0, 1), (as_witness([1, 1]),)),  # gives 1, not 2
        SupportProfile(1, (0, 1), (as_witness([1, 1]),)),
    ]
    with pytest.raises(InternalInvariantViolation):
        extract_rates(dec, wrong)

    # rates 1/2 and 1/3 at vertex 0 reproduce 7/6 exactly over their common
    # denominator 6; a net vector of 1 is off by 1/6
    def mixed(net):
        dec = SourceDecomposition(
            species=("x",),
            vertices=((0,), (1,), (2,)),
            net_vectors=RationalMatrix.from_rows([[net, -1, -1]]),
        )
        profiles = [
            SupportProfile(0, (0, 1, 2), (as_witness([1, "1/2", "1/3"]),)),
            SupportProfile(1, (0, 1), (as_witness([1, 1, 0]),)),
            SupportProfile(2, (0, 2), (as_witness(["1/2", 0, 1]),)),
        ]
        return dec, profiles

    assert extract_rates(*mixed("7/6")) == {(0, 1): F(1, 2), (0, 2): F(1, 3), (1, 0): F(1), (2, 0): F(1, 2)}
    with pytest.raises(InternalInvariantViolation, match="rates at vertex 0 do not reproduce"):
        extract_rates(*mixed(1))


# ---------------------------------------------------------------------------
# the full pipeline


def test_realize_cycle3(cycle3_dec):
    report = realize_wr1(cycle3_dec)
    assert report.realized
    graph = report.realization.graph
    assert graph.edges == ((0, 1), (1, 2), (2, 0))
    structure = structure_report(graph)
    assert structure.weakly_reversible
    assert len(structure.linkage_classes) == 1
    assert net_reaction_vectors(graph) == cycle3_dec.net_vectors


def test_realize_cycle4(cycle4_dec):
    report = realize_wr1(cycle4_dec)
    assert report.realized
    assert report.realization.graph.edges == ((0, 2), (1, 0), (2, 3), (3, 1))


def test_realize_complete3(complete3_dec):
    report = realize_wr1(complete3_dec)
    assert report.realized
    graph = report.realization.graph
    assert graph.edges == tuple(sorted((i, j) for i in range(3) for j in range(3) if i != j))


def test_realize_unrealizable(unrealizable_dec):
    report = realize_wr1(unrealizable_dec)
    assert not report.realized
    assert report.failure.kind is FailureKind.INFEASIBLE_VERTEX
    assert report.failure.vertex == 0
    assert unrealizable_dec.vertices[0] == (1, 0)


def test_realize_single_vertex_zero_net():
    dec = SourceDecomposition(
        species=("x",),
        vertices=((2,),),
        net_vectors=RationalMatrix.from_rows([[0]]),
    )
    report = realize_wr1(dec)
    assert report.failure.kind is FailureKind.SINGLE_VERTEX


def test_realize_single_vertex_nonzero_net():
    dec = SourceDecomposition(
        species=("x",),
        vertices=((2,),),
        net_vectors=RationalMatrix.from_rows([[1]]),
    )
    report = realize_wr1(dec)
    assert report.failure.kind is FailureKind.INFEASIBLE_VERTEX


def test_realize_balanced_vertex_uses_cycles():
    # net vector zero at the middle of three collinear vertices is realizable
    # by a balanced pair of opposite edges
    dec = SourceDecomposition(
        species=("x",),
        vertices=((0,), (1,), (2,)),
        net_vectors=RationalMatrix.from_rows([[1, 0, -1]]),
    )
    report = realize_wr1(dec)
    assert report.realized
    produced = net_reaction_vectors(report.realization.graph)
    assert produced == dec.net_vectors


def test_report_carries_exactly_one_outcome():
    with pytest.raises(ValueError):
        RealizationReport()
    with pytest.raises(ValueError):
        RealizationReport(
            realization="nonsense",  # type: ignore[arg-type]
            failure=Failure(kind=FailureKind.SINGLE_VERTEX),
        )


def test_maximality_assertions_pass_on_realized(cycle3_dec, cycle4_dec, complete3_dec):
    for dec in (cycle3_dec, cycle4_dec, complete3_dec):
        report = realize_wr1(dec)
        assert_maximal_supports(dec, report.realization.profiles)


def test_maximality_assertion_rejects_pruned_support(complete3_dec):
    report = realize_wr1(complete3_dec)
    full = report.realization.profiles[0]
    pruned = SupportProfile(vertex=0, support=(0, 1), witnesses=full.witnesses[:1])
    with pytest.raises(InternalInvariantViolation):
        assert_maximal_supports(complete3_dec, [pruned])


def test_round_trip_random_wr1_graphs():
    rng = Random(23)
    for _ in range(20):
        graph = random_wr1_graph(rng, max_n=3, max_m=5)
        dec = decomposition_of_dynamics(graph)
        assert dec.m == graph.m
        report = realize_wr1(dec)
        assert report.realized
        produced = report.realization.graph
        index = {v: k for k, v in enumerate(dec.vertices)}
        relabeled = {(index[graph.vertices[s]], index[graph.vertices[t]]) for s, t in graph.edges}
        assert relabeled <= set(produced.edges)
        assert net_reaction_vectors(produced) == dec.net_vectors


def test_failures_confirmed_by_bruteforce():
    rng = Random(29)
    confirmed = 0
    while confirmed < 10:
        dec = random_decomposition(rng)
        if realize_wr1(dec).realized:
            continue
        assert not wr1_realizable_bruteforce(dec)
        confirmed += 1


def test_successes_confirmed_by_bruteforce():
    rng = Random(31)
    confirmed = 0
    while confirmed < 10:
        dec = random_decomposition(rng, max_m=3)
        if not realize_wr1(dec).realized:
            continue
        assert wr1_realizable_bruteforce(dec)
        confirmed += 1
