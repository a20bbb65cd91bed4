"""Construction of weakly reversible single-linkage-class realizations.

Given source vertices y_1..y_m with net reaction vectors w_1..w_m (so the
dynamics is ``xdot = sum_i x^{y_i} w_i``), the engine decides whether some
weakly reversible network on exactly these vertices, connected as a single
linkage class, generates the dynamics, and builds the maximal one when it
does:

1. per vertex i, find a nonnegative solution v of ``D_i v = w_i`` where
   column k of ``D_i`` is ``y_k - y_i`` (infeasibility here already rules
   out every realization);
2. grow the support set of vertex i from the feasible tableau of step 1.
   First one cone step, with no pivot: a small step from the phase-1 basis
   along the sum of every nonbasic direction that keeps ``v >= 0`` gives a
   witness positive on every positive basic and every such column, which at
   a nondegenerate basis is the whole support.  Then, for each coordinate j
   still not covered, ask that one tableau for a feasible point with
   ``x_j > 0`` (phase 2 on ``x_j`` from the basis the previous coordinate
   left, stopping at the first such point) and keep it as a witness; a zero
   optimum proves that no solution reaches j.  The union of the witness
   supports is the largest support any solution can have, found with one
   phase 1 and one chained tableau per vertex;
3. form the unit Kirchhoff matrix of the support pattern and accept exactly
   when its kernel is one-dimensional with full support, which makes the
   support graph strongly connected as a single component;
4. average the witnesses per vertex (the step-1 point, the cone point and
   each early-exit witness of step 2) to obtain rate constants that are
   strictly positive on the support and reproduce each net vector exactly.
   One integer sum over the lcm of the witnesses' denominators gives the
   rates, the positivity check and the check that the rates reproduce the
   net vector, so a returned rate map already proves that the dynamics
   match.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Sequence

from .errors import InternalInvariantViolation
from .graphs import EGraph
from .ingest import SourceDecomposition
from .linalg import ONE, ZERO, RationalMatrix, RationalVector, kernel_basis
# every LP question goes through these two names, which perfbench/tracing.py wraps in this module
from .simplex import lp_feasible, lp_maximize_component


@dataclass(frozen=True)
class SupportProfile:
    """Maximal support of one vertex, with the witnesses that produced it.

    Every witness v satisfies ``D_i v = w_i`` with ``v >= 0``; the support is
    the union of the witness supports and always contains the vertex itself
    (the first witness has its own coordinate forced to 1, which is harmless
    because column i of ``D_i`` is zero).
    """

    vertex: int
    support: tuple[int, ...]
    witnesses: tuple[RationalVector, ...]


class FailureKind(enum.Enum):
    INFEASIBLE_VERTEX = "infeasible-vertex"
    KERNEL_DIMENSION = "kernel-dimension"
    KERNEL_SUPPORT = "kernel-support"
    SINGLE_VERTEX = "single-vertex"


@dataclass(frozen=True)
class Failure:
    """Structured reason why no realization exists."""

    kind: FailureKind
    vertex: int | None = None
    kernel_dimension: int | None = None
    missing: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.kind is FailureKind.INFEASIBLE_VERTEX:
            return f"net vector of vertex {self.vertex} is not a nonnegative combination of its displacement columns"
        if self.kind is FailureKind.KERNEL_DIMENSION:
            return f"support Kirchhoff kernel has dimension {self.kernel_dimension}, not 1"
        if self.kind is FailureKind.KERNEL_SUPPORT:
            return f"support Kirchhoff kernel vanishes on vertices {list(self.missing)}"
        return "a single vertex with zero net vector admits no edges"


@dataclass(frozen=True)
class Realization:
    """A weakly reversible single-linkage-class network generating the input."""

    graph: EGraph
    profiles: tuple[SupportProfile, ...]


@dataclass(frozen=True)
class RealizationReport:
    """Either a realization or a structured failure, never both."""

    realization: Realization | None = None
    failure: Failure | None = None

    def __post_init__(self):
        if (self.realization is None) == (self.failure is None):
            raise ValueError("report must carry exactly one outcome")

    @property
    def realized(self) -> bool:
        return self.realization is not None


def displacement_matrix(decomposition: SourceDecomposition, i: int) -> RationalMatrix:
    """n-by-m matrix whose column k is vertex k minus vertex i (column i is zero).

    The entries are the integer exponent differences themselves, as ``int``:
    the simplex tableau reads them as integer rows with no conversion.
    """
    if not 0 <= i < decomposition.m:
        raise IndexError(f"vertex {i} out of range")
    base = decomposition.vertices[i]
    rows = tuple(
        tuple(vertex[axis] - base[axis] for vertex in decomposition.vertices)
        for axis in range(decomposition.n)
    )
    return RationalMatrix(decomposition.n, decomposition.m, rows)


def saturate_support(decomposition: SourceDecomposition, i: int) -> SupportProfile | None:
    """Maximal support of vertex i, or None when its net vector is infeasible.

    The witnesses are the phase-1 point, the cone point when it adds a
    column, and one positive point per column both of them miss, scanned in
    index order; the support set does not depend on that order (it is the
    unique maximal support), only the witnesses do.
    """
    matrix, target = displacement_matrix(decomposition, i), decomposition.net_vector(i)
    tableau = lp_feasible(matrix, target)
    if tableau is None:
        return None
    base = tableau.solution().with_entry(i, ONE)
    support = set(base.support())
    witnesses = [base]
    cone = tableau.cone_point()
    added = set(cone.support()) - support
    if added:
        witnesses.append(cone)
        support |= added
    for j in range(decomposition.m):
        if j in support:
            continue
        # one tableau for the whole vertex: each column starts where the last stopped
        witness = lp_maximize_component(matrix, target, j, start=tableau)
        if witness is not None:
            witnesses.append(witness)
            support.update(witness.support())
    return SupportProfile(vertex=i, support=tuple(sorted(support)), witnesses=tuple(witnesses))


def build_kirchhoff(profiles: Sequence[SupportProfile]) -> RationalMatrix:
    """Unit Kirchhoff matrix of the support pattern.

    Column i has a 1 in row j for every j in the support of vertex i other
    than i itself, and minus their count on the diagonal; a vertex supported
    only by itself contributes a zero column.
    """
    m = len(profiles)
    ordered = sorted(profiles, key=lambda p: p.vertex)
    if [p.vertex for p in ordered] != list(range(m)):
        raise ValueError("need exactly one profile per vertex")
    # written straight into rows, as displacement_matrix does: no per-entry conversion
    grid = [[ZERO] * m for _ in range(m)]
    for profile in ordered:
        i = profile.vertex
        degree = 0
        for j in profile.support:
            if j != i:
                grid[j][i] = ONE
                degree += 1
        grid[i][i] = Fraction(-degree)
    return RationalMatrix(m, m, tuple(tuple(row) for row in grid))


def decide_wr1(kirchhoff: RationalMatrix) -> Failure | None:
    """None when the kernel is one-dimensional with full support, else the obstruction.

    Full-support one-dimensional kernel means every vertex lies in one
    common terminal strong component, i.e. the support graph is weakly
    reversible with a single linkage class.
    """
    basis = kernel_basis(kirchhoff)
    if len(basis) != 1:
        return Failure(kind=FailureKind.KERNEL_DIMENSION, kernel_dimension=len(basis))
    support = basis[0].support()
    if len(support) != kirchhoff.cols:
        missing = tuple(sorted(set(range(kirchhoff.cols)) - set(support)))
        return Failure(kind=FailureKind.KERNEL_SUPPORT, missing=missing)
    return None


def average_witnesses(profile: SupportProfile) -> tuple[list[int], int]:
    """Equal-weight average of the stored witnesses, as ``(totals, scale)``.

    Entry k of the average is ``totals[k] / scale``: the numerators are summed
    in one pass over the lcm ``den`` of all the witnesses' denominators, and
    ``scale`` is ``den`` times the witness count.
    """
    witnesses = profile.witnesses
    den = reduce(lcm, {e.denominator for witness in witnesses for e in witness.entries}, 1)
    totals = [0] * witnesses[0].dim
    for witness in witnesses:
        for k, e in enumerate(witness.entries):
            if e:
                totals[k] += e.numerator * (den // e.denominator)
    return totals, den * len(witnesses)


def extract_rates(
    decomposition: SourceDecomposition, profiles: Sequence[SupportProfile]
) -> dict[tuple[int, int], Fraction]:
    """Edge rates from the averaged witnesses, checked to reproduce every net vector.

    The average of the witnesses solves the same linear system and is
    strictly positive on the whole support, so every emitted rate is
    positive; a zero rate or an inexact reconstruction is a bug, not an
    input condition.  Both checks and the rates come from the average's
    integers: ``sum totals_j * (y_j - y_i)`` must equal ``scale`` times the
    net vector, and the rate of edge i -> j is ``totals_j / scale``.
    """
    rates: dict[tuple[int, int], Fraction] = {}
    for profile in sorted(profiles, key=lambda p: p.vertex):
        i = profile.vertex
        totals, scale = average_witnesses(profile)
        base = decomposition.vertices[i]
        produced = [0] * decomposition.n
        for j in profile.support:
            if j == i:
                continue
            total = totals[j]
            if total <= 0:
                raise InternalInvariantViolation(
                    f"averaged witness of vertex {i} vanishes on supported column {j}"
                )
            rates[(i, j)] = Fraction(total, scale)
            other = decomposition.vertices[j]
            for axis in range(decomposition.n):
                produced[axis] += total * (other[axis] - base[axis])
        if any(got != entry * scale for got, entry in zip(produced, decomposition.net_vector(i))):
            raise InternalInvariantViolation(
                f"rates at vertex {i} do not reproduce its net vector"
            )
    return rates


def realize_wr1(decomposition: SourceDecomposition) -> RealizationReport:
    """Decide realizability on the given vertex set and build the maximal realization.

    Failures are structured: an infeasible vertex (no realization can match
    its net vector), a kernel obstruction of the saturated support pattern
    (the pattern is not strongly connected as one component), or the
    degenerate single-vertex case whose graph would have no edges.
    """
    profiles = []
    for i in range(decomposition.m):
        profile = saturate_support(decomposition, i)
        if profile is None:
            return RealizationReport(
                failure=Failure(kind=FailureKind.INFEASIBLE_VERTEX, vertex=i)
            )
        profiles.append(profile)
    if decomposition.m == 1:
        # feasible single vertex forces w = 0; a one-vertex graph cannot
        # carry edges, and edgeless graphs are excluded outright
        return RealizationReport(failure=Failure(kind=FailureKind.SINGLE_VERTEX, vertex=0))
    kirchhoff = build_kirchhoff(profiles)
    obstruction = decide_wr1(kirchhoff)
    if obstruction is not None:
        return RealizationReport(failure=obstruction)
    rates = extract_rates(decomposition, profiles)
    graph = EGraph(
        vertices=decomposition.vertices,
        edges=tuple(sorted(rates)),
        rates=rates,
    )
    return RealizationReport(
        realization=Realization(graph=graph, profiles=tuple(profiles))
    )


def assert_maximal_supports(
    decomposition: SourceDecomposition, profiles: Sequence[SupportProfile]
) -> None:
    """Check that no excluded coordinate admits mass; raises on violation.

    For every vertex i and every j outside its support, a search on a fresh
    tableau of the vertex's feasible set must prove ``x_j = 0`` there.
    """
    for profile in profiles:
        matrix = displacement_matrix(decomposition, profile.vertex)
        target = decomposition.net_vector(profile.vertex)
        excluded = set(range(decomposition.m)) - set(profile.support)
        for j in sorted(excluded):
            if lp_maximize_component(matrix, target, j, start=lp_feasible(matrix, target)) is not None:
                raise InternalInvariantViolation(
                    f"support of vertex {profile.vertex} misses attainable column {j}"
                )
