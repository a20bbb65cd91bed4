"""Answer checker for benchmark operations; it never calls the engine.

Realized answers are checked from first principles: every net vector is
recomputed by direct summation over the printed edges and rates, the printed
graph must be strongly connected, and it must contain every edge of the
generating graph (the maximal realization contains every realization).
Failures and verify results must match the outcome the generator predicted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from corpus import REALIZED, VERIFY_MISMATCH, VERIFY_OK, Case


@dataclass(frozen=True)
class Verdict:
    """Whether an answer is correct; ``reason`` says why not, ``edges`` counts the answer's edges."""

    ok: bool
    reason: str = ""
    edges: int | None = None


def _strongly_connected(m: int, edges: list[tuple[int, int]]) -> bool:
    forward = [[] for _ in range(m)]
    backward = [[] for _ in range(m)]
    for s, t in edges:
        forward[s].append(t)
        backward[t].append(s)

    def reaches_all(adjacency) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == m

    return reaches_all(forward) and reaches_all(backward)


def _check_realized(case: Case, doc: dict) -> Verdict:
    graph = doc.get("graph", {})
    if [tuple(v) for v in graph.get("vertices", [])] != list(case.vertices):
        return Verdict(False, "graph vertices differ from the input")
    edges = []
    totals = [[Fraction(0)] * case.n for _ in range(case.m)]
    for entry in graph.get("edges", []):
        s, t, rate = entry["from"], entry["to"], Fraction(entry["rate"])
        if rate <= 0 or s == t:
            return Verdict(False, f"edge {s}->{t} has rate {rate}")
        edges.append((s, t))
        for axis in range(case.n):
            totals[s][axis] += rate * (case.vertices[t][axis] - case.vertices[s][axis])
    if len(set(edges)) != len(edges):
        return Verdict(False, "repeated edge")
    if [tuple(row) for row in totals] != list(case.nets):
        return Verdict(False, "rates do not reproduce the net vectors")
    if not _strongly_connected(case.m, edges):
        return Verdict(False, "graph is not strongly connected")
    if not case.generating_edges <= set(edges):
        return Verdict(False, "graph misses a generating edge, so it is not maximal")
    return Verdict(True, edges=len(edges))


def _check_failure(case: Case, doc: dict) -> Verdict:
    expected = {"kind": case.kind}
    if case.failure_vertex is not None:
        expected["vertex"] = case.failure_vertex
        expected["vertex_vector"] = list(case.vertices[case.failure_vertex])
    if case.kernel_dimension is not None:
        expected["kernel_dimension"] = case.kernel_dimension
    if case.missing:
        expected["missing"] = list(case.missing)
    failure = {k: v for k, v in doc.get("failure", {}).items() if k != "message"}
    if failure != expected:
        return Verdict(False, f"failure {failure} != predicted {expected}")
    return Verdict(True)


def check_answer(case: Case, code: int | None, stdout: str) -> Verdict:
    """Compare one operation's exit code and JSON report with the prediction."""
    try:
        return _check(case, code, stdout)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, AttributeError) as exc:
        return Verdict(False, f"malformed answer: {exc!r}")


def _check(case: Case, code: int | None, stdout: str) -> Verdict:
    if case.kind in (VERIFY_OK, VERIFY_MISMATCH):
        matches = case.kind == VERIFY_OK
        expected_code, expected_ok = (0, True) if matches else (2, False)
    else:
        expected_code = 0 if case.kind == REALIZED else 2
    if code != expected_code:
        return Verdict(False, f"exit code {code}, predicted {expected_code}")
    doc = json.loads(stdout)

    if case.kind in (VERIFY_OK, VERIFY_MISMATCH):
        checks = {"weakly_reversible": True, "single_linkage_class": True, "dynamics_match": matches}
        if doc.get("ok") is not expected_ok or doc.get("checks") != checks:
            return Verdict(False, f"verify said {doc.get('ok')} with checks {doc.get('checks')}")
        return Verdict(True, edges=len(case.generating_edges))

    if [tuple(v) for v in doc.get("vertices", [])] != list(case.vertices):
        return Verdict(False, "vertices differ from the input")
    if [[Fraction(e) for e in row] for row in doc.get("net_vectors", [])] != [
        [net[axis] for net in case.nets] for axis in range(case.n)
    ]:
        return Verdict(False, "net vectors differ from the input")
    if case.kind == REALIZED:
        if doc.get("outcome") != "realized" or doc.get("verification", {}).get("dynamics_match") is not True:
            return Verdict(False, f"outcome {doc.get('outcome')}, predicted realized")
        return _check_realized(case, doc)
    if doc.get("outcome") != "no-realization":
        return Verdict(False, f"outcome {doc.get('outcome')}, predicted {case.kind}")
    return _check_failure(case, doc)
