"""Command-line front end: realize, verify, and analyze.

Exit codes: 0 when the command succeeds (realization found, verification
passed, analysis completed), 1 on input errors, 2 when no realization exists
or verification fails, 3 when an internal invariant fails (a bug).  JSON
output is byte-deterministic: keys are sorted, edge lists are sorted, and
rationals are rendered canonically as ``p/q`` with positive q (integers
without the denominator).  Every JSON report goes through ``_dumps``, whose
bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .errors import DuplicateVertexError, InternalInvariantViolation, SchemaError, Wr1Error
from .graphs import (
    EGraph,
    deficiency,
    kernel_support_check,
    mass_action_rhs,
    net_reaction_vectors,
    structure_report,
)
from .ingest import (
    SourceDecomposition,
    decompose,
    load_decomposition,
    parse_json,
    parse_system,
    read_text,
)
from .linalg import to_fraction
from .realize import RealizationReport, assert_maximal_supports, realize_wr1


def _source(path: str):
    return sys.stdin if path == "-" else path


_escape = json.encoder.encode_basestring_ascii
_EDGE_KEYS = {"from", "rate", "to"}


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for byte.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder; this
    writer lays out the same bytes for the reports' shapes (dicts with string
    keys, lists, str, int, bool and None) with fewer steps: keys sorted,
    strings through the C ASCII escaper ``json.dumps`` uses, each flat list
    of ints or strings joined at once, and each rated edge object written
    from one template.
    """
    return _render(doc, "\n") + "\n"


def _render(value, nl: str) -> str:
    """``value`` laid out by ``_dumps``; ``nl`` is a newline and the indent of ``value``'s line."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = nl + "  "
        if all(type(v) is int for v in value):
            items = map(int.__repr__, value)
        elif all(type(v) is str for v in value):
            items = map(_escape, value)
        else:
            items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if value.keys() == _EDGE_KEYS:
            source, rate, target = value["from"], value["rate"], value["to"]
            if type(source) is int and type(target) is int and type(rate) is str:
                return f'{{{nl}  "from": {source},{nl}  "rate": {_escape(rate)},{nl}  "to": {target}{nl}}}'
        inner = nl + "  "
        items = [f"{_escape(key)}: {_render(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not part of a report")


def _rational(value: Fraction, where: str) -> str:
    """``value`` as ``p/q``, or an input error naming ``where`` past the int-to-str digit limit input also meets."""
    try:
        return str(value)
    except ValueError:
        raise Wr1Error(f"{where} has a number longer than {sys.get_int_max_str_digits()} digits") from None


def _rate(graph: EGraph, source: int, target: int) -> str:
    return _rational(graph.rates[(source, target)], f"rate on edge {source}->{target}")


# ---------------------------------------------------------------------------
# graph JSON


def graph_to_json(graph: EGraph, species: tuple[str, ...] | None = None) -> dict:
    edges = []
    for source, target in graph.edges:
        entry = {"from": source, "to": target}
        if graph.rates is not None:
            entry["rate"] = _rate(graph, source, target)
        edges.append(entry)
    doc = {
        "n": graph.n,
        "vertices": [list(vertex) for vertex in graph.vertices],
        "edges": edges,
    }
    if species is not None:
        doc["species"] = list(species)
    return doc


def graph_from_json(doc) -> tuple[EGraph, tuple[str, ...] | None]:
    """Validate and build a graph from its JSON form; rates are optional but all-or-none."""
    if not isinstance(doc, dict):
        raise SchemaError("graph document must be a JSON object")
    missing = {"n", "vertices", "edges"} - doc.keys()
    if missing:
        raise SchemaError(f"graph document missing keys: {sorted(missing)}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("'n' must be a positive integer")
    raw_vertices = doc["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise SchemaError("'vertices' must be a nonempty list")
    vertices = []
    for vertex in raw_vertices:
        if (
            not isinstance(vertex, list)
            or len(vertex) != n
            or any(isinstance(e, bool) or not isinstance(e, int) for e in vertex)
        ):
            raise SchemaError(f"vertex {vertex!r} is not an integer vector of length {n}")
        vertices.append(tuple(vertex))
    if len(set(vertices)) != len(vertices):
        raise DuplicateVertexError("graph has two identical vertices")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("'edges' must be a list")
    edges = []
    rates = {}
    rated = 0
    for entry in raw_edges:
        if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
            raise SchemaError(f"edge {entry!r} needs 'from' and 'to'")
        source, target = entry["from"], entry["to"]
        for endpoint in (source, target):
            if isinstance(endpoint, bool) or not isinstance(endpoint, int):
                raise SchemaError(f"edge endpoint {endpoint!r} is not an integer")
            if not 0 <= endpoint < len(vertices):
                raise SchemaError(f"edge endpoint {endpoint} out of range")
        edges.append((source, target))
        if "rate" in entry:
            rated += 1
            # to_fraction refuses floats: the JSON parser has already rounded a
            # number with a fraction or exponent part to binary
            try:
                value = to_fraction(entry["rate"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bad rate on edge {source}->{target}: {entry['rate']!r}") from exc
            rates[(source, target)] = value
    if rated not in (0, len(edges)):
        raise SchemaError("either every edge carries a rate or none does")

    species = None
    if "species" in doc:
        names = doc["species"]
        if (
            not isinstance(names, list)
            or len(names) != n
            or not all(isinstance(s, str) for s in names)
        ):
            raise SchemaError("'species' must list one name per coordinate")
        species = tuple(names)
    try:
        graph = EGraph(
            vertices=tuple(vertices),
            edges=tuple(edges),
            rates=rates if rated else None,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return graph, species


def load_graph(path: str) -> tuple[EGraph, tuple[str, ...] | None]:
    return graph_from_json(parse_json(read_text(_source(path))))


# ---------------------------------------------------------------------------
# rendering


def monomial_label(exponents: tuple[int, ...], species: tuple[str, ...]) -> str:
    factors = [
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(species, exponents)
        if power != 0
    ]
    return " ".join(factors) if factors else "1"


def _default_species(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def render_dot(graph: EGraph, species: tuple[str, ...] | None = None) -> str:
    names = species or _default_species(graph.n)
    lines = ["digraph realization {"]
    for idx, vertex in enumerate(graph.vertices):
        lines.append(f'  v{idx} [label="{monomial_label(vertex, names)}"];')
    for source, target in graph.edges:
        label = "" if graph.rates is None else f' [label="{_rate(graph, source, target)}"]'
        lines.append(f"  v{source} -> v{target}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _net_vector_rows(decomposition: SourceDecomposition) -> list[list[str]]:
    rows = decomposition.net_vectors.entries
    return [[_rational(e, f"net vector of vertex {j}") for j, e in enumerate(row)] for row in rows]


def realization_json(
    decomposition: SourceDecomposition,
    report: RealizationReport,
    maximality_checked: bool = False,
) -> dict:
    doc = {
        "species": list(decomposition.species),
        "vertices": [list(v) for v in decomposition.vertices],
        "net_vectors": _net_vector_rows(decomposition),
    }
    if report.realized:
        realization = report.realization
        doc["outcome"] = "realized"
        doc["graph"] = graph_to_json(realization.graph, decomposition.species)
        doc["supports"] = [list(p.support) for p in realization.profiles]
        doc["deficiency"] = deficiency(realization.graph)
        # extract_rates returned only after its exact check that the rates
        # reproduce every net vector
        doc["verification"] = {"dynamics_match": True}
        if maximality_checked:
            doc["verification"]["maximality_checked"] = True
    else:
        failure = report.failure
        doc["outcome"] = "no-realization"
        detail = {"kind": failure.kind.value, "message": failure.describe()}
        if failure.vertex is not None:
            detail["vertex"] = failure.vertex
            detail["vertex_vector"] = list(decomposition.vertices[failure.vertex])
        if failure.kernel_dimension is not None:
            detail["kernel_dimension"] = failure.kernel_dimension
        if failure.missing:
            detail["missing"] = list(failure.missing)
        doc["failure"] = detail
    return doc


def realization_human(
    decomposition: SourceDecomposition, report: RealizationReport
) -> str:
    species = decomposition.species
    labels = [monomial_label(v, species) for v in decomposition.vertices]
    lines = []
    if report.realized:
        realization = report.realization
        graph = realization.graph
        lines.append(
            f"realized: weakly reversible, single linkage class, "
            f"{graph.m} vertices, {len(graph.edges)} edges, "
            f"deficiency {deficiency(graph)}"
        )
        for source, target in graph.edges:
            lines.append(f"  {labels[source]} -> {labels[target]}  rate {_rate(graph, source, target)}")
        lines.append("supports:")
        for profile in realization.profiles:
            members = ", ".join(labels[j] for j in profile.support)
            lines.append(f"  {labels[profile.vertex]}: {{{members}}}")
    else:
        lines.append("no realization: " + report.failure.describe())
    return "\n".join(lines) + "\n"


def structure_json(graph: EGraph) -> dict:
    report = structure_report(graph)
    doc = {
        "vertices": [list(v) for v in graph.vertices],
        "linkage_classes": [list(c) for c in report.linkage_classes],
        "strong_components": [list(c) for c in report.strong_components],
        "terminal_components": [list(c) for c in report.terminal_components],
        "weakly_reversible": report.weakly_reversible,
        "stoichiometric_dimension": report.stoich_dimension,
        "deficiency": report.deficiency,
    }
    if report.deficiency < 0:
        doc["warnings"] = ["computed deficiency is negative"]
    if graph.rates is not None:
        check = kernel_support_check(graph)
        doc["kernel_check"] = {
            "kernel_dimension": check.kernel_dimension,
            "terminal_component_count": len(check.terminal),
            "dimension_matches": check.dimension_matches,
            "supports_match": check.supports_match,
            "nonnegative_basis": [[_rational(e, f"kernel vector {k}") for e in v] for k, v in enumerate(check.basis)],
            "ok": check.ok,
        }
    return doc


def structure_human(graph: EGraph, species: tuple[str, ...] | None) -> str:
    names = species or _default_species(graph.n)
    report = structure_report(graph)
    labels = [monomial_label(v, names) for v in graph.vertices]

    def describe(indices: tuple[int, ...]) -> str:
        return "{" + ", ".join(labels[i] for i in indices) + "}"

    lines = [
        f"vertices: {graph.m}, edges: {len(graph.edges)}",
        f"linkage classes: {len(report.linkage_classes)}: "
        + "; ".join(describe(c) for c in report.linkage_classes),
        f"strong components: {len(report.strong_components)}: "
        + "; ".join(describe(c) for c in report.strong_components),
        f"terminal components: "
        + "; ".join(describe(c) for c in report.terminal_components),
        f"weakly reversible: {report.weakly_reversible}",
        f"stoichiometric dimension: {report.stoich_dimension}",
        f"deficiency: {report.deficiency}",
    ]
    if graph.rates is not None:
        check = kernel_support_check(graph)
        lines.append(
            f"kernel check: dimension {check.kernel_dimension} vs "
            f"{len(check.terminal)} terminal components, ok={check.ok}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_realize(args) -> int:
    source = _source(args.input)
    if args.input_kind == "ode-text":
        decomposition = decompose(parse_system(read_text(source)))
    else:
        decomposition = load_decomposition(source)
    report = realize_wr1(decomposition)

    checked = report.realized and args.check_oracle
    if checked:
        assert_maximal_supports(decomposition, report.realization.profiles)

    if not args.quiet:
        if args.format == "json":
            sys.stdout.write(
                _dumps(realization_json(decomposition, report, checked))
            )
        elif args.format == "dot":
            if report.realized:
                sys.stdout.write(render_dot(report.realization.graph, decomposition.species))
            else:
                sys.stderr.write("no realization: " + report.failure.describe() + "\n")
        else:
            sys.stdout.write(realization_human(decomposition, report))
    return 0 if report.realized else 2


def cmd_verify(args) -> int:
    graph, species = load_graph(args.graph)
    if graph.rates is None:
        raise SchemaError("verification needs a rated graph")
    decomposition = decompose(parse_system(read_text(_source(args.system))))

    structure = structure_report(graph)

    # graph coordinates name the system's species only when the names agree in order
    dynamics_match = graph.n == decomposition.n and species in (None, decomposition.species)
    if dynamics_match:
        produced = net_reaction_vectors(graph)
        generated = {}
        for i, vertex in enumerate(graph.vertices):
            column = produced.column(i)
            if not column.is_zero():
                generated[vertex] = column
        expected = {
            vertex: decomposition.net_vector(i)
            for i, vertex in enumerate(decomposition.vertices)
        }
        dynamics_match = generated == expected

    spot_checks = 0
    if dynamics_match:
        rng = random.Random(args.seed)
        for _ in range(5):
            point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(graph.n)]
            if mass_action_rhs(graph, point) != decomposition.rhs_at(point):
                dynamics_match = False
                break
            spot_checks += 1

    checks = {
        "weakly_reversible": structure.weakly_reversible,
        "single_linkage_class": len(structure.linkage_classes) == 1,
        "dynamics_match": dynamics_match,
    }
    ok = all(checks.values())
    if not args.quiet:
        doc = {"checks": checks, "ok": ok, "spot_checks": spot_checks}
        sys.stdout.write(_dumps(doc))
    return 0 if ok else 2


def cmd_analyze(args) -> int:
    graph, species = load_graph(args.graph)
    if not args.quiet:
        if args.format == "json":
            sys.stdout.write(_dumps(structure_json(graph)))
        else:
            sys.stdout.write(structure_human(graph, species))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wr1",
        description=(
            "Decide whether a polynomial ODE system restricted to the positive "
            "orthant admits a weakly reversible single-linkage-class "
            "realization, and construct the maximal one when it does."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    realize = sub.add_parser("realize", help="find the maximal realization of a system")
    realize.add_argument("input", nargs="?", default="-", metavar="FILE", help="input file or '-' for stdin")
    realize.add_argument(
        "--input-kind",
        choices=("ode-text", "matrices-json"),
        default="ode-text",
        help="how to interpret the input",
    )
    realize.add_argument("--format", choices=("json", "dot", "human"), default="json")
    realize.add_argument(
        "--check-oracle",
        action="store_true",
        help="re-check support maximality with one extra LP per excluded column",
    )
    realize.add_argument("--quiet", action="store_true", help="suppress the report; exit code only")

    verify = sub.add_parser("verify", help="check a rated graph against a system")
    verify.add_argument("--graph", required=True, help="graph JSON file")
    verify.add_argument("--system", required=True, help="ODE-system text file")
    verify.add_argument("--seed", type=int, default=0, help="seed for spot-check points")
    verify.add_argument("--quiet", action="store_true")

    analyze = sub.add_parser("analyze", help="structural report of a graph")
    analyze.add_argument("--graph", required=True, help="graph JSON file")
    analyze.add_argument("--format", choices=("json", "human"), default="json")
    analyze.add_argument("--quiet", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"realize": cmd_realize, "verify": cmd_verify, "analyze": cmd_analyze}
    try:
        return handlers[args.command](args)
    except (Wr1Error, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalInvariantViolation as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
