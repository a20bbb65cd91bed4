"""In-memory span tracing of the engine's layers, from outside the engine.

Each public function of a layer is replaced, for the duration of a traced
pass, by a wrapper in the namespace its caller looks it up in: ``realize``
imports the simplex functions into its own globals, so the wrappers go on
``wr1.realize.lp_feasible`` and not on ``wr1.simplex``.  A target that the
engine no longer has where ``TARGETS`` looks for it raises ``MissingTarget``:
a moved or renamed function must be updated here, not read as a layer that
now costs nothing.

A span is ``(name, start, end, parent, op, note)``: ``parent`` is the index of
the enclosing span (or None), ``op`` the operation it belongs to, and ``note``
a small count taken from the call's arguments or result at the boundary.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _lp_positive(args, result):
    """1 when the maximized coordinate came out positive, i.e. a useful witness."""
    return int(result is not None and result[args[2]] > 0)


def _profile_counts(args, result):
    """(witnesses, support edges) of a SupportProfile; None for an infeasible vertex."""
    if result is None:
        return None
    return (len(result.witnesses), len([j for j in result.support if j != result.vertex]))


def _input_bytes(args, result):
    return len(args[0].encode("utf-8"))


# (module, attribute, span name, note); "Class.method" attributes are patched on the class
TARGETS = (
    ("wr1.cli", "parse_system", "ingest.parse_system", _input_bytes),
    ("wr1.cli", "decompose", "ingest.decompose", None),
    ("wr1.ingest", "SourceDecomposition.rhs_at", "ingest.rhs_at", None),
    ("wr1.realize", "lp_feasible", "simplex.lp_feasible", None),
    ("wr1.realize", "lp_maximize_component", "simplex.lp_maximize_component", _lp_positive),
    ("wr1.cli", "realize_wr1", "realize.realize_wr1", None),
    ("wr1.realize", "saturate_support", "realize.saturate_support", _profile_counts),
    ("wr1.realize", "build_kirchhoff", "realize.build_kirchhoff", None),
    ("wr1.realize", "decide_wr1", "realize.decide_wr1", None),
    ("wr1.realize", "extract_rates", "realize.extract_rates", None),
    ("wr1.realize", "kernel_basis", "linalg.kernel_basis", None),
    ("wr1.graphs", "kernel_basis", "linalg.kernel_basis", None),
    ("wr1.graphs", "rank", "linalg.rank", None),
    ("wr1.cli", "net_reaction_vectors", "graphs.net_reaction_vectors", None),
    ("wr1.cli", "deficiency", "graphs.deficiency", None),
    ("wr1.cli", "structure_report", "graphs.structure_report", None),
    ("wr1.cli", "mass_action_rhs", "graphs.mass_action_rhs", None),
    ("wr1.cli", "realization_json", "cli.realization_json", None),
    ("wr1.cli", "load_graph", "cli.load_graph", None),
)

# per-layer metric -> (unit, description); the order is the report order
PER_LAYER = {
    "simplex.lp_feasible_calls": ("count", "lp_feasible calls per pass"),
    "simplex.lp_maximize_calls": ("count", "lp_maximize_component calls per pass"),
    "simplex.lp_ms": ("ms/op", "time inside both LP entry points"),
    "simplex.positive_ratio": ("ratio", "share of lp_maximize_component optima with x_j > 0"),
    "realize.saturate_self_ms": ("ms/op", "saturate_support minus its simplex children"),
    "realize.witnesses_per_vertex": ("ratio", "stored witnesses per saturated vertex"),
    "realize.support_edges": ("count", "support edges of all saturated vertices, per pass"),
    "realize.extract_rates_ms": ("ms/op", "extract_rates"),
    "realize.decide_ms": ("ms/op", "build_kirchhoff plus decide_wr1"),
    "linalg.kernel_basis_ms": ("ms/op", "kernel_basis"),
    "cli.render_ms": ("ms/op", "cli.main and realization_json self time: argument parsing, file reads, JSON rendering"),
    "cli.load_graph_ms": ("ms/op", "load_graph"),
    "graphs.mass_action_rhs_ms": ("ms/op", "mass_action_rhs"),
    "graphs.structure_report_ms": ("ms/op", "structure_report"),
    "graphs.deficiency_ms": ("ms/op", "deficiency"),
    "ingest.rhs_at_ms": ("ms/op", "SourceDecomposition.rhs_at"),
    "ingest.parse_ms": ("ms/op", "parse_system"),
    "ingest.decompose_ms": ("ms/op", "decompose"),
    "ingest.input_bytes": ("bytes", "system text parsed per pass"),
    "linalg.rank_ms": ("ms/op", "rank"),
    "trace.overhead_ratio": ("ratio", "untraced ops/s over traced ops/s, same cases"),
}


class MissingTarget(LookupError):
    """A function in ``TARGETS`` is not where the table says it is."""


@dataclass
class Tracer:
    """Spans of the wrapped calls, in call order; ``op`` tags the operation in progress."""

    spans: list[tuple] = field(default_factory=list)
    op: int = 0
    _open: list[int] = field(default_factory=list)

    def wrap(self, fn, name: str, note=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self.op, None)
            if note is not None:
                self.spans[index] = (name, start, end, parent, self.op, note(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module_name, attribute, name, note in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    raise MissingTarget(f"{module_name}.{attribute} not found; update tracing.TARGETS")
                setattr(owner, leaf, self.wrap(original, name, note))
                undo.append((owner, leaf, original))
            yield
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op, note in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "note": note}) + "\n")


def layer_metrics(
    spans: list[tuple], scales: dict[int, float], passes: int, ops_per_pass: int, overhead_ratio: float
) -> dict[str, float]:
    """Per-layer metrics of ``passes`` identical traced passes; counts are per pass, times per operation.

    Each span's duration is multiplied by ``scales[op]``, the speed-probe
    factor of its operation (``speed.py``).
    """
    ops = passes * ops_per_pass
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent, op, _note in spans:
        duration = (end - start) * scales[op]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            own[spans[parent][0]] -= duration

    def per_op_ms(*names: str, table=total) -> float:
        return 1000.0 * sum(table.get(n, 0.0) for n in names) / ops

    notes: dict[str, list] = {}
    for name, *_rest, note in spans:
        if note is not None:
            notes.setdefault(name, []).append(note)
    maximize = notes.get("simplex.lp_maximize_component", [])
    profiles = notes.get("realize.saturate_support", [])
    def per_pass(count: int) -> float:
        return count / passes

    return {
        "simplex.lp_feasible_calls": per_pass(calls.get("simplex.lp_feasible", 0)),
        "simplex.lp_maximize_calls": per_pass(calls.get("simplex.lp_maximize_component", 0)),
        "simplex.lp_ms": per_op_ms("simplex.lp_feasible", "simplex.lp_maximize_component"),
        "simplex.positive_ratio": sum(maximize) / len(maximize) if maximize else 0.0,
        "realize.saturate_self_ms": per_op_ms("realize.saturate_support", table=own),
        "realize.witnesses_per_vertex": sum(w for w, _ in profiles) / len(profiles) if profiles else 0.0,
        "realize.support_edges": per_pass(sum(e for _, e in profiles)),
        "realize.extract_rates_ms": per_op_ms("realize.extract_rates"),
        "realize.decide_ms": per_op_ms("realize.build_kirchhoff", "realize.decide_wr1"),
        "linalg.kernel_basis_ms": per_op_ms("linalg.kernel_basis"),
        "cli.render_ms": per_op_ms("cli.main", "cli.realization_json", table=own),
        "cli.load_graph_ms": per_op_ms("cli.load_graph"),
        "graphs.mass_action_rhs_ms": per_op_ms("graphs.mass_action_rhs"),
        "graphs.structure_report_ms": per_op_ms("graphs.structure_report"),
        "graphs.deficiency_ms": per_op_ms("graphs.deficiency"),
        "ingest.rhs_at_ms": per_op_ms("ingest.rhs_at"),
        "ingest.parse_ms": per_op_ms("ingest.parse_system"),
        "ingest.decompose_ms": per_op_ms("ingest.decompose"),
        "ingest.input_bytes": per_pass(sum(notes.get("ingest.parse_system", []))),
        "linalg.rank_ms": per_op_ms("linalg.rank"),
        "trace.overhead_ratio": overhead_ratio,
    }
