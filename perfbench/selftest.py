"""Checks of the benchmark itself; kept out of the repository's test suite.

Run from the repository root:

    python -m pytest -q perfbench/selftest.py

The block-structured generators must predict what an exhaustive search
finds on small instances, two runs of one seed must give identical
exact per-layer counts, which later changes are compared by, and a traced
function that has moved must stop the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

from check import check_answer  # noqa: E402
from corpus import INFEASIBLE, KERNEL_DIMENSION, KERNEL_SUPPORT, REALIZED, WORKLOADS, sparse_case  # noqa: E402
import tracing  # noqa: E402
from tests.oracles import wr1_realizable_bruteforce  # noqa: E402
from wr1.cli import main as wr1_main  # noqa: E402
from wr1.ingest import SourceDecomposition  # noqa: E402
from wr1.linalg import RationalMatrix  # noqa: E402

EXACT_COUNTS = (
    "simplex.lp_feasible_calls",
    "simplex.lp_maximize_calls",
    "simplex.positive_ratio",
    "realize.witnesses_per_vertex",
    "realize.support_edges",
    "ingest.input_bytes",
)

# (n, m) small enough for the exhaustive oracle, per outcome kind
SMALL_SHAPES = {
    REALIZED: ((2, 3), (3, 4), (3, 5)),
    KERNEL_DIMENSION: ((4, 4), (4, 5)),
    KERNEL_SUPPORT: ((3, 4), (3, 5)),
    INFEASIBLE: ((3, 4), (3, 5)),
}


@pytest.mark.parametrize("kind", sorted(SMALL_SHAPES))
def test_sparse_generators_match_bruteforce(kind, tmp_path):
    rng = Random(f"selftest/{kind}")
    for n, m in SMALL_SHAPES[kind]:
        for k in range(3):
            case = sparse_case(rng, f"{kind}-{n}-{m}-{k}", kind, n, m)
            assert case.m == m
            species = tuple(f"s{i + 1}" for i in range(n))
            decomposition = SourceDecomposition(species, case.vertices, RationalMatrix.from_columns(case.nets, rows=n))
            assert wr1_realizable_bruteforce(decomposition) == (kind == REALIZED), case.files

            for name, text in case.files.items():
                (tmp_path / name).write_text(text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = wr1_main([str(tmp_path / a) if a in case.files else a for a in case.argv])
            verdict = check_answer(case, code, out.getvalue())
            assert verdict.ok, verdict.reason


def _traced_run(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_twice():
    return {workload: (_traced_run(workload, 7), _traced_run(workload, 7)) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(traced_twice, workload):
    first, second = traced_twice[workload]
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}


def test_counts_separate_the_workloads(traced_twice):
    dense, sparse, verify = (traced_twice[w][0] for w in WORKLOADS)
    assert verify["simplex.lp_maximize_calls"] == 0
    assert verify["simplex.lp_feasible_calls"] == 0
    assert dense["simplex.positive_ratio"] > 2 * sparse["simplex.positive_ratio"]


def test_missing_target_stops_tracing(monkeypatch):
    import wr1.realize

    original = wr1.realize.lp_feasible
    moved = ("wr1.realize", "no_such_function", "realize.no_such_function", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (moved,))
    with pytest.raises(tracing.MissingTarget):
        with tracing.Tracer().installed():
            pass
    assert wr1.realize.lp_feasible is original
