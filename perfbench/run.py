"""Seeded closed-loop benchmark of ``wr1 realize`` and ``wr1 verify``.

Run from the repository root:

    python3 perfbench/run.py --workload dense_wr1 --seed 1 --seconds 30 --trace 0

One client runs operations back to back (a closed loop).  Each operation is
one in-process ``wr1.cli.main([...])`` call on input files written during
set-up, with stdout captured in memory, and every answer is checked by
``check.py``, which does not use engine code.  Workloads, from ``corpus.py``:

* ``dense_wr1``: realizable n = 3-4 systems with m = 14-18 vertices whose
  maximal supports are nearly complete digraphs; most saturation LPs find a
  positive witness and answers carry hundreds of rated edges.
* ``sparse_blocks``: block-structured systems over n = 7-9 species, in four
  equal shares (realizable, kernel dimension 2, kernel support with dangling
  vertices, infeasible vertex 0); most saturation LPs prove a zero optimum.
* ``verify_highdeg``: ``wr1 verify`` of rated graphs with exponents up to
  2000, one in four with a perturbed rate; realize and simplex never run.

With ``--trace 0`` the run measures for ``--seconds`` of operation time and
reports the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced and a traced pass over the workload's first ``TRACE_PASS`` cases
until ``--seconds`` of operation time have passed, and reports the
per-layer metrics of ``tracing.py``; counts are per pass.  Every reported time
(latencies, ``ops_per_s``, ``setup_s``, per-layer times) is scaled by the
speed probe of ``speed.py`` timed around it, so that a shared host's drift
does not show as a change of the engine; the unscaled end-to-end figures are
printed next to them.  Human-readable lines
(workload shape, tail percentile, failed ratio) come first; the last line of
stdout is the JSON result.  Spans and the full result are written under
``.perfbench_run/`` in the repository root.

Exit code 0 with a result, 2 without one (for instance when ``src/wr1`` is
missing, or when a traced function is no longer where ``tracing.py`` looks).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from check import check_answer
from corpus import PROBE, TRACE_PASS, WORKLOADS, build_corpus
from tracing import PER_LAYER, MissingTarget, Tracer, layer_metrics
import speed

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_run"
# setup_s is the median of this many set-ups; each starts after a full collection,
# so none pays for collecting the cases of the one before
SETUP_REPEATS = 11
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_engine():
    """Import ``wr1.cli`` from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "wr1" or m.startswith("wr1.")]:
        del sys.modules[name]
    return importlib.import_module("wr1.cli")


def set_up(workload: str, seed: int, inputs: Path):
    """Import the engine, generate the corpus and write its input files."""
    cli = import_engine()
    cases = build_corpus(workload, seed)
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    ops = []
    for case in cases:
        for name, text in case.files.items():
            (inputs / name).write_text(text, encoding="utf-8")
        ops.append((case, [str(inputs / a) if a in case.files else a for a in case.argv]))
    return cli, ops


def run_op(main, argv: list[str]) -> tuple[int | None, str, float, str]:
    """One CLI call: exit code (None if it raised), stdout, seconds, traceback."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit):  # a crash is a failed operation, not a failed benchmark
            code = None
            crash = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, crash


class Tally:
    """Attempted operations, their latencies and verdicts.

    ``latencies`` are scaled by the speed probes taken right before and
    after each operation (``speed.py``); ``wall`` holds the unscaled times and
    ``busy`` their sum, which decides when a run has measured long enough.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.edges: dict[int, int] = {}
        self.busy = 0.0
        self._last_probe = None

    def run(self, main, index: int, case, argv) -> float:
        """Run and check one operation; returns its scaled latency in seconds."""
        before = self._last_probe if self._last_probe is not None else speed.probe(self.kernel)
        code, stdout, elapsed, crash = run_op(main, argv)
        self._last_probe = speed.probe(self.kernel)
        self.busy += elapsed
        self.wall.append(elapsed)
        self.latencies.append(elapsed * speed.scale(self.kernel, before, self._last_probe))
        self.kinds.append(case.kind)
        verdict = check_answer(case, code, stdout)
        if not verdict.ok:
            self.failures.append(f"case {index} ({case.kind}): {verdict.reason or crash.strip()}")
        elif verdict.edges is not None:
            self.edges.setdefault(index, verdict.edges)
        return self.latencies[-1]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    In a run too short to have that many samples above its median, the
    median stands in.
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def shape(ops, tally: Tally) -> dict:
    """Sizes and outcome mix of the cases, and support density of the answers."""
    cases = [case for case, _ in ops]
    densities = [edges / (cases[i].m * (cases[i].m - 1)) for i, edges in tally.edges.items()]
    kinds = Counter(case.kind for case in cases)
    return {
        "cases": len(cases),
        "m_range": [min(c.m for c in cases), max(c.m for c in cases)],
        "n_range": [min(c.n for c in cases), max(c.n for c in cases)],
        "max_exponent": max(c.max_exponent for c in cases),
        "mean_support_density": statistics.fmean(densities) if densities else None,
        "outcome_shares": {kind: count / len(cases) for kind, count in sorted(kinds.items())},
    }


def end_to_end(main, workload: str, ops, seconds: float) -> tuple[Tally, dict, dict]:
    tally = Tally(PROBE[workload])
    gc.collect()
    while tally.busy < seconds:
        index = tally.attempted % len(ops)
        tally.run(main, index, *ops[index])
    tail_value, tail_percentile = tail(tally.latencies)
    correct = tally.attempted - len(tally.failures)
    metrics = {
        "ops_per_s": correct / sum(tally.latencies),
        "latency_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "latency_tail_ms": 1000.0 * tail_value,
    }
    extra = {
        "tail_percentile": tail_percentile,
        "samples": tally.attempted,
        "failed_ratio": len(tally.failures) / tally.attempted,
        "unscaled": {
            "ops_per_s": correct / tally.busy,
            "latency_p50_ms": 1000.0 * statistics.median(tally.wall),
            "latency_tail_ms": 1000.0 * tail(tally.wall)[0],
        },
        "p50_ms_by_outcome": {
            kind: 1000.0 * statistics.median(t for t, k in zip(tally.latencies, tally.kinds) if k == kind)
            for kind in sorted(set(tally.kinds))
        },
    }
    return tally, metrics, extra


def per_layer(cli, workload: str, ops, seconds: float, spans_path: Path) -> tuple[Tally, dict, dict]:
    first = ops[: TRACE_PASS[workload]]
    tally, tracer = Tally(PROBE[workload]), Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main")
    spent = {False: 0.0, True: 0.0}
    scales: dict[int, float] = {}
    passes = 0
    gc.collect()
    while passes == 0 or tally.busy < seconds:
        # alternate which pass runs first, so warm-up does not bias the overhead ratio
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            with tracer.installed() if traced else contextlib.nullcontext():
                for index, (case, argv) in enumerate(first):
                    tracer.op = passes * len(first) + index
                    scaled = tally.run(traced_main if traced else cli.main, index, case, argv)
                    spent[traced] += scaled
                    if traced:
                        scales[tracer.op] = scaled / tally.wall[-1]
        passes += 1
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, scales, passes, len(first), spent[True] / spent[False])
    return tally, metrics, {"passes": passes, "cases_per_pass": len(first)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wr1" / "cli.py").is_file():
        sys.stderr.write(f"error: no engine sources at {ROOT / 'src' / 'wr1'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    inputs = WORKDIR / f"{tag}-inputs"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            # drop the previous set-up's corpus first, so peak memory holds one corpus
            cli = ops = None
            gc.collect()
            # set-up is mostly interpreter work (imports, small-number generators, text)
            before = speed.probe("small")
            start = time.perf_counter()
            cli, ops = set_up(args.workload, args.seed, inputs)
            elapsed = time.perf_counter() - start
            setups.append(elapsed * speed.scale("small", before, speed.probe("small")))
        if args.trace:
            tally, metrics, extra = per_layer(cli, args.workload, ops, args.seconds, WORKDIR / f"{tag}-spans.jsonl")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            notes = {name: f"  ({about})" for name, (_, about) in PER_LAYER.items()}
        else:
            tally, metrics, extra = end_to_end(cli.main, args.workload, ops, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
            notes = {}
    except MissingTarget as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {"workload": args.workload, "seed": args.seed, "shape": shape(ops, tally), **extra}
    (WORKDIR / f"{tag}.json").write_text(
        json.dumps({**result, **details, "failures": tally.failures}, indent=2) + "\n", encoding="utf-8"
    )
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    for reason in tally.failures[:5]:
        print(f"# failure: {reason}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}{notes.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
