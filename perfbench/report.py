"""Run the benchmark over several seeds and print every metric with its spread.

Run from the repository root:

    python3 perfbench/report.py --seeds 1-10 --trace 0

For each workload it runs ``perfbench/run.py`` once per seed for the
``run_seconds`` of ``BENCHMARK.json``, one process at a time, and prints each
metric by name and unit with its median, quartiles and the quartile spread as
a share of the median, next to the bound that ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from corpus import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for workload in WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            line = f"{workload:15s} {name:30s} {first['unit']:6s} median {median:12.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}"
                if name in bounds:
                    line += f"  bound {bounds[name]}" + ("" if spread < bounds[name] / 3 else "  WIDE")
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
