"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/spread.py [--seeds 1-10] [--trace 0|1]

Runs bench/run.py once per workload and seed, one run at a time, for the
run length BENCHMARK.json gives, and prints per workload and metric the
median, the quartiles and the distance between them as a share of the
median, plus operations attempted and failed. The figures in bench/README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"python {platform.python_version()}, {len(os.sched_getaffinity(0))} CPUs")
    for workload in corpus.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {len(args.seeds)} runs, {attempted} operations, {failed} failed")
        print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
