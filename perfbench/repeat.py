"""Repeat untraced benchmark runs over several seeds and summarise their spread.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workloads jitter64 rezone --seeds 1-10 --seconds 30

Each run is ``perfbench/run.py --trace 0`` in its own process, one at a
time. For every end-to-end metric the summary gives the median over the
runs, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and their distance as a share of the median, next to the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds)
                   for seed in parse_seeds(args.seeds)]
        for name, bound in bounds.items():
            unit = results[0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{workload} {name}: median {median:.6g} {unit} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {(q3 - q1) / median:.4f} bound {bound}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
