"""Run one benchmark workload against the osmot source of this checkout.

Run from the root of a checkout:

    python3 perfbench/run.py --workload jitter64 --seed 1 --seconds 30 --trace 0

Workloads: jitter64, rezone, graded-general (see BENCHMARK.json).
With ``--trace 0`` the run times whole passes and prints the end-to-end
metrics; with ``--trace 1`` it alternates plain and traced passes and
prints the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 on a completed run, 1 when the outputs of repeated passes
differ or fail their checks, 2 when there is no osmot source under
./src to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def main(argv: list[str] | None = None) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "osmot", "__init__.py")):
        print(f"error: no osmot source under {src}; run from the root of "
              "an osmot checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    import osmot

    if os.path.dirname(os.path.abspath(osmot.__file__)) != os.path.join(src, "osmot"):
        print(f"error: imported osmot from {osmot.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import harness

    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
