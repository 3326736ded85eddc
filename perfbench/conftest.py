"""Put the checkout's osmot source and the benchmark modules on sys.path.

Run the benchmark's own tests from the root of a checkout with
``python3 -m pytest perfbench``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]
