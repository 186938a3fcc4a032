"""Time the set-up of one workload in a fresh process.

Usage: python3 bench/setup_probe.py CASE EPS N

Prints the seconds from before ``import allmach`` until the grid, the initial
state and the ``DualState`` exist.  Interpreter start-up is not included.
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import allmach  # noqa: E402

case, eps, n = allmach.CASES[sys.argv[1]], float(sys.argv[2]), int(sys.argv[3])
grid = case.make_grid(n, n, eps)
cfg = case.config(eps)
state = allmach.DualState.from_primitive(case.initial_state(grid, eps), grid, cfg)
print(repr(time.perf_counter() - t0))
