"""Mach-uniform finite-volume solver for the 2-D compressible Euler equations.

The library evolves primitive and conservative solution copies side by side:
a semi-implicit two-stage scheme keeps the primitive copy accurate and stable
down to vanishing Mach numbers, an explicit central-upwind scheme keeps the
conservative copy sharp across shocks, and a Mach-dependent blend picks the
right one after every stage.
"""

from .benchmarks import CASES, ap_probes, convergence_study, l1_error, run_case
from .errors import NoConvergence, NonPhysicalState
from .integrator import DualState, run
from .snapshots import snapshot_write

__version__ = "0.1.0"

__all__ = [
    "CASES",
    "DualState",
    "NoConvergence",
    "NonPhysicalState",
    "ap_probes",
    "convergence_study",
    "l1_error",
    "run",
    "run_case",
    "snapshot_write",
]
