"""Inputs that the test files build alike: fields, the primitive transform of
a conservative copy, whole-grid traces, one stage's explicit operators,
padded scalars and the scripts under ``tools/``; and this process's
children.

pytest does not collect this file (its name does not start with ``test_``)
and puts this directory on ``sys.path``, so a test file imports it as
``from builders import uniform``.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np

from allmach.benchmarks import evaluate_field
from allmach.grid import along, fill_ghost_array
from allmach.grid import padded as padded_interior
from allmach.integrator import build_stage
from allmach.reconstruction import limited_traces
from allmach.state import PrimitiveField, primitive_components

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def uniform(grid, rho=1.0, u=0.0, v=0.0, p=1.0):
    """Primitive field of the given components, ghosts filled.  Each is a
    constant or an array that broadcasts to the interior's (nx, ny)."""
    return evaluate_field(grid, lambda eps, t, x, y: (rho, u, v, p), 0.0, 0.0)


def random_state(grid, rng):
    """Ghost-filled state with positive density and pressure: rho, u, v and
    p drawn in turn over the whole padded grid, then the ghosts filled."""
    return PrimitiveField(fill_ghost_array(np.stack((
        0.5 + rng.random(grid.shape),
        rng.standard_normal(grid.shape),
        rng.standard_normal(grid.shape),
        0.5 + rng.random(grid.shape),
    )), grid))


def primitive_of(U, cfg):
    """The primitive transform of conservative field ``U``, a new field
    written one component at a time from ``primitive_components``."""
    V = np.empty_like(U.array)
    for c, values in primitive_components(U.array, cfg):
        V[c] = values
    return PrimitiveField(V)


def whole_block(V, grid, axis):
    """The whole grid as one axis-first block: every interior cell across
    ``axis``, with its ghost padding along it."""
    g = grid.ghost
    return along(V.array, axis)[..., g:-g]


def traces_along(V, grid, axis, theta):
    """(minus, plus) traces along ``axis`` of the whole grid, axis first."""
    return limited_traces(whole_block(V, grid, axis), grid.spacing(axis), theta, axis, 0)


def stage_operators(V, grid, cfg):
    """``(R, D, scalars)``: one stage's nonstiff operator, conservative rate
    and split scalars, built by ``build_stage`` into a zeroed pair."""
    R, D = np.zeros((2, 4, grid.nx, grid.ny))
    return R, D, build_stage(V, grid, cfg, R, D)


def padded(grid, fn):
    """Ghost-padded scalar field of ``fn(x, y)`` at the cell centres."""
    return padded_interior(fn(*grid.cell_centers()), grid)


def load_tool(name):
    """The module ``tools/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def children():
    """Pids of this process's child processes, running or not yet reaped,
    read from the parent pid field of every ``/proc/<pid>/stat``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # gone meanwhile
            continue
        if ppid == os.getpid():
            found.append(int(entry))
    return found
