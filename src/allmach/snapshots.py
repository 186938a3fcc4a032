"""Delimited-text snapshot serialization.

One file per snapshot: ``key = value`` header lines, a column legend, then
one row per interior cell in k-major order (k slowest, j fastest).  All
floats are written with 17 significant digits so that parse/re-serialize
round trips are byte identical.
"""

from __future__ import annotations

import numpy as np

from .benchmarks import local_mach, vorticity
from .grid import GridSpec
from .integrator import DualState
from .state import SolverConfig

COLUMNS = "j k x y rho u v p rho_cons mx my E mach vorticity"

_F = "%.17g"
# One table row: ``%d`` truncates j and k exactly as ``int()`` does.
_ROW = "%d %d " + " ".join([_F] * 12) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return _F % value
    return str(value)


def snapshot_rows(state: DualState, grid: GridSpec, cfg: SolverConfig) -> np.ndarray:
    """Cell table in file order, shape (nx*ny, 14), filled column by column
    in one (ny, nx, 14) array: k-major, so cell (j, k) is row k*nx + j."""
    core = grid.interior
    X, Y = grid.cell_centers()
    nx, ny = grid.nx, grid.ny
    table = np.empty((ny, nx, 14))
    table[..., 0] = np.arange(nx)
    table[..., 1] = np.arange(ny)[:, None]
    table[..., 2] = X.T
    table[..., 3] = Y.T
    table[..., 4:8] = state.V.array[core].T
    table[..., 8:12] = state.U.array[core].T
    table[..., 12] = local_mach(state.V, cfg.gamma, grid).T
    table[..., 13] = vorticity(state.V, grid).T
    return table.reshape(nx * ny, 14)


def snapshot_header(state: DualState, grid: GridSpec, cfg: SolverConfig) -> dict:
    header = {
        "time": float(state.t),
        "eps": float(cfg.epsilon),
        "gamma": float(cfg.gamma),
        "nx": grid.nx,
        "ny": grid.ny,
        "x_lo": float(grid.x_lo),
        "x_hi": float(grid.x_hi),
        "y_lo": float(grid.y_lo),
        "y_hi": float(grid.y_hi),
        "bc_x": grid.bc_x,
        "bc_y": grid.bc_y,
    }
    if cfg.dt_override is not None:
        header["dt_override"] = "%d:%s" % (cfg.dt_override[0], _F % cfg.dt_override[1])
    return header


def write_snapshot_data(header: dict, rows: np.ndarray, path) -> None:
    """Write ``rows`` one grid row (``header["nx"]`` table rows) per format pass.

    A whole-file pass would be no faster and would hold the file's text in
    memory at once.
    """
    nx = header["nx"]
    with open(path, "w") as f:
        for key, value in header.items():
            f.write(f"# {key} = {_fmt(value)}\n")
        f.write(f"# columns: {COLUMNS}\n")
        for start in range(0, len(rows), nx):
            block = rows[start:start + nx]
            f.write((_ROW * len(block)) % tuple(block.ravel().tolist()))


def snapshot_write(state: DualState, grid: GridSpec, cfg: SolverConfig, path) -> None:
    """Serialize one state (both solution copies plus diagnostics)."""
    write_snapshot_data(snapshot_header(state, grid, cfg), snapshot_rows(state, grid, cfg), path)


def snapshot_read(path) -> tuple[dict, np.ndarray]:
    """Parse a snapshot back into (header, row table)."""
    header: dict = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            body = line[1:].strip()
            if not body or body.startswith("columns:"):
                continue
            key, _, raw = body.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in ("nx", "ny"):
                header[key] = int(raw)
            elif key in ("bc_x", "bc_y", "dt_override"):
                header[key] = raw
            else:
                header[key] = float(raw)
    return header, np.loadtxt(path, comments="#", ndmin=2)
