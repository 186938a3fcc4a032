"""Shifted-Laplacian (Helmholtz-type) pressure systems and their solver.

Each semi-implicit stage, predictor and corrector alike, turns its pressure
update into one linear system, assembled by ``pressure_system``:

    (I - sigma * Lap_h) p = rhs,

with the compact 5-point Laplacian, one second difference per axis, and
sigma = dt^2 * gamma * p_min / (eps^2 * rho_max).  On the uniform grid, with
periodic or mirrored (outflow) ghosts, the operator has constant coefficients
and separates by axis, so one fixed orthonormal eigenbasis per axis
diagonalizes it exactly (the fast diagonalization method of Lynch, Rice &
Thomas, 1964).  The solve is a transform to that basis, a division by
1 + sigma * lambda, and the transform back.  The operator is positive definite
for sigma >= 0 and stays so for the slightly negative sigma that can occur at
large Mach numbers while every 1 + sigma * lambda is positive; the solver
checks exactly those divisors instead of requiring sigma > 0.

The constant mode is split off: the Laplacian annihilates constants under
both ghost rules, so the mean of the solution equals the mean of the
right-hand side.  The transforms therefore act on the mean-free deviation,
which keeps the solve accurate at very small Mach numbers where the physical
pressure fluctuation sits many orders of magnitude below the background value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .grid import AXIS_X, AXIS_Y, PERIODIC, GridSpec, along, padded
from .state import PrimitiveField, SolverConfig
from .nonstiff import SplitScalars
from .stiff import discrete_divergence, stiff_coefficients

@dataclass
class HelmholtzSystem:
    """One assembled pressure system; boundary kind comes from the grid."""

    sigma: float
    rhs: np.ndarray  # interior, (nx, ny)
    grid: GridSpec


def compact_laplacian(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    """5-point Laplacian of a padded scalar field, on interior cells: the
    second difference along x plus the one along y."""
    g, lap = grid.ghost, []
    for axis in (AXIS_X, AXIS_Y):
        b = along(p, axis)
        second = 2.0 * b[g:-g, g:-g]
        np.subtract(b[g - 1:-g - 1, g:-g], second, out=second)
        second += b[g + 1:1 - g, g:-g]
        second /= grid.spacing(axis) ** 2
        lap.append(along(second, axis))
    lap[0] += lap[1]
    return lap[0]


def pressure_system(
    Vstar: PrimitiveField,
    scalars: SplitScalars,
    dt: float,
    cfg: SolverConfig,
    grid: GridSpec,
) -> HelmholtzSystem:
    """Pressure system of a stage from its ghost-filled explicit prediction.

    Substituting the velocity update u = u* - dt * grad_h p / (eps^2 rho_max)
    into the pressure update p = p* - dt * gamma p_min * div_h u, with the
    compact Laplacian in place of div_h grad_h, gives the system for p.
    ``scalars`` are the extrema of the stage that freezes the linearization.
    """
    eps2_rhomax, gp = stiff_coefficients(scalars, cfg)
    sigma = dt**2 * gp / eps2_rhomax
    rhs = Vstar.p[grid.interior] - dt * gp * discrete_divergence(Vstar.u, Vstar.v, grid)
    return HelmholtzSystem(sigma, rhs, grid)


@functools.lru_cache(maxsize=32)
def _axis_basis(n: int, h: float, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis (columns) and eigenvalues of the 1-D operator
    -(q[j-1] - 2 q[j] + q[j+1]) / h^2 under one axis's ghost rule.

    Periodic wrap is diagonalized by the Hartley basis cas(2 pi j k / n);
    the mirrored outflow ghost is homogeneous Neumann, diagonalized by the
    DCT-II basis cos(pi k (j + 1/2) / n).  Either entry depends on j and k
    only through an integer index modulo a period, n or 4n, so Q gathers its
    n x n entries from a table of one period's values.  The arrays are
    shared read-only.
    """
    j = np.arange(n)
    if periodic:
        angle = 2.0 * np.pi * j / n
        table = (np.cos(angle) + np.sin(angle)) / np.sqrt(n)
        Q = table.take(np.outer(j, j) % n)
        lam = (2.0 - 2.0 * np.cos(angle)) / h**2
    else:
        table = np.cos(np.pi * np.arange(4 * n) / (2 * n)) * np.sqrt(2.0 / n)
        Q = table.take(np.outer(2 * j + 1, j) % (4 * n))
        Q[:, 0] /= np.sqrt(2.0)
        lam = (2.0 - 2.0 * np.cos(np.pi * j / n)) / h**2
    Q.setflags(write=False)
    lam.setflags(write=False)
    return Q, lam


def solve_helmholtz(sys: HelmholtzSystem) -> tuple[np.ndarray, int, float]:
    """Solve (I - sigma*Lap_h) q = rhs directly in the per-axis eigenbases.

    Returns (solution, 0, residual): there are no iterations, and the
    residual is the 2-norm of rhs - (I - sigma*Lap_h) q over interior cells,
    from one operator application.  Raises NoConvergence when the operator is
    not positive definite by the 1e-8 margin.
    """
    grid, sigma = sys.grid, sys.sigma
    Qx, lam_x = _axis_basis(grid.nx, grid.dx, grid.bc_x == PERIODIC)
    Qy, lam_y = _axis_basis(grid.ny, grid.dy, grid.bc_y == PERIODIC)
    diag = 1.0 + sigma * (lam_x[:, None] + lam_y[None, :])
    if diag.min() <= 1e-8:
        raise NoConvergence(
            "shifted operator not positive definite (dt too large?): "
            f"sigma={sigma:.6g}, min(1 + sigma*lambda)={diag.min():.6g}"
        )

    mean = float(sys.rhs.mean())
    q = Qx @ ((Qx.T @ (sys.rhs - mean) @ Qy) / diag) @ Qy.T + mean
    del diag

    r = compact_laplacian(padded(q, grid), grid)  # r = rhs - (q - sigma * lap), in place
    r *= sigma
    np.subtract(q, r, out=r)
    np.subtract(sys.rhs, r, out=r)
    return q, 0, float(np.linalg.norm(r))
