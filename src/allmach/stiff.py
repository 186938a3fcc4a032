"""Linear stiff (acoustic) operator, discretized with central differences.

The stiff part couples the pressure gradient, scaled by the reference
1/(eps^2 * rho_max), to the velocity divergence, scaled by gamma * p_min.
Its semi-implicit evaluation mixes two time levels: the scalar coefficients
come from one stage, the differentiated fields from another.  Each difference
is a ``central_difference`` along one axis, with velocity component 1 + axis.
"""

from __future__ import annotations

import numpy as np

from .grid import AXIS_X, AXIS_Y, GridSpec, along
from .nonstiff import SplitScalars
from .state import PrimitiveField, SolverConfig


def stiff_coefficients(scalars: SplitScalars, cfg: SolverConfig) -> tuple[float, float]:
    """The stage-frozen scalars of the stiff operator: eps^2 * rho_max, which
    divides the pressure gradient, and gamma * p_min, which multiplies the
    velocity divergence."""
    return cfg.epsilon**2 * scalars.rho_max, cfg.gamma * scalars.p_min


def central_difference(a: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Second-order central difference along ``axis`` of a padded scalar
    field, on interior cells."""
    g, b = grid.ghost, along(a, axis)
    return along(b[g + 1:1 - g, g:-g] - b[g - 1:-g - 1, g:-g], axis) / (2.0 * grid.spacing(axis))


def discrete_divergence(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Central-difference divergence of a padded vector field (interior)."""
    return central_difference(u, grid, AXIS_X) + central_difference(v, grid, AXIS_Y)


def stiff_row(
    scalars: SplitScalars, cfg: SolverConfig, Vf: PrimitiveField, grid: GridSpec, row: int
) -> np.ndarray:
    """Row ``row`` (1, 2 or 3: u, v or p; the density row is zero) of the
    stiff operator with coefficients from one stage applied to the fields of
    another, a new (nx, ny) array.

    The argument order matters: ``scalars`` are the extrema of the (older)
    stage that freezes the linearization, ``Vf`` the stage being
    differentiated.
    """
    eps2_rhomax, gamma_pmin = stiff_coefficients(scalars, cfg)
    if row == 3:
        out = discrete_divergence(Vf.u, Vf.v, grid)
        out *= gamma_pmin
    else:
        out = central_difference(Vf.p, grid, row - 1)  # u along x, v along y
        out *= 1.0 / eps2_rhomax
    return out
