"""Linear stiff (acoustic) operator, discretized with central differences.

The stiff part couples the pressure gradient, scaled by the reference
1/(eps^2 * rho_max), to the velocity divergence, scaled by gamma * p_min.
Its semi-implicit evaluation mixes two time levels: the scalar coefficients
come from one stage, the differentiated fields from another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import AXIS_X, AXIS_Y, GridSpec, along
from .nonstiff import SplitScalars
from .state import PrimitiveField, SolverConfig


@dataclass(frozen=True)
class StiffScalars:
    """Coefficients of the stiff operator, frozen at one stage."""

    inv_eps2_rhomax: float
    gamma_pmin: float

    @classmethod
    def from_split(cls, scalars: SplitScalars, cfg: SolverConfig) -> "StiffScalars":
        return cls(
            inv_eps2_rhomax=1.0 / (cfg.epsilon**2 * scalars.rho_max),
            gamma_pmin=cfg.gamma * scalars.p_min,
        )


def _central_difference(a: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Second-order central difference along ``axis`` of a padded scalar
    field, on interior cells."""
    g, b = grid.ghost, along(a, axis)
    return along(b[g + 1:1 - g, g:-g] - b[g - 1:-g - 1, g:-g], axis) / (2.0 * grid.spacing(axis))


def central_gradient(p: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Second-order central gradient of a padded scalar field (interior)."""
    return _central_difference(p, grid, AXIS_X), _central_difference(p, grid, AXIS_Y)


def discrete_divergence(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Central-difference divergence of a padded vector field (interior)."""
    return _central_difference(u, grid, AXIS_X) + _central_difference(v, grid, AXIS_Y)


def assemble_stiff(coeffs: StiffScalars, Vf: PrimitiveField, grid: GridSpec) -> np.ndarray:
    """Stiff operator with coefficients from one stage applied to the fields
    of another, shape (4, nx, ny).

    The argument order matters: ``coeffs`` carries the (older) stage whose
    extrema freeze the linearization, ``Vf`` the stage being differentiated.
    """
    px, py = central_gradient(Vf.p, grid)
    L = np.zeros((4, grid.nx, grid.ny))
    L[1] = coeffs.inv_eps2_rhomax * px
    L[2] = coeffs.inv_eps2_rhomax * py
    L[3] = coeffs.gamma_pmin * discrete_divergence(Vf.u, Vf.v, grid)
    return L
