"""Uniform Cartesian grid geometry and ghost-cell boundary handling.

Fields live on ghost-padded arrays whose last two axes have shape
``(nx + 2*ghost, ny + 2*ghost)``, x before y; a state stacks its four
components in front, ``(4, nx + 2*ghost, ny + 2*ghost)``.  The ghost depth is
fixed to 2: interface reconstruction at a physical boundary needs a limited
slope in the first ghost cell, which in turn needs one further neighbor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

PERIODIC = "periodic"
OUTFLOW = "outflow"

AXIS_X, AXIS_Y = 0, 1


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform 2-D cell grid plus per-axis boundary kinds."""

    nx: int
    ny: int
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    bc_x: str = PERIODIC
    bc_y: str = PERIODIC
    ghost: ClassVar[int] = 2
    dx: float = field(init=False)
    dy: float = field(init=False)

    def __post_init__(self):
        try:
            operator.index(self.nx), operator.index(self.ny)
        except TypeError:
            raise ValueError(f"grid sizes must be integers, got {self.nx!r} x {self.ny!r}") from None
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs at least 3 cells per axis")
        if not np.isfinite([self.x_lo, self.x_hi, self.y_lo, self.y_hi]).all():
            raise ValueError("domain bounds must be finite")
        if self.x_hi <= self.x_lo or self.y_hi <= self.y_lo:
            raise ValueError("domain bounds must be increasing")
        for bc in (self.bc_x, self.bc_y):
            if bc not in (PERIODIC, OUTFLOW):
                raise ValueError(f"unknown boundary kind {bc!r}")
        object.__setattr__(self, "dx", (self.x_hi - self.x_lo) / self.nx)
        object.__setattr__(self, "dy", (self.y_hi - self.y_lo) / self.ny)

    @property
    def shape(self) -> tuple[int, int]:
        """Padded array shape."""
        g = self.ghost
        return (self.nx + 2 * g, self.ny + 2 * g)

    @property
    def interior(self) -> tuple:
        """Index selecting the interior cells of a padded scalar or stacked array."""
        g = self.ghost
        return (..., slice(g, g + self.nx), slice(g, g + self.ny))

    def spacing(self, axis: int) -> float:
        return (self.dx, self.dy)[axis]

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior cell-center coordinates as (nx, ny) meshes."""
        x = self.x_lo + (np.arange(self.nx) + 0.5) * self.dx
        y = self.y_lo + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


def along(a: np.ndarray, axis: int) -> np.ndarray:
    """View of ``a`` with the given grid axis in front of the other one.

    Dimension-by-dimension kernels are written once along x; they run along
    y on this transposed view of their inputs and outputs.
    """
    return a if axis == AXIS_X else a.swapaxes(-2, -1)


def fill_ghost_array(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Fill the ghost layers of a padded scalar or stacked array in place.

    Periodic axes copy wrapped interior values; outflow axes extrapolate the
    nearest interior cell at zeroth order.  Filling x then y makes corner
    ghosts consistent with both axes.  Idempotent.
    """
    g = grid.ghost
    for axis, bc in ((AXIS_X, grid.bc_x), (AXIS_Y, grid.bc_y)):
        b = along(a, axis)
        if bc == PERIODIC:
            b[..., :g, :] = b[..., -2 * g:-g, :]
            b[..., -g:, :] = b[..., g:2 * g, :]
        else:
            b[..., :g, :] = b[..., g:g + 1, :]
            b[..., -g:, :] = b[..., -g - 1:-g, :]
    return a


def padded(interior: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Padded copy of an interior scalar field, ghosts filled by the grid's rule."""
    a = np.zeros(grid.shape)
    a[grid.interior] = interior
    return fill_ghost_array(a, grid)
