"""State containers, variable transforms, and run configuration.

Two representations of the gas state are carried side by side: primitive
(density, velocity, pressure) and conservative (density, momentum, total
energy).  Each stores its four components in one ghost-padded array,
component first, so transforms, ghost fills and updates act on the whole
state at once.

The nondimensional equation of state ties them together:

    E = p / (gamma - 1) + (eps^2 / 2) * rho * (u^2 + v^2)

where eps is the reference Mach number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonPhysicalState
from .grid import GridSpec


@dataclass
class SolverConfig:
    """Run parameters: Mach number, gas, CFL number, limiter, order.

    dt_override, when set to ``(count, value)``, pins the first ``count``
    time steps to ``value`` before the CFL rule takes over.  The scheme's
    fixed constants are not settable: the speed floor is ``nonstiff.DELTA``
    and the blend function's are ``integrator.EPS0``, ``EPS1`` and ``ALPHA``.
    """

    epsilon: float
    gamma: float = 1.4
    k_cfl: float = 0.475
    theta: float = 1.3
    order: int = 2
    dt_override: Optional[tuple[int, float]] = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.epsilon**2 == 0.0 or not math.isfinite(1.0 / self.epsilon**2):
            raise ValueError(f"epsilon={self.epsilon:g} is too small: 1/epsilon^2 overflows")
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("gamma must exceed 1 and be finite")
        if not 0.0 < self.k_cfl < math.inf:
            raise ValueError("k_cfl must be positive and finite")
        if self.dt_override is not None and not (
            self.dt_override[0] >= 0 and 0.0 < self.dt_override[1] < math.inf
        ):
            raise ValueError("dt_override needs a non-negative count and a positive finite step")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


class _Field:
    """Cell averages of four components in one ghost-padded array of shape
    (4, nx+2g, ny+2g); the named components are writable views into it."""

    names: tuple[str, ...]

    def __init__(self, array: np.ndarray):
        self.array = array

    def check_finite(self, grid: GridSpec) -> None:
        """Raise NonPhysicalState, naming the first component with a
        non-finite interior value and its cell, unless all are finite."""
        values = self.array[grid.interior]
        finite = np.isfinite(values)
        if not finite.all():
            c = int(np.argmin(finite.all(axis=(1, 2))))
            raise _at_cell(f"non-finite {self.names[c]}", values[c], np.argmin(finite[c]))

    def components(self):
        return tuple(self.array)

    def copy(self):
        return type(self)(self.array.copy())

    @classmethod
    def zeros(cls, grid: GridSpec):
        return cls(np.zeros((4,) + grid.shape))


def _component(index: int) -> property:
    def write(fld, value):
        fld.array[index] = value

    return property(lambda fld: fld.array[index], write)


def _at_cell(what: str, values: np.ndarray, flat: int) -> NonPhysicalState:
    """The error naming interior cell ``flat`` of ``values`` and its value."""
    i, j = np.unravel_index(flat, values.shape)
    return NonPhysicalState(f"{what} at cell ({i}, {j}): {values[i, j]:.6g}")


def _check_positive(what: str, values: np.ndarray) -> None:
    """Raise naming the lowest interior cell unless every value is positive."""
    if (values <= 0.0).any():
        raise _at_cell(f"non-positive {what}", values, np.argmin(values))


class PrimitiveField(_Field):
    """Cell averages of (rho, u, v, p) on a ghost-padded grid."""

    names = ("rho", "u", "v", "p")
    rho, u, v, p = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec) -> "PrimitiveField":
        """Raise NonPhysicalState, naming the failing interior cell, unless
        interior cells are finite with positive density and pressure."""
        core = grid.interior
        self.check_finite(grid)
        _check_positive("density", self.rho[core])
        _check_positive("pressure", self.p[core])
        return self


class ConservativeField(_Field):
    """Cell averages of (rho, rho*u, rho*v, E) on the same grid."""

    names = ("rho", "mx", "my", "E")
    rho, mx, my, E = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec, cfg: SolverConfig) -> "ConservativeField":
        core = grid.interior
        self.check_finite(grid)
        rho = self.rho[core]
        _check_positive("density", rho)
        kinetic = 0.5 * cfg.epsilon**2 * (self.mx[core] ** 2 + self.my[core] ** 2) / rho
        _check_positive("internal energy", self.E[core] - kinetic)
        return self


def total_energy(rho, u, v, p, cfg: SolverConfig):
    """Equation of state: total energy from primitive quantities."""
    return p / (cfg.gamma - 1.0) + 0.5 * cfg.epsilon**2 * rho * (u * u + v * v)


def prim_to_cons(Vs: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Transform stacked (rho, u, v, p) values, shape (4, ...), to
    (rho, rho*u, rho*v, E)."""
    Us = np.empty_like(Vs)
    Us[0] = Vs[0]
    Us[1:3] = Vs[0] * Vs[1:3]
    Us[3] = total_energy(*Vs, cfg)
    return Us


def cons_to_prim(U: ConservativeField, cfg: SolverConfig) -> PrimitiveField:
    """Conservative to primitive transform, the inverse of ``prim_to_cons``
    on every cell.  No positivity check here: ``ConservativeField.validate``
    is that check."""
    Us = U.array
    Vs = np.empty_like(Us)
    Vs[0] = Us[0]
    Vs[1:3] = Us[1:3] / Us[0]
    u, v = Vs[1], Vs[2]
    Vs[3] = (cfg.gamma - 1.0) * (Us[3] - 0.5 * cfg.epsilon**2 * Us[0] * (u * u + v * v))
    return PrimitiveField(Vs)
