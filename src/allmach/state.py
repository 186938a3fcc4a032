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
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.k_cfl <= 0.0:
            raise ValueError("k_cfl must be positive")
        if self.dt_override is not None and (self.dt_override[0] < 0 or self.dt_override[1] <= 0.0):
            raise ValueError("dt_override needs a non-negative count and a positive step")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


class _Field:
    """Cell averages of four components in one ghost-padded array of shape
    (4, nx+2g, ny+2g); the named components are writable views into it."""

    def __init__(self, array: np.ndarray):
        self.array = array

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


def _check_finite(fld: _Field, names, grid: GridSpec) -> None:
    finite = np.isfinite(fld.array[grid.interior]).all(axis=(1, 2))
    for name, ok in zip(names, finite):
        if not ok:
            raise NonPhysicalState(f"non-finite {name}")


class PrimitiveField(_Field):
    """Cell averages of (rho, u, v, p) on a ghost-padded grid."""

    rho, u, v, p = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec) -> "PrimitiveField":
        """Raise NonPhysicalState unless interior cells are finite with
        positive density and pressure."""
        core = grid.interior
        _check_finite(self, ("rho", "u", "v", "p"), grid)
        if (self.rho[core] <= 0.0).any():
            raise NonPhysicalState("non-positive density")
        if (self.p[core] <= 0.0).any():
            raise NonPhysicalState("non-positive pressure")
        return self


class ConservativeField(_Field):
    """Cell averages of (rho, rho*u, rho*v, E) on the same grid."""

    rho, mx, my, E = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec, cfg: SolverConfig) -> "ConservativeField":
        core = grid.interior
        _check_finite(self, ("rho", "mx", "my", "E"), grid)
        rho = self.rho[core]
        if (rho <= 0.0).any():
            raise NonPhysicalState("non-positive density")
        kinetic = 0.5 * cfg.epsilon**2 * (self.mx[core] ** 2 + self.my[core] ** 2) / rho
        if (self.E[core] - kinetic <= 0.0).any():
            raise NonPhysicalState("non-positive internal energy")
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
