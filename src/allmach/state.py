"""State containers, variable transforms, and run configuration.

Two representations of the gas state are carried side by side: primitive
(density, velocity, pressure) and conservative (density, momentum, total
energy).  Both store each component as its own padded scalar array so stencil
passes sweep one component at a time.

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
    """Scheme parameters.

    dt_override, when set to ``(count, value)``, pins the first ``count``
    time steps to ``value`` before the CFL rule takes over.
    """

    epsilon: float
    gamma: float = 1.4
    k_cfl: float = 0.475
    theta: float = 1.3
    delta: float = 1e-15
    eps0: float = 0.15
    eps1: float = 0.4
    alpha: float = 14.0
    order: int = 2
    dt_override: Optional[tuple[int, float]] = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if not 0.0 < self.eps0 < self.eps1 < 1.0:
            raise ValueError("need 0 < eps0 < eps1 < 1")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


@dataclass
class PrimitiveField:
    """Cell averages of (rho, u, v, p) on a ghost-padded grid."""

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def components(self):
        return (self.rho, self.u, self.v, self.p)

    def stacked(self) -> np.ndarray:
        """Component-major view, shape (4, nx+2g, ny+2g)."""
        return np.stack(self.components())

    def copy(self) -> "PrimitiveField":
        return PrimitiveField(*(a.copy() for a in self.components()))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "PrimitiveField":
        return cls(grid.zeros(), grid.zeros(), grid.zeros(), grid.zeros())

    def validate(self, grid: GridSpec) -> "PrimitiveField":
        """Raise NonPhysicalState unless interior cells are finite with
        positive density and pressure."""
        core = grid.interior
        for name, a in zip(("rho", "u", "v", "p"), self.components()):
            if not np.isfinite(a[core]).all():
                raise NonPhysicalState(f"non-finite {name}")
        if (self.rho[core] <= 0.0).any():
            raise NonPhysicalState("non-positive density")
        if (self.p[core] <= 0.0).any():
            raise NonPhysicalState("non-positive pressure")
        return self


@dataclass
class ConservativeField:
    """Cell averages of (rho, rho*u, rho*v, E) on the same grid."""

    rho: np.ndarray
    mx: np.ndarray
    my: np.ndarray
    E: np.ndarray

    def components(self):
        return (self.rho, self.mx, self.my, self.E)

    def stacked(self) -> np.ndarray:
        return np.stack(self.components())

    def copy(self) -> "ConservativeField":
        return ConservativeField(*(a.copy() for a in self.components()))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ConservativeField":
        return cls(grid.zeros(), grid.zeros(), grid.zeros(), grid.zeros())

    def validate(self, grid: GridSpec, cfg: SolverConfig) -> "ConservativeField":
        core = grid.interior
        for name, a in zip(("rho", "mx", "my", "E"), self.components()):
            if not np.isfinite(a[core]).all():
                raise NonPhysicalState(f"non-finite {name}")
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


def pressure_from_conserved(rho, mx, my, E, cfg: SolverConfig):
    """Invert the equation of state.  No positivity check here."""
    kinetic = 0.5 * cfg.epsilon**2 * (mx * mx + my * my) / rho
    return (cfg.gamma - 1.0) * (E - kinetic)


def prim_to_cons(V: PrimitiveField, cfg: SolverConfig) -> ConservativeField:
    """Primitive to conservative transform, componentwise on whole arrays."""
    return ConservativeField(
        V.rho.copy(),
        V.rho * V.u,
        V.rho * V.v,
        total_energy(V.rho, V.u, V.v, V.p, cfg),
    )


def cons_to_prim(U: ConservativeField, grid: GridSpec, cfg: SolverConfig) -> PrimitiveField:
    """Conservative to primitive transform.

    Raises NonPhysicalState if any interior density or recovered pressure is
    non-positive (solver blow-up: abort the step).
    """
    core = grid.interior
    if (U.rho[core] <= 0.0).any() or not np.isfinite(U.rho[core]).all():
        raise NonPhysicalState("non-positive density in conservative state")
    with np.errstate(divide="ignore", invalid="ignore"):
        u = U.mx / U.rho
        v = U.my / U.rho
        p = (cfg.gamma - 1.0) * (U.E - 0.5 * cfg.epsilon**2 * U.rho * (u * u + v * v))
    if (p[core] <= 0.0).any() or not np.isfinite(p[core]).all():
        raise NonPhysicalState("non-positive recovered pressure")
    return PrimitiveField(U.rho.copy(), u, v, p)


def prim_stack_to_cons(Vs: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Transform a stacked (4, ...) primitive state array to conservative."""
    rho, u, v, p = Vs
    return np.stack((rho, rho * u, rho * v, total_energy(rho, u, v, p, cfg)))
