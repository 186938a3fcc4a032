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
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonPhysicalState
from .grid import GridSpec


@dataclass
class SolverConfig:
    """Run parameters: Mach number, gas, CFL number, limiter.

    dt_override, when set to ``(count, value)`` with an integer count, pins
    the first ``count`` time steps to ``value`` before the CFL rule takes
    over.  The scheme's fixed constants are not settable: the speed floor is
    ``nonstiff.DELTA`` and the blend function's are ``integrator.EPS0``,
    ``EPS1`` and ``ALPHA``.
    """

    epsilon: float
    gamma: float = 1.4
    k_cfl: float = 0.475
    theta: float = 1.3
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
        if self.dt_override is not None:
            try:
                count, step = self.dt_override
                valid = operator.index(count) >= 0 and 0.0 < step < math.inf
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ValueError("dt_override needs an integer count >= 0 and a positive finite step")
        if not 1.0 <= self.theta <= 2.0:
            raise ValueError("theta must lie in [1, 2]")


class _Field:
    """Cell averages of four components in one ghost-padded array of shape
    (4, nx+2g, ny+2g); the named components are writable views into it.
    ``label`` names the solution copy in the messages of failed checks."""

    names: tuple[str, ...]
    label: str

    def __init__(self, array: np.ndarray):
        self.array = array

    def check_finite(self, grid: GridSpec) -> None:
        """Raise NonPhysicalState, naming the first component with a
        non-finite interior value and its cell, unless all are finite."""
        values = self.array[grid.interior]
        finite = np.isfinite(values)
        if not finite.all():
            c = int(np.argmin(finite.all(axis=(1, 2))))
            raise _at_cell(f"{self.label}: non-finite {self.names[c]}", values[c], np.argmin(finite[c]))

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


def _check_positive(fld: _Field, what: str, values: np.ndarray) -> None:
    """Raise naming the copy and its lowest interior cell unless every value
    is positive."""
    if (values <= 0.0).any():
        raise _at_cell(f"{fld.label}: non-positive {what}", values, np.argmin(values))


class PrimitiveField(_Field):
    """Cell averages of (rho, u, v, p) on a ghost-padded grid."""

    names = ("rho", "u", "v", "p")
    label = "primitive state"
    rho, u, v, p = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec) -> "PrimitiveField":
        """Raise NonPhysicalState, naming the failing interior cell, unless
        interior cells are finite with positive density and pressure."""
        core = grid.interior
        self.check_finite(grid)
        _check_positive(self, "density", self.rho[core])
        _check_positive(self, "pressure", self.p[core])
        return self


class ConservativeField(_Field):
    """Cell averages of (rho, rho*u, rho*v, E) on the same grid."""

    names = ("rho", "mx", "my", "E")
    label = "conservative copy"
    rho, mx, my, E = (_component(i) for i in range(4))

    def validate(self, grid: GridSpec, cfg: SolverConfig) -> "ConservativeField":
        core = grid.interior
        self.check_finite(grid)
        rho = self.rho[core]
        _check_positive(self, "density", rho)
        internal = self.mx[core] ** 2  # E - eps^2 |m|^2 / (2 rho), formed in place
        internal += self.my[core] ** 2
        internal *= 0.5 * cfg.epsilon**2
        internal /= rho
        np.subtract(self.E[core], internal, out=internal)
        _check_positive(self, "internal energy", internal)
        return self


def prim_to_cons(Vs: np.ndarray, cfg: SolverConfig, out=None) -> np.ndarray:
    """Transform stacked (rho, u, v, p) values, shape (4, ...), to
    (rho, rho*u, rho*v, E), written into ``out`` when given, which shares no
    memory with ``Vs``."""
    rho, u, v, p = Vs
    Us = np.empty_like(Vs) if out is None else out
    # E = p / (gamma - 1) + (eps^2 / 2) rho (u^2 + v^2); [c, ...] is a view
    # also for one state (4,), and the density row is scratch until rho goes in
    energy, scratch = Us[3, ...], Us[0, ...]
    np.multiply(u, u, out=energy)
    energy += np.multiply(v, v, out=scratch)
    energy *= np.multiply(0.5 * cfg.epsilon**2, rho, out=scratch)
    energy += np.multiply(p, 1.0 / (cfg.gamma - 1.0), out=scratch)
    Us[0] = rho
    np.multiply(rho, Vs[1:3], out=Us[1:3])
    return Us


def primitive_components(Us: np.ndarray, cfg: SolverConfig):
    """Yield ``(c, values)`` for each primitive component c = 0 .. 3 (rho, u,
    v, p) of stacked conservative values ``Us``, the inverse of
    ``prim_to_cons`` on every cell.

    ``values`` is read-only and valid until the next component is drawn: rho
    is a view of ``Us`` and the others share one scratch array.  At most two
    scalar arrays are live here, so u and v are divided out once more for the
    kinetic energy rather than kept.
    """
    rho = Us[0]
    yield 0, rho
    scratch = np.empty_like(rho)
    for c in (1, 2):
        yield c, np.divide(Us[c], rho, out=scratch)
    speed2 = Us[1] / rho
    speed2 *= speed2
    np.divide(Us[2], rho, out=scratch)
    scratch *= scratch
    speed2 += scratch
    np.multiply(0.5 * cfg.epsilon**2, rho, out=scratch)
    scratch *= speed2
    del speed2
    np.subtract(Us[3], scratch, out=scratch)
    scratch *= cfg.gamma - 1.0
    yield 3, scratch

