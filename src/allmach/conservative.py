"""Explicit central-upwind operator for the conservative system.

Evolves (rho, rho*u, rho*v, E) in flux form, so discrete conservation holds
by telescoping.  Interface states are transformed from the reconstructed
primitive traces; the one-sided speeds use the full sound speed, which grows
like 1/eps, so this operator alone would be impractical at low Mach numbers.
It supplies the shock-correct solution branch at moderate and high Mach
numbers.  Like the nonstiff operator, it is written once along axis 0.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPhysicalState
from .grid import GridSpec, along
from .nonstiff import cu_flux, one_sided_speeds
from .reconstruction import P, RHO, U, V, Traces
from .state import PrimitiveField, SolverConfig, prim_to_cons, primitive_values, total_energy


def sound_speed(rho, p, cfg: SolverConfig):
    return np.sqrt(cfg.gamma * p / rho) / cfg.epsilon


def flux_from_primitive(Vs: np.ndarray, cfg: SolverConfig, axis: int) -> np.ndarray:
    """Exact conservative flux along ``axis`` evaluated from a stacked
    primitive state."""
    rho, un, p = Vs[RHO], Vs[U + axis], Vs[P]
    F = np.empty_like(Vs)
    F[RHO] = rho * un
    F[U + axis] = rho * un * un + p / cfg.epsilon**2
    F[V - axis] = rho * Vs[U] * Vs[V]
    F[P] = un * (total_energy(*Vs, cfg) + p)
    return F


def conservative_flux(Us: np.ndarray, cfg: SolverConfig, axis: int) -> np.ndarray:
    """Exact flux of a stacked conservative state; pressure recovered from
    the equation of state.  Raises NonPhysicalState on non-positive p."""
    Vs = primitive_values(Us, cfg)
    if np.any(Vs[P] <= 0.0):
        raise NonPhysicalState("non-positive pressure in conservative flux")
    return flux_from_primitive(Vs, cfg, axis)


def conservative_speeds(traces: Traces, cfg: SolverConfig, axis: int):
    """Speed estimates from the full-system eigenvalues u_n +- c."""
    minus, plus = traces
    return one_sided_speeds(
        minus, plus,
        sound_speed(minus[RHO], minus[P], cfg),
        sound_speed(plus[RHO], plus[P], cfg),
        cfg.delta, axis,
    )


def cu_flux_conservative(traces: Traces, cfg: SolverConfig, axis: int) -> np.ndarray:
    """Central-upwind fluxes of the conservative system at the interfaces
    normal to ``axis``, shape (4, n+1, m) with the axis first.

    Interface states are the transforms of the reconstructed primitive
    traces; the anti-diffusion term reuses the same one-sided speeds.
    """
    minus, plus = traces
    s_minus, s_plus = conservative_speeds(traces, cfg, axis)
    return cu_flux(
        prim_to_cons(minus, cfg), prim_to_cons(plus, cfg),
        flux_from_primitive(minus, cfg, axis), flux_from_primitive(plus, cfg, axis),
        s_minus, s_plus,
    )


def assemble_conservative_rhs(
    Vf: PrimitiveField,
    grid: GridSpec,
    cfg: SolverConfig,
    traces: list[Traces],
) -> np.ndarray:
    """Semi-discrete rate dU/dt = -div(fluxes) from the reconstruction
    ``traces`` of ``Vf``, shape (4, nx, ny).

    Exactly telescoping under periodic boundaries: the componentwise sum
    over the domain vanishes to round-off.
    """
    D = np.zeros((4, grid.nx, grid.ny))
    for axis, tr in enumerate(traces):
        f = cu_flux_conservative(tr, cfg, axis)
        along(D, axis)[...] -= (f[:, 1:] - f[:, :-1]) / grid.spacing(axis)
    return D
