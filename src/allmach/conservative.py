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

from .nonstiff import cu_flux, one_sided_speeds
from .reconstruction import P, RHO, U, V, Traces
from .state import SolverConfig, prim_to_cons


def sound_speed(rho, p, cfg: SolverConfig):
    return np.sqrt(cfg.gamma * p / rho) / cfg.epsilon


def flux_from_primitive(Vs: np.ndarray, Us: np.ndarray, cfg: SolverConfig, axis: int) -> np.ndarray:
    """Exact conservative flux along ``axis`` of a stacked state given in
    both forms: primitive ``Vs`` and its transform ``Us = prim_to_cons(Vs)``,
    whose momentum and energy the flux reuses."""
    un, p = Vs[U + axis], Vs[P]
    mn, energy = Us[U + axis], Us[P]
    F = np.empty_like(Vs)
    F[RHO] = mn
    F[U + axis] = mn * un + p / cfg.epsilon**2
    F[V - axis] = Us[U] * Vs[V]
    F[P] = un * (energy + p)
    return F


def flux_divergence(traces: Traces, cfg: SolverConfig, axis: int, h: float) -> np.ndarray:
    """Difference quotient (f[i+1/2] - f[i-1/2]) / h of the central-upwind
    fluxes normal to ``axis`` for the cells of one axis-first block, from
    their reconstruction ``traces``, shape (4, n, m).  The semi-discrete rate
    dU/dt is minus its sum over both axes.  The one-sided speeds come from
    u_n +- c and the interface states are the transforms of the traces.

    Exactly telescoping under periodic boundaries: the componentwise sum of
    the rate over the domain vanishes to round-off.
    """
    minus, plus = traces
    s_minus, s_plus = one_sided_speeds(
        minus, plus, sound_speed(minus[RHO], minus[P], cfg), sound_speed(plus[RHO], plus[P], cfg), axis
    )
    u_minus, u_plus = prim_to_cons(minus, cfg), prim_to_cons(plus, cfg)
    f = cu_flux(
        u_minus, u_plus,
        flux_from_primitive(minus, u_minus, cfg, axis),
        flux_from_primitive(plus, u_plus, cfg, axis),
        s_minus, s_plus,
    )
    div = f[:, 1:] - f[:, :-1]
    div /= h
    return div
