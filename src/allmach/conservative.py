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


def sound_speed(rho, p, cfg: SolverConfig, out=None):
    """Full sound speed sqrt(gamma p / rho) / eps, written into ``out``, an
    array of p's shape allocated when not given."""
    c = np.divide(p, rho, out=np.empty_like(p) if out is None else out)
    c *= cfg.gamma
    np.sqrt(c, out=c)
    c *= 1.0 / cfg.epsilon  # outside the root, which 1/eps^2 would overflow
    return c


def flux_from_primitive(Vs: np.ndarray, Us: np.ndarray, cfg: SolverConfig, axis: int, out=None) -> np.ndarray:
    """Exact conservative flux along ``axis`` of a stacked state given in
    both forms: primitive ``Vs`` and its transform ``Us = prim_to_cons(Vs)``,
    whose momentum and energy the flux reuses.  Written into ``out`` when
    given, which shares no memory with either form."""
    un, p = Vs[U + axis], Vs[P]
    mn, energy = Us[U + axis], Us[P]
    F = np.empty_like(Vs) if out is None else out
    # [c, ...] is a view also for one state (4,); the tangential row holds
    # p / eps^2 until its own value goes in
    f_normal, f_tangential, f_energy = F[U + axis, ...], F[V - axis, ...], F[P, ...]
    np.multiply(mn, un, out=f_normal)
    f_normal += np.multiply(p, 1.0 / cfg.epsilon**2, out=f_tangential)
    np.multiply(Us[U], Vs[V], out=f_tangential)
    np.add(energy, p, out=f_energy)
    f_energy *= un
    F[RHO] = mn
    return F


def flux_divergence(traces: Traces, cfg: SolverConfig, axis: int, h: float, work=None) -> np.ndarray:
    """Difference quotient (f[i+1/2] - f[i-1/2]) / h of the central-upwind
    fluxes normal to ``axis`` for the cells of one axis-first block, from
    their reconstruction ``traces``, shape (4, n, m).  The semi-discrete rate
    dU/dt is minus its sum over both axes.  The one-sided speeds come from
    u_n +- c and the interface states are the transforms of the traces.

    ``work`` is ``nonstiff_rate``'s; the quotient is a C-contiguous prefix
    view of the first buffer of its first list.  The traces are overwritten:
    once the interface states and their fluxes exist, the central-upwind
    flux works in them.

    Exactly telescoping under periodic boundaries: the componentwise sum of
    the rate over the domain vanishes to round-off.
    """
    minus, plus = traces
    four, faces, m = minus.shape
    if work is None:
        work = [np.empty(minus.size) for _ in range(5)], [np.empty(minus[0].size) for _ in range(5)]
    quads, ones = work
    q0, q1, q2, q3, q4 = (np.ndarray(minus.shape, buffer=b) for b in quads)
    o0, o1, o2, o3, o4 = (np.ndarray(minus[0].shape, buffer=b) for b in ones)
    s_minus, s_plus = one_sided_speeds(
        minus, plus, sound_speed(minus[RHO], minus[P], cfg, o0), sound_speed(plus[RHO], plus[P], cfg, o1),
        axis, (o2, o3, o4),
    )
    u_minus, u_plus = prim_to_cons(minus, cfg, q0), prim_to_cons(plus, cfg, q1)
    f_minus = flux_from_primitive(minus, u_minus, cfg, axis, q2)
    f_plus = flux_from_primitive(plus, u_plus, cfg, axis, q3)
    f = cu_flux(u_minus, u_plus, f_minus, f_plus, s_minus, s_plus, (q4, minus, plus, f_plus, o0, o1, o4))
    div = np.subtract(f[:, 1:], f[:, :-1], out=np.ndarray((four, faces - 1, m), buffer=quads[0]))
    div *= 1.0 / h
    return div
