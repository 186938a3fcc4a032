"""Explicit (nonstiff) operator for the primitive-variable system.

The primitive system is split so that only material waves remain explicit:
subtracting a global reference pressure gradient and velocity divergence
leaves a subsystem whose wave speeds stay O(1) as the Mach number vanishes.
This module assembles that subsystem's update rate with a path-conservative
central-upwind discretization: limited interface traces, one-sided local
speeds built from a modified sound speed, central-upwind fluxes with a
built-in anti-diffusion term, and nonconservative products evaluated along a
linear path with the midpoint rule.  Each of these pieces is written once,
along axis 0, and runs along y on transposed views with the roles of the
normal and tangential velocity exchanged.

``nonstiff_rate`` returns the part of the operator one axis contributes
to the cells of one axis-first block of the grid, shape (4, n, m) ordered
(rho, u, v, p); ``integrator.build_stage`` adds these into the step's
(4, nx, ny) operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalState
from .grid import GridSpec
from .reconstruction import P, RHO, U, V, Traces, minmod
from .state import PrimitiveField, SolverConfig

# Floor that keeps the one-sided local speeds away from zero.
DELTA = 1e-15


@dataclass(frozen=True)
class SplitScalars:
    """Global splitting quantities of one stage: shifted field extrema.

    The eps^4 shift keeps the modified sound speed strictly positive (extra
    upwinding) when the Mach number is large; it is negligible otherwise.
    """

    rho_max: float
    p_min: float


def split_scalars(Vf: PrimitiveField, grid: GridSpec, eps: float) -> SplitScalars:
    """Shifted extrema of density and pressure over the interior cells."""
    core = grid.interior
    shift = eps**4
    return SplitScalars(
        rho_max=float(Vf.rho[core].max()) + shift,
        p_min=float(Vf.p[core].min()) - shift,
    )


def modified_sound_speed(rho, p, scalars: SplitScalars, eps: float, gamma: float):
    """Sound speed of the split (nonstiff) subsystem.

    O(1) as eps -> 0 for well-prepared data, unlike the full sound speed.
    Works on scalars and arrays alike.
    """
    radicand = gamma * (scalars.rho_max - rho) * (p - scalars.p_min) / (rho * scalars.rho_max)
    if np.any(np.asarray(radicand) < 0.0):
        raise NonPhysicalState("negative radicand in modified sound speed (stale split scalars?)")
    return np.sqrt(radicand) / eps


def one_sided_speeds(minus, plus, c_minus, c_plus, axis):
    """Local speeds of the waves leaving each interface normal to ``axis``
    to the left and right, from the normal velocity plus/minus a sound
    speed, floored away from zero by DELTA."""
    un_minus, un_plus = minus[U + axis], plus[U + axis]
    lo = np.minimum(un_minus - c_minus, un_plus - c_plus)
    hi = np.maximum(un_minus + c_minus, un_plus + c_plus)
    return np.minimum(lo, -DELTA), np.maximum(hi, DELTA)


def nonstiff_flux(Vs: np.ndarray, axis: int) -> np.ndarray:
    """Flux of the split subsystem along ``axis``: (rho*u, u^2/2, 0, 0)
    along x and (rho*v, 0, v^2/2, 0) along y."""
    un = Vs[U + axis]
    F = np.zeros_like(Vs)
    F[RHO] = Vs[RHO] * un
    F[U + axis] = 0.5 * un * un
    return F


def antidiffusion(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus):
    """Built-in anti-diffusion correction of the central-upwind flux.

    Uses the intermediate state reconstructed from the one-sided speeds; the
    minmod keeps the correction between zero and the interface jump.  Works
    in place on two arrays of its own and returns one of them.
    """
    v_int = np.asarray(s_plus * v_plus)
    scratch = np.asarray(s_minus * v_minus)
    v_int -= scratch
    v_int -= f_plus
    v_int += f_minus
    v_int /= s_plus - s_minus
    np.subtract(v_int, v_minus, out=scratch)
    np.subtract(v_plus, v_int, out=v_int)
    return minmod(scratch, v_int, out=v_int)


# cu_flux, antidiffusion, minmod(out=) and compute_slopes work in place.  With
# them, the two operators' differences and limited_traces' slope scaling all
# written as plain expressions, every step digest stayed bit-identical, but on
# a 2-core Xeon (numpy 2.4), in 4 of 4 paired runs, gresho eps 1e-3 128^2 took
# 42-49 ms per step against 32-35 and explosion 200^2 took 77-92 against
# 72-80, and gresho's step peak rose from 5.47 to 6.33 state arrays.
def cu_flux(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus):
    """Central-upwind numerical flux with anti-diffusion,
    (s+ f- - s- f+)/(s+ - s-) + (s+ s-/(s+ - s-)) (v+ - v- - dv).

    Consistency: for equal one-sided states the flux reduces to the exact
    flux of that state.  Works in place on the anti-diffusion's array and
    one scratch array; plain float on scalars.
    """
    dv = antidiffusion(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus)
    den = s_plus - s_minus
    flux = np.asarray(s_plus * f_minus)
    scratch = np.asarray(s_minus * f_plus)
    flux -= scratch
    flux /= den
    np.subtract(v_plus, v_minus, out=scratch)
    scratch -= dv
    scratch *= s_plus * s_minus / den
    flux += scratch
    return float(flux) if flux.ndim == 0 else flux


def _bmat_apply(
    Vs: np.ndarray, w: np.ndarray, scalars: SplitScalars, cfg: SolverConfig, axis: int
) -> np.ndarray:
    """Action of the nonstiff nonconservative matrix along ``axis`` on a
    state increment.

    Rows: nothing for rho; the density-weighted pressure-gradient coefficient
    for the normal velocity; advection of the tangential velocity; and
    (p - p_min)-weighted dilatation plus pressure advection for p.
    """
    normal, tangential = U + axis, V - axis
    rho, un, p = Vs[RHO], Vs[normal], Vs[P]
    q = (scalars.rho_max - rho) / (cfg.epsilon**2 * rho * scalars.rho_max)
    g = cfg.gamma * (p - scalars.p_min)
    out = np.zeros_like(w)
    out[normal] = -q * w[P]
    out[tangential] = -un * w[tangential]
    out[P] = -g * w[normal] - un * w[P]
    return out


def nonstiff_rate(
    Vbar: np.ndarray,
    traces: Traces,
    scalars: SplitScalars,
    cfg: SolverConfig,
    axis: int,
    h: float,
) -> np.ndarray:
    """The part of one stage's explicit operator that comes from the
    interfaces normal to ``axis``, for the cells of one axis-first block:
    ``Vbar`` (4, n, m) holds their averages and ``traces`` their
    reconstruction, which the conservative operator shares.

    Summed over both axes, for smooth fields this approximates, to second
    order, the divergence of the mass flux, the velocity advection plus the
    density-weighted pressure gradient, and the pressure advection plus
    (p - p_min)-weighted dilatation.
    """
    minus, plus = traces
    # speeds from the split subsystem's eigenvalues u_n +- c_tilde
    s_minus, s_plus = one_sided_speeds(
        minus, plus,
        modified_sound_speed(minus[RHO], minus[P], scalars, cfg.epsilon, cfg.gamma),
        modified_sound_speed(plus[RHO], plus[P], scalars, cfg.epsilon, cfg.gamma),
        axis,
    )
    f = cu_flux(minus, plus, nonstiff_flux(minus, axis), nonstiff_flux(plus, axis), s_minus, s_plus)
    # path-conservative products: the matrix at the cell average applied to
    # the in-cell jump, and at the midpoint of the linear path between the
    # interface traces applied to the interface jump
    cell = _bmat_apply(Vbar, minus[:, 1:] - plus[:, :-1], scalars, cfg, axis)
    psi = _bmat_apply(0.5 * (minus + plus), plus - minus, scalars, cfg, axis)
    den = s_plus - s_minus
    rate = f[:, 1:] - f[:, :-1]
    rate -= cell
    rate -= (s_plus[:-1] / den[:-1]) * psi[:, :-1]
    rate += (s_minus[1:] / den[1:]) * psi[:, 1:]
    rate /= h
    return rate
