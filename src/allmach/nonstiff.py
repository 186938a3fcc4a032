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


def modified_sound_speed(rho, p, scalars: SplitScalars, eps: float, gamma: float, out=None, work=None):
    """Sound speed of the split (nonstiff) subsystem.

    O(1) as eps -> 0 for well-prepared data, unlike the full sound speed.
    Works on scalars and arrays alike.  It is written into ``out``, with
    ``work`` as scratch: two arrays of rho's shape, allocated when not given.
    """
    if out is None:
        out, work = np.empty_like(rho), np.empty_like(rho)
    # (rho_max - rho) (p - p_min) / rho * gamma / rho_max; the 1/eps stays
    # outside the root, so nothing overflows where c itself is finite
    radicand = np.subtract(scalars.rho_max, rho, out=out)
    radicand *= np.subtract(p, scalars.p_min, out=work)
    radicand /= rho
    radicand *= gamma / scalars.rho_max
    # the least value that is not NaN: negative exactly when some value is
    if np.fmin.reduce(radicand, axis=None) < 0.0:
        raise NonPhysicalState("negative radicand in modified sound speed (stale split scalars?)")
    c = np.sqrt(radicand, out=radicand)
    c *= 1.0 / eps
    return c


def one_sided_speeds(minus, plus, c_minus, c_plus, axis, work=None):
    """Local speeds of the waves leaving each interface normal to ``axis``
    to the left and right, from the normal velocity plus/minus a sound
    speed, floored away from zero by DELTA.  ``work`` is three arrays of the
    interfaces' shape, allocated when not given: the speeds are written into
    the first two and the third is scratch."""
    un_minus, un_plus = minus[U + axis], plus[U + axis]
    if work is None:
        work = [np.empty_like(un_minus) for _ in range(3)]
    lo, hi, scratch = work
    np.minimum(np.subtract(un_minus, c_minus, out=lo), np.subtract(un_plus, c_plus, out=scratch), out=lo)
    np.maximum(np.add(un_minus, c_minus, out=hi), np.add(un_plus, c_plus, out=scratch), out=hi)
    return np.minimum(lo, -DELTA, out=lo), np.maximum(hi, DELTA, out=hi)


def nonstiff_flux(Vs: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Flux of the split subsystem along ``axis``: (rho*u, u^2/2, 0, 0)
    along x and (rho*v, 0, v^2/2, 0) along y, written into ``out`` when
    given."""
    un = Vs[U + axis]
    F = np.empty_like(Vs) if out is None else out
    F[V - axis] = 0.0
    F[P] = 0.0
    np.multiply(Vs[RHO], un, out=F[RHO, ...])  # [c, ...] is a view also for one state (4,)
    half_square = np.multiply(0.5, un, out=F[U + axis, ...])
    half_square *= un
    return F


def cu_flux(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus, work=None):
    """Central-upwind numerical flux with its built-in anti-diffusion
    (Kurganov & Lin, Commun. Comput. Phys. 2, 2007),
    (s+ f- - s- f+)/(s+ - s-) + s+ s-/(s+ - s-) (v+ - v- - dv), where
    dv = minmod(v+ - v_int, v_int - v-) about the intermediate state
    v_int = (s+ v+ - s- v- - (f+ - f-))/(s+ - s-).

    With A = s+ (v+ - v-) - (f+ - f-), B = (s+ - s-)(v+ - v-) - A,
    a = s+/(s+ - s-) and b = s-/(s+ - s-), the intermediate state's jumps
    are A/(s+ - s-) and B/(s+ - s-), and since s+ - s- > 0 the flux is
    f- + b A - a b minmod(A, B): no speed multiplies a flux.

    Consistency: for equal one-sided states the flux reduces to the exact
    flux of that state.  ``work`` is seven arrays, allocated when not given:
    four of the arguments' broadcast shape, the first of which is left
    holding v+ - v- and the second the flux, and three of the speeds' shape,
    the first two left holding a and b.  The fourth may be ``f_plus``, which
    is read before it is written; the arguments are left unchanged
    otherwise.  Plain float on scalars.
    """
    if work is None:
        shape = np.broadcast(v_minus, v_plus, f_minus, f_plus, s_minus, s_plus).shape
        speeds = np.broadcast(s_minus, s_plus).shape
        work = [np.empty(shape) for _ in range(4)] + [np.empty(speeds) for _ in range(3)]
    jump, flux, lo, B, a, b, ab = work
    np.subtract(v_plus, v_minus, out=jump)
    np.subtract(f_plus, f_minus, out=B)
    A = np.multiply(s_plus, jump, out=flux)
    A -= B
    np.subtract(s_plus, s_minus, out=ab)
    np.multiply(ab, jump, out=B)
    B -= A
    np.divide(1.0, ab, out=ab)
    np.multiply(s_plus, ab, out=a)
    np.multiply(s_minus, ab, out=b)
    np.multiply(a, b, out=ab)
    correction = minmod(A, B, out=B, work=lo)
    correction *= ab
    flux *= b
    flux += f_minus
    flux -= correction
    return float(flux) if flux.ndim == 0 else flux


def _bmat_apply(
    Vs: np.ndarray, w: np.ndarray, scalars: SplitScalars, cfg: SolverConfig, axis: int, out=None, work=None
) -> np.ndarray:
    """Action of the nonstiff nonconservative matrix along ``axis`` on a
    state increment, written into ``out`` with ``work`` as scratch: two
    arrays of one component's shape, allocated with ``out`` when not given.

    Rows: nothing for rho; the density-weighted pressure-gradient coefficient
    for the normal velocity; advection of the tangential velocity; and
    (p - p_min)-weighted dilatation plus pressure advection for p.
    """
    normal, tangential = U + axis, V - axis
    rho, un, p = Vs[RHO], Vs[normal], Vs[P]
    if out is None:
        out, work = np.empty_like(w), (np.empty_like(rho), np.empty_like(rho))
    neg_q, neg_g = work
    # -q = (rho - rho_max) / rho / (eps^2 rho_max), -g = gamma (p_min - p)
    np.subtract(rho, scalars.rho_max, out=neg_q)
    neg_q /= rho
    neg_q *= 1.0 / (cfg.epsilon**2 * scalars.rho_max)
    np.subtract(scalars.p_min, p, out=neg_g)
    neg_g *= cfg.gamma
    out[RHO] = 0.0
    out_n, out_t, out_p = out[normal, ...], out[tangential, ...], out[P, ...]
    np.multiply(neg_q, w[P], out=out_n)  # -q w_p
    np.negative(un, out=out_t)
    out_t *= w[tangential]  # -u_n w_t
    np.multiply(neg_g, w[normal], out=out_p)
    out_p -= np.multiply(un, w[P], out=neg_q)  # -g w_n - u_n w_p
    return out


def nonstiff_rate(
    Vbar: np.ndarray,
    traces: Traces,
    scalars: SplitScalars,
    cfg: SolverConfig,
    axis: int,
    h: float,
    work=None,
) -> np.ndarray:
    """The part of one stage's explicit operator that comes from the
    interfaces normal to ``axis``, for the cells of one axis-first block:
    ``Vbar`` (4, n, m) holds their averages and ``traces`` their
    reconstruction, which the conservative operator shares.

    Summed over both axes, for smooth fields this approximates, to second
    order, the divergence of the mass flux, the velocity advection plus the
    density-weighted pressure gradient, and the pressure advection plus
    (p - p_min)-weighted dilatation.

    ``work`` is a pair of lists of flat float64 buffers, allocated when not
    given: five of at least 4 (n+1) m doubles and five of at least (n+1) m.
    The rate is a C-contiguous prefix view of the fifth buffer of the first
    list, and the central-upwind flux's weights a and b, shape (n+1, m), are
    left in the first two buffers of the second; the traces are left
    unchanged.
    """
    minus, plus = traces
    four, faces, m = minus.shape
    if work is None:
        work = [np.empty(minus.size) for _ in range(5)], [np.empty(minus[0].size) for _ in range(5)]
    quads, ones = work
    q0, q1, q2, q3, q4 = (np.ndarray(minus.shape, buffer=b) for b in quads)
    o0, o1, o2, o3, o4 = (np.ndarray(minus[0].shape, buffer=b) for b in ones)
    # speeds from the split subsystem's eigenvalues u_n +- c_tilde
    s_minus, s_plus = one_sided_speeds(
        minus, plus,
        modified_sound_speed(minus[RHO], minus[P], scalars, cfg.epsilon, cfg.gamma, o0, o2),
        modified_sound_speed(plus[RHO], plus[P], scalars, cfg.epsilon, cfg.gamma, o1, o2),
        axis, (o2, o3, o4),
    )
    f = cu_flux(
        minus, plus, nonstiff_flux(minus, axis, q0), nonstiff_flux(plus, axis, q1), s_minus, s_plus,
        (q2, q3, q4, q1, o0, o1, o4),
    )
    jump, a, b = q2, o0, o1  # plus - minus, s+/(s+ - s-) and s-/(s+ - s-), left by cu_flux
    # path-conservative products: the matrix at the cell average applied to
    # the in-cell jump, and at the midpoint of the linear path between the
    # interface traces applied to the interface jump
    cells = (four, faces - 1, m)
    c0, c1, c4 = (np.ndarray(cells, buffer=quads[i]) for i in (0, 1, 4))
    k2, k3 = (np.ndarray(cells[1:], buffer=ones[i]) for i in (2, 3))
    cell = _bmat_apply(Vbar, np.subtract(minus[:, 1:], plus[:, :-1], out=c0), scalars, cfg, axis, c1, (k2, k3))
    rate = np.subtract(f[:, 1:], f[:, :-1], out=c4)
    rate -= cell
    mid = np.add(minus, plus, out=q0)
    mid *= 0.5
    psi = _bmat_apply(mid, jump, scalars, cfg, axis, q1, (o2, o3))
    rate -= np.multiply(a[:-1], psi[:, :-1], out=c0)
    rate += np.multiply(b[1:], psi[:, 1:], out=c0)
    rate *= 1.0 / h
    return rate
