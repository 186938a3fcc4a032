"""Two-stage semi-implicit time integrator for the dual-state solver.

One step advances the primitive and conservative solution copies together.
Every stage is the same procedure, ``_stage``: from the old state, subtract
dt times the explicit operator brackets, solve the pressure system built from
them, push the velocities by the new pressure gradient, advance the
conservative copy by dt times its rate, and blend the primitive copy with the
conservative one.  The predictor applies it once with the old stage's
explicit operator; with order=2 the corrector applies it again with the
trapezoidal mean of the old and predictor operators plus the half difference
of the matched stiff operators, and the predictor stage's extrema.

The blend weight depends only on the Mach number: at high Mach the
conservative (shock correct) branch wins, at low Mach the pressure-robust
primitive branch is kept.  The time step is CFL-limited by the
split-subsystem speeds, which stay O(1) for any Mach number, so dt is
asymptotically Mach independent.

``run`` steps to one end time and clips its last step to land on it.  A
caller that needs the solution at several times runs to each in turn on one
``RunReport``, whose list of ``StepReport`` is the record of the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .conservative import flux_divergence
from .elliptic import pressure_system, solve_helmholtz
from .errors import NoConvergence, NonPhysicalState
from .grid import AXIS_X, AXIS_Y, GridSpec, along, fill_ghosts, padded
from .nonstiff import DELTA, SplitScalars, modified_sound_speed, nonstiff_rate, split_scalars
from .reconstruction import limited_traces
from .state import (
    ConservativeField,
    PrimitiveField,
    SolverConfig,
    cons_to_prim,
    prim_to_cons,
)
from .stiff import assemble_stiff, central_gradient, discrete_divergence, stiff_coefficients

# Halvings of a failed CFL step before the run gives up on it.
MAX_REJECTIONS = 3

# Blend function: edges of the transition band and the exponent of its branches.
EPS0, EPS1, ALPHA = 0.15, 0.4, 14.0

# Cells across the axis in one strip of build_stage.  Each array of a strip
# (traces, fluxes, temporaries) is 4 x (n+1) x STRIP doubles, about 200 kB at
# n = 200, so the strip's working set stays in a 2 MB per-core L2 where
# whole-grid passes stream every array from L3.  Explosion 200^2 on a 2-core
# Xeon (numpy 2.4), median ms per step of 5 runs: widths 8, 16, 32, 48, 64 and
# 256 took 119, 109, 100, 103, 101 and 127; whole-grid passes took 149.
STRIP = 32


@dataclass
class DualState:
    """The two evolving solution copies plus the current time."""

    V: PrimitiveField
    U: ConservativeField
    t: float = 0.0

    @classmethod
    def from_primitive(
        cls, Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig, t: float = 0.0
    ) -> "DualState":
        fill_ghosts(Vf, grid).validate(grid)
        return cls(Vf, ConservativeField(prim_to_cons(Vf.array, cfg)), t)


@dataclass
class StepReport:
    """Per-step diagnostics."""

    dt: float
    solve_residuals: tuple[float, ...]  # one per pressure solve
    max_divergence: float
    pressure_fluctuation: float


@dataclass
class RunReport:
    """The step reports of a run, in order, and its rejected CFL steps."""

    reports: list[StepReport] = field(default_factory=list)
    rejections: int = 0  # failed CFL steps retried at half the step

    @property
    def steps(self) -> int:
        return len(self.reports)


@dataclass
class StageBuffers:
    """Split scalars and operator fields of one stage."""

    scalars: SplitScalars
    nonstiff: np.ndarray
    cons_rhs: np.ndarray


def build_stage(Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig) -> StageBuffers:
    """Both explicit operators of a stage from one reconstruction pass.

    Each axis, x before y, is cut into strips of STRIP interior cells across
    it, each with its full ghost padding along it.  A strip runs the whole
    pipeline (traces, nonstiff rate, conservative flux divergence) while its
    arrays stay in cache, where whole-grid passes would stream every
    temporary from memory.  Every cell sums its x and then its y part, so
    the result does not depend on the strip width.
    """
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    g = grid.ghost
    R = np.zeros((4, grid.nx, grid.ny))
    D = np.zeros_like(R)
    for axis in (AXIS_X, AXIS_Y):
        Vs, Rs, Ds, h = along(Vf.array, axis), along(R, axis), along(D, axis), grid.spacing(axis)
        m = Rs.shape[-1]
        for j0 in range(0, m, STRIP):
            j1 = min(j0 + STRIP, m)
            block = Vs[..., g + j0:g + j1]
            traces = limited_traces(block, h, cfg.theta, axis, j0)
            Rs[..., j0:j1] += nonstiff_rate(block[:, g:-g], traces, scalars, cfg, axis, h)
            Ds[..., j0:j1] -= flux_divergence(traces, cfg, axis, h)
    return StageBuffers(scalars, R, D)


def compute_dt(
    Vf: PrimitiveField,
    scalars: SplitScalars,
    grid: GridSpec,
    cfg: SolverConfig,
    t_remaining: Optional[float] = None,
) -> float:
    """CFL time step from the split-subsystem speeds on cell averages,
    clipped to the remaining time when given."""
    core = grid.interior
    c_mod = modified_sound_speed(Vf.rho[core], Vf.p[core], scalars, cfg.epsilon, cfg.gamma)
    sx = max(float((np.abs(Vf.u[core]) + c_mod).max()), DELTA)
    sy = max(float((np.abs(Vf.v[core]) + c_mod).max()), DELTA)
    dt = cfg.k_cfl * min(grid.dx / sx, grid.dy / sy)
    if t_remaining is not None:
        dt = min(dt, t_remaining)
    return dt


def switching_weight(eps: float) -> float:
    """Mach-dependent blend weight: 1 at vanishing Mach numbers (keep the
    pressure-robust branch), 0 at Mach one (keep the conservative branch),
    with a smooth bump-function transition in between."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("switching weight defined for 0 < eps <= 1")
    if eps <= EPS0:
        return 1.0 - eps**ALPHA
    if eps >= EPS1:
        return (1.0 - eps) ** ALPHA
    s = ((eps - EPS0) / (EPS1 - EPS0)) ** 2
    bump = math.exp(1.0 - 1.0 / (1.0 - s))
    lo = (1.0 - EPS1) ** ALPHA
    return bump * ((1.0 - EPS0**ALPHA) - lo) + lo


def post_process(
    V_raw: PrimitiveField,
    U: ConservativeField,
    grid: GridSpec,
    cfg: SolverConfig,
) -> PrimitiveField:
    """Convex combination of the primitive copy with the transform of the
    conservative one.  Both inputs arrive with their ghosts filled; the
    transform and the blend act cell by cell, so the result's are filled too.

    Whenever U can influence the result (weight below 1) it is validated
    first.  At vanishing Mach numbers the weight rounds to exactly 1 and U
    is left unchecked: it is still advanced (its fluxes come from V, so it
    stays finite and conservative) but its positivity cannot be maintained
    against the 1/eps^2 flux amplification.  U itself is never modified.
    """
    s = switching_weight(cfg.epsilon)
    if s == 1.0:
        return V_raw
    from_U = cons_to_prim(U.validate(grid, cfg), cfg)
    if s == 0.0:
        return from_U
    return PrimitiveField((1.0 - s) * from_U.array + s * V_raw.array)


def _stage(
    state: DualState,
    brackets: tuple[np.ndarray, ...],
    cons_rate: np.ndarray,
    scalars: SplitScalars,
    dt: float,
    grid: GridSpec,
    cfg: SolverConfig,
) -> tuple[DualState, float]:
    """One semi-implicit stage from ``state``; returns the blended new state
    and the pressure solve's residual.

    ``brackets`` are the interior operator fields that advance the primitive
    copy explicitly, ``cons_rate`` the conservative copy's rate, and
    ``scalars`` the extrema that freeze the stiff coefficients.
    """
    core = grid.interior
    p, _, residual = solve_helmholtz(pressure_system(state.V, brackets, scalars, dt, cfg, grid))

    V = PrimitiveField(state.V.array.copy())
    for E in brackets:
        V.array[core] -= dt * E
    V.p[core] = p
    eps2_rhomax, _ = stiff_coefficients(scalars, cfg)
    push = dt * (1.0 / eps2_rhomax)
    gx, gy = central_gradient(padded(p, grid), grid)
    V.u[core] -= push * gx
    V.v[core] -= push * gy

    U = ConservativeField(state.U.array.copy())
    U.array[core] += dt * cons_rate
    fill_ghosts(U, grid)
    fill_ghosts(V, grid)
    V = post_process(V, U, grid, cfg).validate(grid)
    return DualState(V, U, state.t + dt), residual


def si_dec_step(
    state: DualState,
    grid: GridSpec,
    cfg: SolverConfig,
    dt: Optional[float] = None,
) -> tuple[DualState, StepReport]:
    """Advance both solution copies by one step.

    Propagates NonPhysicalState and NoConvergence; the state is untouched on
    failure.
    """
    stage_n = build_stage(state.V, grid, cfg)
    if dt is None:
        dt = compute_dt(state.V, stage_n.scalars, grid, cfg)
    new, res = _stage(
        state, (stage_n.nonstiff,), stage_n.cons_rhs, stage_n.scalars, dt, grid, cfg
    )
    residuals = (res,)

    if cfg.order == 2:
        stage_s = build_stage(new.V, grid, cfg)
        L_nn = assemble_stiff(stage_n.scalars, cfg, state.V, grid)
        L_ss = assemble_stiff(stage_s.scalars, cfg, new.V, grid)
        brackets = (0.5 * (stage_n.nonstiff + stage_s.nonstiff), 0.5 * (L_nn - L_ss))
        cons_rate = 0.5 * (stage_n.cons_rhs + stage_s.cons_rhs)
        new, res = _stage(state, brackets, cons_rate, stage_s.scalars, dt, grid, cfg)
        residuals += (res,)

    V, core = new.V, grid.interior
    max_div = float(np.abs(discrete_divergence(V.u, V.v, grid)).max())
    p_fluct = float(V.p[core].max() - V.p[core].min())
    return new, StepReport(dt, residuals, max_div, p_fluct)


Callback = Callable[[float, DualState, StepReport], Optional[bool]]


def run(
    state: DualState,
    grid: GridSpec,
    cfg: SolverConfig,
    t_final: float,
    callback: Optional[Callback] = None,
    report: Optional[RunReport] = None,
) -> tuple[DualState, RunReport]:
    """Step until t_final (the last step is clipped to land exactly); the
    callback runs after every step and may return False to stop early.

    Each step's StepReport is appended to ``report`` (a new RunReport unless
    given).  Runs that continue one another on one report count as one run:
    the ``cfg.dt_override`` forced steps, the rejections and the step index
    in errors all carry over.

    A CFL step that raises NonPhysicalState or NoConvergence is retried from
    the same state at half the step, up to MAX_REJECTIONS times; each retry
    counts in ``RunReport.rejections``.  A forced step is never retried.  The
    failure that ends the run is re-raised as the same exception type,
    prefixed with the step index and its start time.
    """
    if t_final < state.t:
        raise ValueError("t_final precedes the current time")
    report = RunReport() if report is None else report
    rel_eps = 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final - rel_eps:
        remaining = t_final - state.t
        forced = cfg.dt_override is not None and report.steps < cfg.dt_override[0]
        if forced:
            dt = min(cfg.dt_override[1], remaining)
        else:
            scalars = split_scalars(state.V, grid, cfg.epsilon)
            dt = compute_dt(state.V, scalars, grid, cfg, remaining)
        for attempt in range(MAX_REJECTIONS + 1):
            try:
                state, step_rep = si_dec_step(state, grid, cfg, dt)
                break
            except (NonPhysicalState, NoConvergence) as exc:
                if forced or attempt == MAX_REJECTIONS:
                    raise type(exc)(f"step {report.steps}, t={state.t:.6g}: {exc}") from exc
                report.rejections += 1
                dt *= 0.5
        report.reports.append(step_rep)
        if callback is not None and callback(state.t, state, step_rep) is False:
            break
    return state, report
