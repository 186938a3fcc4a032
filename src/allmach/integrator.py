"""Two-stage semi-implicit time integrator for the dual-state solver.

Every stage advances the primitive and conservative solution copies together
by the same procedure, ``_advance``: from the old state, form the explicit
prediction V* = V - dt * E, solve the pressure system of V*, push each
velocity component by the new pressure's difference along its axis, and
advance the conservative copy by dt times its rate.  The blend of the two
copies, ``post_process``, follows.
A step is a predictor and a trapezoidal corrector, and owns one operator
pair, E and the conservative rate.  The predictor applies it with the old
stage's operators; then the predicted stage's operators and the difference
of the matched stiff operators are added on top, and the corrector applies
the halved sum, the trapezoidal mean, with the predicted stage's extrema.
The pair is freed before the last blend.

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
from .grid import AXIS_X, AXIS_Y, GridSpec, along, fill_ghost_array
from .nonstiff import DELTA, SplitScalars, modified_sound_speed, nonstiff_rate, split_scalars
from .reconstruction import limited_traces
from .state import (
    ConservativeField,
    PrimitiveField,
    SolverConfig,
    prim_to_cons,
    primitive_components,
)
from .stiff import central_difference, discrete_divergence, stiff_coefficients, stiff_row

# Halvings of a failed CFL step before the run gives up on it.
MAX_REJECTIONS = 3

# Blend function: edges of the transition band and the exponent of its branches.
EPS0, EPS1, ALPHA = 0.15, 0.4, 14.0

# Cells across the axis in one strip of build_stage.  Each array of a strip
# (traces, fluxes, temporaries) is 4 x (n+1) x STRIP doubles, about 200 kB at
# n = 200, so the strip's working set stays in a 2 MB per-core L2 where
# whole-grid passes stream every array from L3.  On a 2-core Xeon (numpy
# 2.4), median ms per step of 30 interleaved in one process: widths 16, 32
# and 64 took 41.5, 36.3 and 42.5 at explosion 200^2 and 19.9, 15.1 and 17.0
# at gresho eps 1e-3 128^2.
STRIP = 32


@dataclass
class DualState:
    """The two evolving solution copies plus the current time."""

    V: PrimitiveField
    U: ConservativeField
    t: float = 0.0

    @classmethod
    def from_primitive(cls, Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig) -> "DualState":
        fill_ghost_array(Vf.array, grid)
        Vf.validate(grid)
        return cls(Vf, ConservativeField(prim_to_cons(Vf.array, cfg)))


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


def build_stage(
    Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig, R: np.ndarray, D: np.ndarray
) -> SplitScalars:
    """Add a stage's nonstiff operator into ``R`` and its conservative rate
    into ``D``, both (4, nx, ny), from one reconstruction pass; return the
    stage's split scalars.

    Each axis, x before y, is cut into strips of STRIP interior cells across
    it, each with its full ghost padding along it.  A strip runs the whole
    pipeline (traces, nonstiff rate, conservative flux divergence) while its
    arrays stay in cache, where whole-grid passes would stream every
    temporary from memory.  Every cell adds its x and then its y part, so
    the result does not depend on the strip width.

    The kernels write every array of a strip into one workspace, made here
    and dropped on return: seven flat buffers of four components and five
    of one, each sized for the widest strip and starting on a 64-byte
    boundary.  The traces are built in the first four, which hold a block,
    and kept in the first two.  The operators work in the last five and in
    those of one component; the conservative flux also works in the traces
    once it no longer reads them.  Allocating every strip array anew
    instead, most of them off a 64-byte boundary, made a step 1.2-1.3 times
    as long and raised this function's own peak at 200^2 from 1.39 to 1.59
    state arrays.
    """
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    g = grid.ghost

    def cells(extra):  # doubles of one component of the widest strip, n + extra rows long
        return max((grid.nx + extra) * min(STRIP, grid.ny), (grid.ny + extra) * min(STRIP, grid.nx))

    # a block has n + 2g rows, an interface array n + 1
    quads = [_aligned(4 * cells(2 * g)) for _ in range(4)] + [_aligned(4 * cells(1)) for _ in range(3)]
    operators = (quads[2:], [_aligned(cells(1)) for _ in range(5)])
    for axis in (AXIS_X, AXIS_Y):
        Vs, Rs, Ds, h = along(Vf.array, axis), along(R, axis), along(D, axis), grid.spacing(axis)
        m = Rs.shape[-1]
        for j0 in range(0, m, STRIP):
            j1 = min(j0 + STRIP, m)
            block = Vs[..., g + j0:g + j1]
            traces = limited_traces(block, h, cfg.theta, axis, j0, quads[:4])
            Rs[..., j0:j1] += nonstiff_rate(block[:, g:-g], traces, scalars, cfg, axis, h, operators)
            Ds[..., j0:j1] -= flux_divergence(traces, cfg, axis, h, operators)
    return scalars


def _aligned(size: int) -> np.ndarray:
    """A flat float64 buffer of ``size`` doubles that starts on a 64-byte
    boundary, so that no vector store into it splits two cache lines.

    numpy aligns its arrays to 16 bytes only.  On a 2-core AVX-512 Xeon
    (numpy 2.4), np.add of 25,728 doubles into an aligned array took 5.6 us,
    and 12.6-15.3 us into one that starts 8, 16 or 32 bytes past a boundary.
    """
    raw = np.empty(size + 7)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start:start + size]


def compute_dt(Vf: PrimitiveField, scalars: SplitScalars, grid: GridSpec, cfg: SolverConfig) -> float:
    """The CFL step alone, from the split-subsystem speeds floored at DELTA."""
    core = grid.interior
    c_mod = modified_sound_speed(Vf.rho[core], Vf.p[core], scalars, cfg.epsilon, cfg.gamma)
    return cfg.k_cfl * min(
        grid.spacing(axis) / max(float((np.abs(Vf.array[1 + axis][core]) + c_mod).max()), DELTA)
        for axis in (AXIS_X, AXIS_Y)
    )


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
    first.  At vanishing Mach numbers the weight rounds to exactly 1 and U is
    only checked to be finite: it is still advanced, but its positivity
    cannot be maintained against the 1/eps^2 flux amplification.  Its
    fluxes multiply no speed by a flux, so gresho and the vortex keep it
    finite down to eps = 1e-154.

    The result is always V_raw's buffer, and U is never modified.  Below
    weight 1, V_raw is consumed: at weight 0 each component of U's transform
    is written into it in turn, whatever it held; otherwise it is scaled by
    s in place and each component of the transform, times 1 - s, is added
    into it in turn.  That rounds exactly as the two-product form
    (1 - s) * transform(U) + s * V_raw.
    """
    s = switching_weight(cfg.epsilon)
    if s == 1.0:
        U.check_finite(grid)
        return V_raw
    U.validate(grid, cfg)
    if s == 0.0:
        for c, values in primitive_components(U.array, cfg):
            V_raw.array[c] = values
        return V_raw
    V_raw.array *= s
    for c, values in primitive_components(U.array, cfg):
        V_raw.array[c] += values * (1.0 - s)
    return V_raw


def _advance(
    state: DualState,
    E: np.ndarray,
    cons_rate: np.ndarray,
    scalars: SplitScalars,
    dt: float,
    grid: GridSpec,
    cfg: SolverConfig,
) -> tuple[PrimitiveField, ConservativeField, float]:
    """One semi-implicit stage from ``state`` with the primitive copy's
    explicit operator ``E`` and the conservative copy's rate ``cons_rate``,
    up to the blend: returns the new ghost-filled primitive and conservative
    copies and the pressure solve's residual.  ``scalars`` are the extrema
    that freeze the stiff coefficients.  The blend does not need the
    operator pair, so the caller can free it first.
    """
    core = grid.interior
    V = PrimitiveField(state.V.array.copy())
    for Vc, Ec in zip(V.array, E):  # one component at a time
        Vc[core] -= dt * Ec
    fill_ghost_array(V.array, grid)
    V.p[core], _, residual = solve_helmholtz(pressure_system(V, scalars, dt, cfg, grid))
    fill_ghost_array(V.p, grid)
    eps2_rhomax, _ = stiff_coefficients(scalars, cfg)
    push = dt * (1.0 / eps2_rhomax)
    for axis in (AXIS_X, AXIS_Y):  # u along x, v along y
        V.array[1 + axis][core] -= push * central_difference(V.p, grid, axis)
    fill_ghost_array(V.array, grid)

    U = ConservativeField(state.U.array.copy())
    for Uc, rate in zip(U.array, cons_rate):
        Uc[core] += dt * rate
    fill_ghost_array(U.array, grid)
    return V, U, residual


def si_dec_step(
    state: DualState,
    grid: GridSpec,
    cfg: SolverConfig,
    dt: Optional[float] = None,
) -> tuple[DualState, StepReport]:
    """Advance both solution copies by one step.

    Each stage, predictor and then corrector, is ``_advance`` and then the
    blend.  The step owns one zeroed operator pair, E and the conservative
    rate.  The corrector starts from ``state`` again, so of the predictor it
    needs only that pair: the predicted stage's operators are added into it,
    then the stiff difference row by row, and the sum is halved.  The
    predicted V and U are freed before the corrector's ``_advance``, and the
    operator pair before the last blend.

    Propagates NonPhysicalState and NoConvergence; the state is untouched on
    failure.
    """
    E = np.zeros((4, grid.nx, grid.ny))
    cons_rate = np.zeros_like(E)
    scalars = build_stage(state.V, grid, cfg, E, cons_rate)
    if dt is None:
        dt = compute_dt(state.V, scalars, grid, cfg)
    V, U, res_n = _advance(state, E, cons_rate, scalars, dt, grid, cfg)
    V_s = post_process(V, U, grid, cfg).validate(grid)
    del V, U  # the predictor's U is dead: the corrector starts from state

    # E = 0.5*(N_n + N_s + L_nn - L_ss), cons_rate = 0.5*(D_n + D_s)
    scalars_s = build_stage(V_s, grid, cfg, E, cons_rate)
    for row in (1, 2, 3):  # the stiff operator's density row is zero
        diff = stiff_row(scalars, cfg, state.V, grid, row)
        diff -= stiff_row(scalars_s, cfg, V_s, grid, row)
        E[row] += diff
    del V_s, diff
    E *= 0.5
    cons_rate *= 0.5
    V, U, res_s = _advance(state, E, cons_rate, scalars_s, dt, grid, cfg)
    residuals = (res_n, res_s)

    del E, cons_rate
    V = post_process(V, U, grid, cfg).validate(grid)
    core = grid.interior
    max_div = float(np.abs(discrete_divergence(V.u, V.v, grid)).max())
    p_fluct = float(V.p[core].max() - V.p[core].min())
    return DualState(V, U, state.t + dt), StepReport(dt, residuals, max_div, p_fluct)


Callback = Callable[[float, DualState, StepReport], Optional[bool]]


def run(
    state: DualState,
    grid: GridSpec,
    cfg: SolverConfig,
    t_final: float,
    callback: Optional[Callback] = None,
    report: Optional[RunReport] = None,
) -> tuple[DualState, RunReport]:
    """Step until t_final; the callback runs after every step and may return
    False to stop early.  Every step, forced or CFL, is clipped to the time
    left, so the last one lands on t_final exactly.

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
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < state.t:
        raise ValueError("t_final precedes the current time")
    report = RunReport() if report is None else report
    rel_eps = 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final - rel_eps:
        forced = cfg.dt_override is not None and report.steps < cfg.dt_override[0]
        if forced:
            dt = cfg.dt_override[1]
        else:
            dt = compute_dt(state.V, split_scalars(state.V, grid, cfg.epsilon), grid, cfg)
        dt = min(dt, t_final - state.t)
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
