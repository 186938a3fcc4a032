"""Two-stage semi-implicit time integrator for the dual-state solver.

One step advances the primitive and conservative solution copies together:

  stage 1 (predictor): explicit density update; pressure from the predictor
      Helmholtz solve; semi-implicit velocity update; explicit conservative
      update; blend the primitive copy with the conservative one.
  stage 2 (corrector): trapezoidal combination of old and predictor
      operators, a second Helmholtz solve, and the matching conservative
      update, blended again.

With order=1 the step stops after the predictor stage.  The blend weight
depends only on the Mach number: at high Mach the conservative (shock
correct) branch wins, at low Mach the pressure-robust primitive branch is
kept.  The time step is CFL-limited by the split-subsystem speeds, which stay
O(1) for any Mach number, so dt is asymptotically Mach independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conservative import assemble_conservative_rhs, sound_speed
from .elliptic import (
    corrector_pressure_system,
    predictor_pressure_system,
    solve_helmholtz,
)
from .grid import GridSpec, fill_ghosts, padded
from .nonstiff import SplitScalars, assemble_nonstiff, modified_sound_speed, split_scalars
from .reconstruction import limited_interfaces
from .state import (
    ConservativeField,
    PrimitiveField,
    SolverConfig,
    cons_to_prim,
    prim_to_cons,
)
from .stiff import StiffScalars, assemble_stiff, central_gradient, discrete_divergence

RHO_C, U_C, V_C, P_C = 0, 1, 2, 3


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
        U = fill_ghosts(ConservativeField(prim_to_cons(Vf.array, cfg)), grid)
        return cls(Vf, U, t)


@dataclass
class StepReport:
    """Per-step diagnostics."""

    dt: float
    solve_residuals: tuple[float, ...]  # one per pressure solve
    max_mod_speed: float
    max_full_speed: float
    max_divergence: float
    pressure_fluctuation: float


@dataclass
class RunReport:
    """Aggregated step diagnostics of one run."""

    steps: int = 0
    times: list[float] = field(default_factory=list)
    dts: list[float] = field(default_factory=list)
    max_divergences: list[float] = field(default_factory=list)
    pressure_fluctuations: list[float] = field(default_factory=list)
    solve_residuals: list[tuple[float, ...]] = field(default_factory=list)

    def record(self, t: float, rep: StepReport) -> None:
        self.steps += 1
        self.times.append(t)
        self.dts.append(rep.dt)
        self.max_divergences.append(rep.max_divergence)
        self.pressure_fluctuations.append(rep.pressure_fluctuation)
        self.solve_residuals.append(rep.solve_residuals)


@dataclass
class StageBuffers:
    """Split scalars and operator fields of one stage."""

    scalars: SplitScalars
    nonstiff: np.ndarray
    cons_rhs: np.ndarray


def build_stage(Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig) -> StageBuffers:
    """One reconstruction pass feeding both operators of a stage."""
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    traces = limited_interfaces(Vf, grid, cfg.theta)
    R = assemble_nonstiff(Vf, grid, cfg, scalars, traces)
    D = assemble_conservative_rhs(Vf, grid, cfg, traces)
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
    sx = max(float((np.abs(Vf.u[core]) + c_mod).max()), cfg.delta)
    sy = max(float((np.abs(Vf.v[core]) + c_mod).max()), cfg.delta)
    dt = cfg.k_cfl * min(grid.dx / sx, grid.dy / sy)
    if t_remaining is not None:
        dt = min(dt, t_remaining)
    return dt


def switching_weight(eps: float, cfg: SolverConfig) -> float:
    """Mach-dependent blend weight: 1 at vanishing Mach numbers (keep the
    pressure-robust branch), 0 at Mach one (keep the conservative branch),
    with a smooth bump-function transition in between."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("switching weight defined for 0 < eps <= 1")
    e0, e1, a = cfg.eps0, cfg.eps1, cfg.alpha
    if eps <= e0:
        return 1.0 - eps**a
    if eps >= e1:
        return (1.0 - eps) ** a
    s = ((eps - e0) / (e1 - e0)) ** 2
    bump = math.exp(1.0 - 1.0 / (1.0 - s))
    lo = (1.0 - e1) ** a
    return bump * ((1.0 - e0**a) - lo) + lo


def post_process(
    V_raw: PrimitiveField,
    U: ConservativeField,
    grid: GridSpec,
    cfg: SolverConfig,
) -> PrimitiveField:
    """Convex combination of the primitive copy with the transform of the
    conservative one.  U itself is never modified."""
    s = switching_weight(cfg.epsilon, cfg)
    if s == 0.0:
        return fill_ghosts(cons_to_prim(U, grid, cfg), grid)
    if s == 1.0:
        return V_raw
    from_U = cons_to_prim(U, grid, cfg)
    return fill_ghosts(PrimitiveField((1.0 - s) * from_U.array + s * V_raw.array), grid)


def _diagnostics(Vf: PrimitiveField, grid: GridSpec) -> tuple[float, float]:
    core = grid.interior
    div = discrete_divergence(Vf.u, Vf.v, grid)
    return float(np.abs(div).max()), float(Vf.p[core].max() - Vf.p[core].min())


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
    Vn, Un = state.V, state.U
    core = grid.interior
    eps2 = cfg.epsilon**2
    # At vanishing Mach numbers the blend weight rounds to exactly 1 and the
    # conservative copy cannot influence the solution; it is still advanced
    # (its fluxes come from V, so it stays finite and conservative) but its
    # positivity cannot be maintained against the 1/eps^2 flux amplification
    # and is not enforced.
    blend_uses_U = switching_weight(cfg.epsilon, cfg) < 1.0

    stage_n = build_stage(Vn, grid, cfg)
    if dt is None:
        dt = compute_dt(Vn, stage_n.scalars, grid, cfg)

    c_mod = modified_sound_speed(
        Vn.rho[core], Vn.p[core], stage_n.scalars, cfg.epsilon, cfg.gamma
    )
    max_mod = float(np.asarray(c_mod).max())
    max_full = float(sound_speed(Vn.rho[core], Vn.p[core], cfg).max())

    # Predictor: explicit density, implicit pressure, semi-implicit velocity.
    V_star = PrimitiveField.zeros(grid)
    V_star.rho[core] = Vn.rho[core] - dt * stage_n.nonstiff[RHO_C]

    sys1 = predictor_pressure_system(Vn, stage_n.nonstiff, stage_n.scalars, dt, cfg, grid)
    p_star, _, res1 = solve_helmholtz(sys1)
    V_star.p[core] = p_star

    p_pad = padded(p_star, grid)
    gx, gy = central_gradient(p_pad, grid)
    coef_n = 1.0 / (eps2 * stage_n.scalars.rho_max)
    V_star.u[core] = Vn.u[core] - dt * stage_n.nonstiff[U_C] - dt * coef_n * gx
    V_star.v[core] = Vn.v[core] - dt * stage_n.nonstiff[V_C] - dt * coef_n * gy

    U_star = ConservativeField.zeros(grid)
    U_star.array[core] = Un.array[core] + dt * stage_n.cons_rhs
    fill_ghosts(U_star, grid)
    if blend_uses_U:
        U_star.validate(grid, cfg)

    fill_ghosts(V_star, grid)
    V_star = post_process(V_star, U_star, grid, cfg).validate(grid)

    if cfg.order == 1:
        max_div, p_fluct = _diagnostics(V_star, grid)
        report = StepReport(dt, (res1,), max_mod, max_full, max_div, p_fluct)
        return DualState(V_star, U_star, state.t + dt), report

    # Corrector: trapezoidal explicit parts, second pressure solve.
    stage_s = build_stage(V_star, grid, cfg)
    L_nn = assemble_stiff(StiffScalars.from_split(stage_n.scalars, cfg), Vn, grid)
    L_ss = assemble_stiff(StiffScalars.from_split(stage_s.scalars, cfg), V_star, grid)

    V_new = PrimitiveField.zeros(grid)
    V_new.rho[core] = Vn.rho[core] - 0.5 * dt * (stage_n.nonstiff[RHO_C] + stage_s.nonstiff[RHO_C])

    sys2 = corrector_pressure_system(
        Vn, stage_n.nonstiff, stage_s.nonstiff, L_nn, L_ss, stage_s.scalars, dt, cfg, grid
    )
    p_new, _, res2 = solve_helmholtz(sys2)
    V_new.p[core] = p_new

    p_pad = padded(p_new, grid)
    gx, gy = central_gradient(p_pad, grid)
    coef_s = 1.0 / (eps2 * stage_s.scalars.rho_max)
    V_new.u[core] = (
        Vn.u[core]
        - 0.5 * dt * (stage_n.nonstiff[U_C] + stage_s.nonstiff[U_C])
        - 0.5 * dt * (L_nn[U_C] - L_ss[U_C])
        - dt * coef_s * gx
    )
    V_new.v[core] = (
        Vn.v[core]
        - 0.5 * dt * (stage_n.nonstiff[V_C] + stage_s.nonstiff[V_C])
        - 0.5 * dt * (L_nn[V_C] - L_ss[V_C])
        - dt * coef_s * gy
    )

    U_new = ConservativeField.zeros(grid)
    U_new.array[core] = Un.array[core] + 0.5 * dt * (stage_n.cons_rhs + stage_s.cons_rhs)
    fill_ghosts(U_new, grid)
    if blend_uses_U:
        U_new.validate(grid, cfg)

    fill_ghosts(V_new, grid)
    V_new = post_process(V_new, U_new, grid, cfg).validate(grid)

    max_div, p_fluct = _diagnostics(V_new, grid)
    report = StepReport(dt, (res1, res2), max_mod, max_full, max_div, p_fluct)
    return DualState(V_new, U_new, state.t + dt), report


Callback = Callable[[float, DualState, StepReport], Optional[bool]]


def run(
    state: DualState,
    grid: GridSpec,
    cfg: SolverConfig,
    t_final: float,
    callback: Optional[Callback] = None,
    snap_times: Sequence[float] = (),
) -> tuple[DualState, RunReport]:
    """Step until t_final (the last step is clipped to land exactly).

    ``snap_times`` are additional instants the stepper must hit exactly; the
    callback runs after every step and may return False to stop early.
    """
    if t_final < state.t:
        raise ValueError("t_final precedes the current time")
    report = RunReport()
    targets = sorted(t for t in snap_times if state.t < t < t_final)
    step_index = 0
    rel_eps = 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final - rel_eps:
        remaining = t_final - state.t
        if cfg.dt_override is not None and step_index < cfg.dt_override[0]:
            dt = min(cfg.dt_override[1], remaining)
        else:
            scalars = split_scalars(state.V, grid, cfg.epsilon)
            dt = compute_dt(state.V, scalars, grid, cfg, remaining)
        while targets and targets[0] <= state.t + rel_eps:
            targets.pop(0)
        if targets:
            dt = min(dt, targets[0] - state.t)
        state, step_rep = si_dec_step(state, grid, cfg, dt)
        step_index += 1
        report.record(state.t, step_rep)
        if callback is not None and callback(state.t, state, step_rep) is False:
            break
    return state, report
