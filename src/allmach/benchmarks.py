"""Benchmark problems, error norms, and the convergence harness.

Five standard cases: a translating Mach-scaled smooth vortex with an exact
solution, the steady low-Mach vortex of Gresho type, a two-layer baroclinic
flow driven by an acoustic wave, a doubly periodic double shear layer, and a
radial explosion with outflow boundaries.  A case's data is a pointwise
``state_at(eps, t, x, y) -> (rho, u, v, p)``, whose midpoint evaluation gives
the initial and exact cell averages; ``BenchmarkCase.start`` sets up a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NoConvergence, NonPhysicalState
from .grid import AXIS_X, AXIS_Y, OUTFLOW, GridSpec, fill_ghost_array
from .integrator import DualState, RunReport, compute_dt, run, si_dec_step
from .nonstiff import split_scalars
from .state import PrimitiveField, SolverConfig
from .stiff import central_difference, discrete_divergence

PointState = Callable[[float, float, np.ndarray, np.ndarray], tuple]


def evaluate_field(grid: GridSpec, state_at: PointState, eps: float, t: float) -> PrimitiveField:
    """Cell averages of a pointwise state by the midpoint rule, ghosts filled."""
    X, Y = grid.cell_centers()
    out = PrimitiveField.zeros(grid)
    values = state_at(eps, t, X, Y)
    out.array[grid.interior] = [np.asarray(c, dtype=float) + np.zeros_like(X) for c in values]
    fill_ghost_array(out.array, grid)
    return out


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark: geometry, data, and optional exact solution; its gas,
    boundaries and CFL number default to ``SolverConfig``'s and ``GridSpec``'s."""

    name: str
    domain: Callable[[float], tuple[float, float, float, float]]
    state_at: PointState  # (eps, t, x, y) -> (rho, u, v, p)
    final_time: Callable[[float], float]
    gamma: float = SolverConfig.gamma
    bc: str = GridSpec.bc_x
    default_cfl: float = SolverConfig.k_cfl
    has_exact: bool = False

    def make_grid(self, nx: int, ny: int, eps: float) -> GridSpec:
        x_lo, x_hi, y_lo, y_hi = self.domain(eps)
        return GridSpec(nx, ny, x_lo, x_hi, y_lo, y_hi, bc_x=self.bc, bc_y=self.bc)

    def initial_state(self, grid: GridSpec, eps: float) -> PrimitiveField:
        return evaluate_field(grid, self.state_at, eps, 0.0)

    def exact_state(self, grid: GridSpec, eps: float, t: float) -> PrimitiveField:
        if not self.has_exact:
            raise ValueError(f"case {self.name!r} has no exact solution")
        return evaluate_field(grid, self.state_at, eps, t)

    def config(self, eps: float, **overrides) -> SolverConfig:
        kwargs = dict(epsilon=eps, gamma=self.gamma, k_cfl=self.default_cfl)
        kwargs.update(overrides)
        return SolverConfig(**kwargs)

    def start(self, eps: float, nx: int, ny: int, **overrides) -> tuple[GridSpec, SolverConfig, DualState]:
        """Grid, config and initial state of a run at Mach number eps on an
        nx x ny grid.  The config is built first, so a bad eps is rejected
        before the domain uses it."""
        cfg = self.config(eps, **overrides)
        grid = self.make_grid(nx, ny, eps)
        return grid, cfg, DualState.from_primitive(self.initial_state(grid, eps), grid, cfg)

    def initial_dt(self, n: int, eps: float) -> float:
        """CFL step of the initial state on the n x n grid."""
        grid, cfg, state = self.start(eps, n, n)
        return compute_dt(state.V, split_scalars(state.V, grid, eps), grid, cfg)


def _wrap(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (z - lo) % (hi - lo) + lo


def _vortex_state(eps: float, t: float, x: np.ndarray, y: np.ndarray) -> tuple:
    xr = _wrap(x - t, -10.0, 10.0)
    yr = _wrap(y - t, -10.0, 10.0)
    e_full = np.exp(1.0 - (xr**2 + yr**2))
    e_half = np.sqrt(e_full)
    rho = 1.0 - eps**2 / (16.0 * math.pi**2) * e_full
    u = 1.0 - eps * yr / (2.0 * math.pi) * e_half
    v = 1.0 + eps * xr / (2.0 * math.pi) * e_half
    # Energy 1 + eps^2 [rho^2 + rho(u^2+v^2)/2] with gamma = 2 gives:
    p = 1.0 + eps**2 * rho**2
    return rho, u, v, p


def _gresho_state(eps: float, t: float, x: np.ndarray, y: np.ndarray) -> tuple:
    xr = x - 0.5
    yr = y - 0.5
    r = np.hypot(xr, yr)
    psi = np.where(r < 0.2, 5.0 * r, np.where(r < 0.4, 2.0 - 5.0 * r, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(r > 0.0, -yr / r * psi, 0.0)
        v = np.where(r > 0.0, xr / r * psi, 0.0)
    safe_r = np.where(r > 0.0, r, 1.0)
    p = np.where(
        r < 0.2,
        1.0 + 12.5 * eps**2 * r**2,
        np.where(
            r < 0.4,
            1.0 + eps**2 * (4.0 * np.log(5.0 * safe_r) + 4.0 - 20.0 * r + 12.5 * r**2),
            1.0 + eps**2 * (4.0 * math.log(2.0) - 2.0),
        ),
    )
    rho = np.ones_like(p)
    return rho, u, v, p


def _baroclinic_state(eps: float, t: float, x: np.ndarray, y: np.ndarray) -> tuple:
    cosx = np.cos(eps * math.pi * x)
    rho = 1.0 + eps / 2000.0 * (1.0 + cosx) + 4.5 * eps * y
    rho = rho - np.where((y >= 0.0) & (y <= 1.0 / (5.0 * eps)), 0.0, 1.8)
    u = 0.5 * math.sqrt(SolverConfig.gamma) * (1.0 + cosx)
    v = np.zeros_like(u)
    p = 1.0 + 0.5 * eps * SolverConfig.gamma * (1.0 + cosx)
    return rho, u, v, p


def _double_shear_state(eps: float, t: float, x: np.ndarray, y: np.ndarray) -> tuple:
    u = np.where(
        y <= math.pi,
        np.tanh(15.0 * (y / math.pi - 0.5)),
        np.tanh(15.0 * (1.5 - y / math.pi)),
    )
    v = 0.05 * np.sin(x)
    rho = np.full_like(u, math.pi / 15.0)
    p = np.full_like(u, 1.0 / SolverConfig.gamma)
    return rho, u, v, p


def _explosion_state(eps: float, t: float, x: np.ndarray, y: np.ndarray) -> tuple:
    inside = np.hypot(x, y) < 0.4
    rho = np.where(inside, 1.0, 0.125)
    p = np.where(inside, 1.0, 0.1)
    zero = np.zeros_like(rho)
    return rho, zero, zero, p


CASES: dict[str, BenchmarkCase] = {case.name: case for case in (
    BenchmarkCase(
        name="vortex",
        gamma=2.0,
        domain=lambda eps: (-10.0, 10.0, -10.0, 10.0),
        state_at=_vortex_state,
        final_time=lambda eps: 0.1,
        has_exact=True,
    ),
    BenchmarkCase(
        name="gresho",
        domain=lambda eps: (0.0, 1.0, 0.0, 1.0),
        state_at=_gresho_state,
        final_time=lambda eps: 1.0,
        has_exact=True,  # steady vortex
    ),
    BenchmarkCase(
        name="baroclinic",
        domain=lambda eps: (-1.0 / eps, 1.0 / eps, 0.0, 2.0 / (5.0 * eps)),
        state_at=_baroclinic_state,
        final_time=lambda eps: 20.0,
    ),
    BenchmarkCase(
        name="double_shear",
        default_cfl=0.1,
        domain=lambda eps: (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi),
        state_at=_double_shear_state,
        final_time=lambda eps: 10.0,
    ),
    BenchmarkCase(
        name="explosion",
        bc=OUTFLOW,
        domain=lambda eps: (-1.0, 1.0, -1.0, 1.0),
        state_at=_explosion_state,
        final_time=lambda eps: {1.0: 0.25, 0.9: 0.2, 0.6: 0.15, 0.3: 0.08}.get(round(eps, 10), 0.25),
    ),
)}

def local_mach(Vf: PrimitiveField, gamma: float, grid: GridSpec) -> np.ndarray:
    """Velocity magnitude over sqrt(gamma), on interior cells."""
    core = grid.interior
    return np.hypot(Vf.u[core], Vf.v[core]) / math.sqrt(gamma)


def vorticity(Vf: PrimitiveField, grid: GridSpec) -> np.ndarray:
    """Central-difference curl v_x - u_y, on interior cells."""
    return central_difference(Vf.v, grid, AXIS_X) - central_difference(Vf.u, grid, AXIS_Y)


def l1_error(numeric: PrimitiveField, exact: PrimitiveField, grid: GridSpec) -> np.ndarray:
    """Cell-weighted L1 difference per variable, shape (4,)."""
    core = grid.interior
    w = grid.dx * grid.dy
    return np.array([
        w * np.abs(a[core] - b[core]).sum()
        for a, b in zip(numeric.array, exact.array)
    ])


@dataclass
class ErrorRow:
    n: int
    eps: float
    errors: np.ndarray  # (4,)
    rates: Optional[np.ndarray] = None  # (4,) once a coarser row exists
    failed: str = ""


@dataclass
class ErrorTable:
    rows: list[ErrorRow]

    def format_text(self) -> str:
        header = f"{'N':>6} {'eps':>10}"
        for v in PrimitiveField.names:
            header += f" {'L1(' + v + ')':>12} {'rate':>6}"
        lines = [header]
        for row in self.rows:
            line = f"{row.n:>6} {row.eps:>10.3e}"
            if row.failed:
                line += f"  FAILED: {row.failed}"
            else:
                for i in range(4):
                    rate = f"{row.rates[i]:6.2f}" if row.rates is not None else f"{'--':>6}"
                    line += f" {row.errors[i]:>12.4e} {rate}"
            lines.append(line)
        return "\n".join(lines)

    def format_delimited(self) -> str:
        lines = ["n eps " + " ".join(f"err_{v} rate_{v}" for v in PrimitiveField.names)]
        for row in self.rows:
            if row.failed:
                continue
            parts = [str(row.n), f"{row.eps:.17g}"]
            for i in range(4):
                parts.append(f"{row.errors[i]:.17g}")
                parts.append(f"{row.rates[i]:.17g}" if row.rates is not None else "nan")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def observed_rate(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(coarse / fine)


def run_case(
    case: BenchmarkCase,
    eps: float,
    nx: int,
    ny: int,
    t_final: Optional[float] = None,
    **cfg_overrides,
) -> tuple[GridSpec, DualState, RunReport, SolverConfig]:
    """Set up and run one benchmark to its final (or a given) time."""
    grid, cfg, state = case.start(eps, nx, ny, **cfg_overrides)
    t_end = case.final_time(eps) if t_final is None else t_final
    state, report = run(state, grid, cfg, t_end)
    return grid, state, report, cfg


def ap_probes(eps: float, n: int) -> Iterator[float]:
    """The probes of ``allmach diagnose`` and criteria 03-05 on gresho n x n,
    each yielded as soon as it is taken: the initial CFL step at eps and at
    1e-6; max|div u| at eps 1e-6, initially and at its largest over 20 steps;
    max p - min p at t = 0.2 at eps and at eps/10.  The bands are the caller's."""
    case = CASES["gresho"]
    vanishing = 1e-6
    yield case.initial_dt(n, eps)
    yield case.initial_dt(n, vanishing)
    grid, cfg, state = case.start(vanishing, n, n)
    worst = float(np.abs(discrete_divergence(state.V.u, state.V.v, grid)).max())
    yield worst
    for _ in range(20):
        state, rep = si_dec_step(state, grid, cfg)
        worst = max(worst, rep.max_divergence)
    yield worst
    for e in (eps, eps / 10.0):
        yield run_case(case, e, n, n, t_final=0.2)[2].reports[-1].pressure_fluctuation


def convergence_study(
    case: BenchmarkCase,
    eps_list,
    n_list,
    t_final: Optional[float] = None,
    **cfg_overrides,
) -> ErrorTable:
    """Errors against the exact solution over a mesh/Mach sweep.  Each row
    is ``run_case(case, eps, n, n, t_end, **cfg_overrides)``, t_end being
    ``t_final`` or the case's final time, scored by ``l1_error`` against
    ``exact_state``.  A run that blows up or whose pressure solve fails
    marks its row and the study continues; a configuration error propagates.
    """
    if not case.has_exact:
        raise ValueError(f"case {case.name!r} has no exact solution")
    for name, values in (("eps_list", eps_list), ("n_list", n_list)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: the study needs at least one value")
    rows: list[ErrorRow] = []
    for eps in eps_list:
        previous: Optional[ErrorRow] = None
        for n in n_list:
            t_end = case.final_time(eps) if t_final is None else t_final
            try:
                grid, state, _, _ = run_case(case, eps, n, n, t_end, **cfg_overrides)
                errors = l1_error(state.V, case.exact_state(grid, eps, t_end), grid)
            except (NonPhysicalState, NoConvergence) as exc:
                rows.append(ErrorRow(n, eps, np.full(4, np.nan), failed=str(exc)))
                previous = None
                continue
            rates = observed_rate(previous.errors, errors) if previous is not None else None
            row = ErrorRow(n, eps, errors, rates)
            rows.append(row)
            previous = row
    return ErrorTable(rows)
