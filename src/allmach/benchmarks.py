"""Benchmark problems, error norms, and the convergence harness.

Five standard cases: a translating Mach-scaled smooth vortex with an exact
solution, the steady low-Mach vortex of Gresho type, a two-layer baroclinic
flow driven by an acoustic wave, a doubly periodic double shear layer, and a
radial explosion with outflow boundaries.  Initial cell averages come from
midpoint evaluation of the pointwise data; exact fields can optionally be
sampled with a 3x3 Gauss rule per cell for projection studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, NonPhysicalState
from .grid import OUTFLOW, PERIODIC, GridSpec, fill_ghosts
from .integrator import DualState, RunReport, run
from .state import PrimitiveField, SolverConfig
from .stiff import central_gradient

PointState = Callable[[np.ndarray, np.ndarray], tuple]

_GAUSS3 = ((-math.sqrt(0.6), 5.0 / 18.0), (0.0, 8.0 / 18.0), (math.sqrt(0.6), 5.0 / 18.0))


def evaluate_field(grid: GridSpec, fn: PointState, quadrature: str = "midpoint") -> PrimitiveField:
    """Sample a pointwise state onto interior cell averages."""
    X, Y = grid.cell_centers()
    out = PrimitiveField.zeros(grid)
    core = out.array[grid.interior]
    if quadrature == "midpoint":
        core[...] = [np.asarray(c, dtype=float) + np.zeros_like(X) for c in fn(X, Y)]
    elif quadrature == "gauss3":
        for ax, wx in _GAUSS3:
            for ay, wy in _GAUSS3:
                vals = fn(X + 0.5 * grid.dx * ax, Y + 0.5 * grid.dy * ay)
                for a, c in zip(core, vals):
                    a += 2.0 * wx * 2.0 * wy * 0.25 * (np.asarray(c, dtype=float) + np.zeros_like(X))
    else:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    return fill_ghosts(out, grid)


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark: geometry, data, defaults, and optional exact solution."""

    name: str
    gamma: float
    bc: str
    default_cfl: float
    domain: Callable[[float], tuple[float, float, float, float]]
    state_at: Callable[[float, float], PointState]  # (eps, t) -> pointwise state
    final_time: Callable[[float], float]
    has_exact: bool = False

    def make_grid(self, nx: int, ny: int, eps: float) -> GridSpec:
        x_lo, x_hi, y_lo, y_hi = self.domain(eps)
        return GridSpec(nx, ny, x_lo, x_hi, y_lo, y_hi, bc_x=self.bc, bc_y=self.bc)

    def initial_state(self, grid: GridSpec, eps: float) -> PrimitiveField:
        return evaluate_field(grid, self.state_at(eps, 0.0))

    def exact_state(
        self, grid: GridSpec, eps: float, t: float, quadrature: str = "midpoint"
    ) -> PrimitiveField:
        if not self.has_exact:
            raise ValueError(f"case {self.name!r} has no exact solution")
        return evaluate_field(grid, self.state_at(eps, t), quadrature)

    def config(self, eps: float, **overrides) -> SolverConfig:
        kwargs = dict(epsilon=eps, gamma=self.gamma, k_cfl=self.default_cfl)
        kwargs.update(overrides)
        return SolverConfig(**kwargs)


def _wrap(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (z - lo) % (hi - lo) + lo


def _vortex_state(eps: float, t: float) -> PointState:
    def fn(x, y):
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

    return fn


def _gresho_state(eps: float, t: float) -> PointState:
    def fn(x, y):
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

    return fn


def _baroclinic_state(eps: float, t: float) -> PointState:
    gamma = 1.4

    def fn(x, y):
        cosx = np.cos(eps * math.pi * x)
        rho = 1.0 + eps / 2000.0 * (1.0 + cosx) + 4.5 * eps * y
        rho = rho - np.where((y >= 0.0) & (y <= 1.0 / (5.0 * eps)), 0.0, 1.8)
        u = 0.5 * math.sqrt(gamma) * (1.0 + cosx)
        v = np.zeros_like(u)
        p = 1.0 + 0.5 * eps * gamma * (1.0 + cosx)
        return rho, u, v, p

    return fn


def _double_shear_state(eps: float, t: float) -> PointState:
    gamma = 1.4

    def fn(x, y):
        u = np.where(
            y <= math.pi,
            np.tanh(15.0 * (y / math.pi - 0.5)),
            np.tanh(15.0 * (1.5 - y / math.pi)),
        )
        v = 0.05 * np.sin(x)
        rho = np.full_like(u, math.pi / 15.0)
        p = np.full_like(u, 1.0 / gamma)
        return rho, u, v, p

    return fn


def _explosion_state(eps: float, t: float) -> PointState:
    def fn(x, y):
        inside = np.hypot(x, y) < 0.4
        rho = np.where(inside, 1.0, 0.125)
        p = np.where(inside, 1.0, 0.1)
        zero = np.zeros_like(rho)
        return rho, zero, zero, p

    return fn


def _explosion_final_time(eps: float) -> float:
    table = {1.0: 0.25, 0.9: 0.2, 0.6: 0.15, 0.3: 0.08}
    return table.get(round(eps, 10), 0.25)


CASES: dict[str, BenchmarkCase] = {
    "vortex": BenchmarkCase(
        name="vortex",
        gamma=2.0,
        bc=PERIODIC,
        default_cfl=0.475,
        domain=lambda eps: (-10.0, 10.0, -10.0, 10.0),
        state_at=_vortex_state,
        final_time=lambda eps: 0.1,
        has_exact=True,
    ),
    "gresho": BenchmarkCase(
        name="gresho",
        gamma=1.4,
        bc=PERIODIC,
        default_cfl=0.475,
        domain=lambda eps: (0.0, 1.0, 0.0, 1.0),
        state_at=_gresho_state,
        final_time=lambda eps: 1.0,
        has_exact=True,  # steady vortex
    ),
    "baroclinic": BenchmarkCase(
        name="baroclinic",
        gamma=1.4,
        bc=PERIODIC,
        default_cfl=0.475,
        domain=lambda eps: (-1.0 / eps, 1.0 / eps, 0.0, 2.0 / (5.0 * eps)),
        state_at=_baroclinic_state,
        final_time=lambda eps: 20.0,
    ),
    "double_shear": BenchmarkCase(
        name="double_shear",
        gamma=1.4,
        bc=PERIODIC,
        default_cfl=0.1,
        domain=lambda eps: (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi),
        state_at=_double_shear_state,
        final_time=lambda eps: 10.0,
    ),
    "explosion": BenchmarkCase(
        name="explosion",
        gamma=1.4,
        bc=OUTFLOW,
        default_cfl=0.475,
        domain=lambda eps: (-1.0, 1.0, -1.0, 1.0),
        state_at=_explosion_state,
        final_time=_explosion_final_time,
    ),
}

VARIABLES = ("rho", "u", "v", "p")


def local_mach(Vf: PrimitiveField, gamma: float, grid: GridSpec) -> np.ndarray:
    """Velocity magnitude over sqrt(gamma), on interior cells."""
    core = grid.interior
    return np.hypot(Vf.u[core], Vf.v[core]) / math.sqrt(gamma)


def vorticity(Vf: PrimitiveField, grid: GridSpec) -> np.ndarray:
    """Central-difference curl v_x - u_y, on interior cells."""
    vx, _ = central_gradient(Vf.v, grid)
    _, uy = central_gradient(Vf.u, grid)
    return vx - uy


def l1_error(numeric: PrimitiveField, exact: PrimitiveField, grid: GridSpec) -> np.ndarray:
    """Cell-weighted L1 difference per variable, shape (4,)."""
    core = grid.interior
    w = grid.dx * grid.dy
    return np.array([
        w * np.abs(a[core] - b[core]).sum()
        for a, b in zip(numeric.components(), exact.components())
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
        for v in VARIABLES:
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
        lines = ["n eps " + " ".join(f"err_{v} rate_{v}" for v in VARIABLES)]
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
    callback=None,
    snap_times=(),
    **cfg_overrides,
) -> tuple[GridSpec, DualState, RunReport, SolverConfig]:
    """Set up and run one benchmark to its final (or a given) time."""
    grid = case.make_grid(nx, ny, eps)
    cfg = case.config(eps, **cfg_overrides)
    state = DualState.from_primitive(case.initial_state(grid, eps), grid, cfg)
    t_end = case.final_time(eps) if t_final is None else t_final
    state, report = run(state, grid, cfg, t_end, callback=callback, snap_times=snap_times)
    return grid, state, report, cfg


def uniform_step_override(
    case: BenchmarkCase, eps: float, nx: int, t_final: float, **cfg_overrides
) -> tuple[int, float]:
    """Equidistribute the run into uniform steps at or below the CFL step.

    Probes the CFL step of the initial state and splits the interval into the
    matching whole number of equal steps, expressed through the dt_override
    config hook.  Keeps refinement-study step sequences deterministic instead
    of ending on an arbitrarily clipped remainder step.
    """
    from .integrator import compute_dt
    from .nonstiff import split_scalars

    grid = case.make_grid(nx, nx, eps)
    cfg = case.config(eps, **cfg_overrides)
    V0 = case.initial_state(grid, eps)
    dt0 = compute_dt(V0, split_scalars(V0, grid, eps), grid, cfg)
    n = max(1, math.ceil(t_final / dt0))
    return (n, t_final / n)


def convergence_study(
    case: BenchmarkCase,
    eps_list,
    n_list,
    t_final: Optional[float] = None,
    uniform_steps: bool = False,
    **cfg_overrides,
) -> ErrorTable:
    """Errors against the exact solution over a mesh/Mach sweep.

    A run that blows up or whose pressure solve fails marks its row and the
    study continues; a configuration error propagates.
    """
    if not case.has_exact:
        raise ValueError(f"case {case.name!r} has no exact solution")
    rows: list[ErrorRow] = []
    for eps in eps_list:
        previous: Optional[ErrorRow] = None
        for n in n_list:
            t_end = case.final_time(eps) if t_final is None else t_final
            overrides = dict(cfg_overrides)
            try:
                if uniform_steps and "dt_override" not in overrides:
                    overrides["dt_override"] = uniform_step_override(
                        case, eps, n, t_end, **cfg_overrides
                    )
                grid, state, _, _ = run_case(case, eps, n, n, t_final=t_end, **overrides)
                exact = case.exact_state(grid, eps, t_end)
                errors = l1_error(state.V, exact, grid)
            except (NonPhysicalState, NoConvergence) as exc:
                rows.append(ErrorRow(n, eps, np.full(4, np.nan), failed=str(exc)))
                previous = None
                continue
            rates = observed_rate(previous.errors, errors) if previous is not None else None
            row = ErrorRow(n, eps, errors, rates)
            rows.append(row)
            previous = row
    return ErrorTable(rows)
