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

The two explicit operators of a stage share one reconstruction and nothing
else.  On a grid of at least PARALLEL_CELLS cells, in a single-threaded
Linux process that may use two CPUs, ``run`` forks one worker process for
the length of the call (``_Worker``).  At each stage the parent copies the
stage's V into memory shared with the worker and builds the nonstiff
operator while the worker reconstructs the same V and builds the
conservative rate into a shared array; the parent then waits for it.  The
results equal the serial ones bit for bit.  Every direct ``si_dec_step`` or
``build_stage`` call, and every other run, builds both in this process.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
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

# Grid cells from which ``run`` forks a worker for the conservative rate.
# In-process runs of 20 steps, fork included, on a 2-core Xeon (numpy 2.4,
# one BLAS thread): median ms per run, serial -> worker, and how many of 10
# alternating pairs the worker won, explosion 0.9 | gresho 1e-3 at n^2:
#   n = 16   42.5 ->  48.6 (3)  |   47.7 ->  49.0 (4)
#   n = 24   63.5 ->  63.3 (5)  |   56.6 ->  57.9 (6)
#   n = 32   69.4 ->  64.4 (6)  |   62.7 ->  67.6 (1)
#   n = 48  104.4 ->  94.9 (9)  |  125.2 -> 107.1 (9)
#   n = 64  162.7 -> 133.8 (9)  |  133.4 -> 127.9 (7)
#   n = 96  281.7 -> 233.5 (9)  |  228.2 -> 176.8 (10)
# 48 is the smallest n at which the worker won 9 of 10 on both.  A step
# alone was faster with the worker from n = 24 (0.8x); smaller runs lose
# the fork, about 1.4 ms with the kill, and the copy-on-write faults after it.
PARALLEL_CELLS = 48 * 48

# Seconds a side waiting for the other spins, yielding its CPU on every turn,
# before it blocks on its pipe; while blocked it checks every POLL_S that the
# other process is alive.
SPIN_S = 0.05
POLL_S = 0.05


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
    stage's split scalars.  ``_strips`` cuts the grid and holds the strip
    arrays; every cell adds its x and then its y part, so the result does
    not depend on the strip width.
    """
    scalars = split_scalars(Vf, grid, cfg.epsilon)
    for cells, traces, axis, h, work, cut in _strips(Vf.array, grid, cfg):
        along(R, axis)[cut] += nonstiff_rate(cells, traces, scalars, cfg, axis, h, work)
        along(D, axis)[cut] -= flux_divergence(traces, cfg, axis, h, work)
    return scalars


def _strips(Va: np.ndarray, grid: GridSpec, cfg: SolverConfig):
    """Reconstruct the ghost-filled state array ``Va`` strip by strip and
    yield, for each strip, ``(cells, traces, axis, h, work, cut)``: the
    strip's cell averages and traces, axis first, the axis and its spacing,
    the operators' workspace, and the index of the strip in a (4, nx, ny)
    rate viewed with the axis first, ``along(rate, axis)[cut]``.

    Each axis, x before y, is cut into strips of STRIP interior cells across
    it, each with its full ghost padding along it.  A strip runs the whole
    pipeline (traces, then the operators) while its arrays stay in cache,
    where whole-grid passes would stream every temporary from memory.

    The kernels write every array of a strip into one workspace, made here
    and dropped with the generator: seven flat buffers of four components
    and five of one, each sized for the widest strip and starting on a
    64-byte boundary.  The traces are built in the first four, which hold a
    block, and kept in the first two.  The operators work in the last five
    and in those of one component; the conservative flux also works in the
    traces once it no longer reads them, so it goes last.  Allocating every
    strip array anew instead, most of them off a 64-byte boundary, made a
    step 1.2-1.3 times as long and raised build_stage's own peak at 200^2
    from 1.39 to 1.59 state arrays.
    """
    g = grid.ghost

    def cells(extra):  # doubles of one component of the widest strip, n + extra rows long
        return max((grid.nx + extra) * min(STRIP, grid.ny), (grid.ny + extra) * min(STRIP, grid.nx))

    # a block has n + 2g rows, an interface array n + 1
    quads = [_aligned(4 * cells(2 * g)) for _ in range(4)] + [_aligned(4 * cells(1)) for _ in range(3)]
    operators = (quads[2:], [_aligned(cells(1)) for _ in range(5)])
    for axis in (AXIS_X, AXIS_Y):
        Vs, h = along(Va, axis), grid.spacing(axis)
        m = Vs.shape[-1] - 2 * g
        for j0 in range(0, m, STRIP):
            j1 = min(j0 + STRIP, m)
            block = Vs[..., g + j0:g + j1]
            traces = limited_traces(block, h, cfg.theta, axis, j0, quads[:4])
            yield block[:, g:-g], traces, axis, h, operators, (..., slice(j0, j1))


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
    *,
    worker: Optional[_Worker] = None,
) -> tuple[DualState, StepReport]:
    """Advance both solution copies by one step.

    Each stage, predictor and then corrector, is ``_advance`` and then the
    blend.  The step owns one zeroed operator pair, E and the conservative
    rate.  The corrector starts from ``state`` again, so of the predictor it
    needs only that pair: the predicted stage's operators are added into it,
    then the stiff difference row by row, and the sum is halved.  The
    predicted V and U are freed before the corrector's ``_advance``, and the
    operator pair before the last blend.

    ``worker`` is ``run``'s: with it, the conservative rate is the worker's
    shared one and the worker builds it; without it, every direct call, this
    process builds both operators.  The results are the same bit for bit.

    Propagates NonPhysicalState and NoConvergence; the state is untouched on
    failure.
    """
    if worker is None:
        E = np.zeros((4, grid.nx, grid.ny))
        cons_rate = np.zeros_like(E)
        stage = build_stage
    else:
        E, cons_rate = worker.pair()
        stage = worker.build_stage
    scalars = stage(state.V, grid, cfg, E, cons_rate)
    if dt is None:
        dt = compute_dt(state.V, scalars, grid, cfg)
    V, U, res_n = _advance(state, E, cons_rate, scalars, dt, grid, cfg)
    V_s = post_process(V, U, grid, cfg).validate(grid)
    del V, U  # the predictor's U is dead: the corrector starts from state

    # E = 0.5*(N_n + N_s + L_nn - L_ss), cons_rate = 0.5*(D_n + D_s)
    scalars_s = stage(V_s, grid, cfg, E, cons_rate)
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

    When ``_forks(grid)`` holds and there is a step to take, the steps build
    their conservative rates in a ``_Worker`` forked for this call.  It is
    killed and reaped before run returns or raises; ChildProcessError ends
    the run if it dies before that.
    """
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < state.t:
        raise ValueError("t_final precedes the current time")
    report = RunReport() if report is None else report
    rel_eps = 1e-12 * max(1.0, abs(t_final))
    worker = _Worker(grid, cfg) if state.t < t_final - rel_eps and _forks(grid) else None
    try:
        while state.t < t_final - rel_eps:
            forced = cfg.dt_override is not None and report.steps < cfg.dt_override[0]
            if forced:
                dt = cfg.dt_override[1]
            else:
                dt = compute_dt(state.V, split_scalars(state.V, grid, cfg.epsilon), grid, cfg)
            dt = min(dt, t_final - state.t)
            for attempt in range(MAX_REJECTIONS + 1):
                try:
                    state, step_rep = si_dec_step(state, grid, cfg, dt, worker=worker)
                    break
                except (NonPhysicalState, NoConvergence) as exc:
                    if forced or attempt == MAX_REJECTIONS:
                        raise type(exc)(f"step {report.steps}, t={state.t:.6g}: {exc}") from exc
                    report.rejections += 1
                    dt *= 0.5
            report.reports.append(step_rep)
            if callback is not None and callback(state.t, state, step_rep) is False:
                break
    finally:
        if worker is not None:
            worker.close()
    return state, report


def _forks(grid: GridSpec) -> bool:
    """Whether ``run`` on ``grid`` forks a worker: the grid has at least
    PARALLEL_CELLS cells, and this is a Linux process on x86-64 that runs
    one thread and may run on two CPUs or more.

    x86-64 keeps each side's stores in order, which the shared counters rely
    on.  A second thread, such as a BLAS pool's, makes the fork unsafe, and
    it competes with the worker for the second CPU: beside OpenBLAS's
    default pool, explosion 0.9 200^2 took 41.7-54.0 ms per step with the
    worker against 48.9-51.2 without it.
    """
    return (
        grid.nx * grid.ny >= PARALLEL_CELLS
        and sys.platform == "linux"
        and platform.machine() == "x86_64"
        and len(os.sched_getaffinity(0)) >= 2
        and len(os.listdir("/proc/self/task")) == 1
    )


def _current_cpu() -> int:
    """The CPU this thread last ran on."""
    with open("/proc/thread-self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def _wait(ready: Callable[[], bool], fd: int, alive: Callable[[], None]) -> None:
    """Return once ``ready()``.  Spin for SPIN_S, yielding the CPU on every
    turn, then block on ``fd``, the read end of the pipe the other side
    writes a byte to after each change of a counter, and call ``alive()``,
    which raises or exits when the other process is gone, every POLL_S."""
    import select  # here and in _Worker, so that importing allmach does not pay for them

    start = time.perf_counter()
    while not ready():
        if time.perf_counter() - start < SPIN_S:
            os.sched_yield()
            continue
        select.select([fd], [], [], POLL_S)
        try:
            os.read(fd, 4096)
        except BlockingIOError:
            pass
        alive()


def _wake(fd: int) -> None:
    """Write a byte to the other side's pipe.  A full pipe already holds one."""
    try:
        os.write(fd, b"\0")
    except BlockingIOError:
        pass


class _Worker:
    """A forked process that builds each stage's conservative rate while the
    parent builds the nonstiff operator, for the length of one ``run``.

    The two share, in one anonymous shared mapping, two counters, the
    stage's ghost-filled primitive array V and the step's conservative rate.
    The parent copies a stage's V in and bumps ``posted``; the worker
    reconstructs it on its own, subtracts each strip's flux divergence from
    the rate, x strips before y as ``build_stage`` does, and sets ``done``
    to ``posted``.  The parent touches neither V nor the rate again until
    ``done`` equals ``posted``.  The worker only runs numpy kernels on the
    shared arrays; it ignores SIGINT and is killed by ``close``.

    The worker binds itself to an allowed CPU other than the one the parent
    last ran on.  Left to the scheduler, the two shared one CPU for a second
    and more, and explosion 0.9 200^2 took 37.6-38.2 ms per step with the
    worker against 33.6-35.0 without it.
    """

    def __init__(self, grid: GridSpec, cfg: SolverConfig):
        import mmap
        import signal

        self.grid, self.cfg = grid, cfg
        v_size, rate_size = 4 * grid.shape[0] * grid.shape[1], 4 * grid.nx * grid.ny
        self._mem = mmap.mmap(-1, 64 + 8 * (v_size + rate_size))  # page-aligned, shared
        self._head = np.frombuffer(self._mem, np.int64, 2)  # posted, done
        self.V = np.frombuffer(self._mem, np.float64, v_size, 64).reshape(4, *grid.shape)
        self.rate = np.frombuffer(self._mem, np.float64, rate_size, 64 + 8 * v_size).reshape(
            4, grid.nx, grid.ny
        )
        (to_worker, self._posts), (self._dones, to_parent) = os.pipe(), os.pipe()
        fds = (to_worker, self._posts, self._dones, to_parent)
        for fd in fds:
            os.set_blocking(fd, False)
        self._parent = os.getpid()
        cpus = os.sched_getaffinity(0)
        here = _current_cpu()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.sched_setaffinity(0, {min(cpus - {here})})
                os.close(self._posts)
                os.close(self._dones)
                self._serve(to_worker, to_parent)
            except BaseException:
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(1)
        os.close(to_worker)
        os.close(to_parent)

    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        """A step's zeroed operator pair: a new E and the shared rate."""
        self._await_done()
        self.rate.fill(0.0)
        return np.zeros((4, self.grid.nx, self.grid.ny)), self.rate

    def build_stage(
        self, Vf: PrimitiveField, grid: GridSpec, cfg: SolverConfig, R: np.ndarray, D: np.ndarray
    ) -> SplitScalars:
        """``build_stage`` with the conservative rate built by the worker
        into ``D``, the shared rate of ``pair``, while this process builds
        the nonstiff operator into ``R``."""
        np.copyto(self.V, Vf.array)
        self._head[0] += 1
        _wake(self._posts)
        scalars = split_scalars(Vf, grid, cfg.epsilon)
        for cells, traces, axis, h, work, cut in _strips(Vf.array, grid, cfg):
            along(R, axis)[cut] += nonstiff_rate(cells, traces, scalars, cfg, axis, h, work)
        self._await_done()
        return scalars

    def close(self) -> None:
        """Kill and reap the worker, and close this side's pipes."""
        import signal

        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        os.close(self._posts)
        os.close(self._dones)

    def _await_done(self) -> None:
        head = self._head
        _wait(lambda: head[1] == head[0], self._dones, self._check_worker)

    def _check_worker(self) -> None:
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self.pid = 0
            raise ChildProcessError(f"the conservative worker ended (wait status {status})")

    def _serve(self, posts: int, dones: int) -> None:
        """The worker's loop: build every posted stage's conservative rate."""
        head, seen = self._head, 0

        def parent_alive():
            if os.getppid() != self._parent:
                os._exit(1)

        while True:
            _wait(lambda: head[0] != seen, posts, parent_alive)
            seen = int(head[0])
            try:
                for _, traces, axis, h, work, cut in _strips(self.V, self.grid, self.cfg):
                    along(self.rate, axis)[cut] -= flux_divergence(traces, self.cfg, axis, h, work)
            except NonPhysicalState:
                pass  # the parent's own reconstruction of the stage raises it too
            head[1] = seen
            _wake(dones)
