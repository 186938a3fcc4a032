"""Workloads of the allmach benchmark and the checks that every repetition passes.

A repetition starts from a benchmark case's initial state and runs a fixed
amount of solver work, so every repetition of a workload does identical work.
Two workloads drive the library API (``allmach.run``); the snapshot workload
drives the ``allmach run`` command line in-process, the way the time-series
figures are produced.  See README.md for why these three were chosen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import allmach
from allmach import cli, integrator
from allmach.grid import PERIODIC
from allmach.snapshots import snapshot_read, snapshot_rows

# Largest transpose asymmetry allowed on the explosion (measured 2.2e-16 for
# rho and 5.6e-16 for u against v^T after 20 steps).
SYMMETRY_TOL = 1e-14
# Largest relative drift of the conservative totals of rho and E on periodic
# grids (measured 0 to 2.7e-16 after 20 steps).
TOTALS_RTOL = 1e-13


@dataclass(frozen=True)
class Workload:
    """One fixed set of solver inputs.

    With ``snap_times`` empty the repetition calls ``allmach.run`` for
    ``steps`` steps; otherwise it runs ``allmach run`` to ``t_final`` and
    writes a snapshot at each of ``snap_times`` and at the end.
    """

    name: str
    case: str
    eps: float
    n: int
    why: str
    steps: int = 0
    t_final: float = 0.0
    snap_times: tuple[float, ...] = ()
    # Per-variable (rho, u, v, p) L1 bound against the exact solution.
    l1_bound: Optional[tuple[float, float, float, float]] = None
    # Require the x<->y transpose symmetry of the solution.
    symmetric: bool = False
    # (per-layer metric, least value in percent) showing that the workload
    # loads the layer it was chosen for.
    loads: tuple[str, float] = ("", 0.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gresho-lowmach", "gresho", 1e-3, 128, steps=20,
            why="eps=1e-3 steady vortex: the Helmholtz CG solve dominates the step",
            # Seed L1 errors after 20 steps (6.80e-4, 3.52e-4, 3.52e-4,
            # 1.44e-10), plus 10 percent.
            l1_bound=(7.48e-4, 3.87e-4, 3.87e-4, 1.59e-10),
            loads=("elliptic.share_of_step_pct", 50.0),
        ),
        Workload(
            "explosion-shock", "explosion", 0.9, 200, steps=20,
            why="eps=0.9 shock: the explicit operators dominate, the solve takes 6 CG iterations",
            symmetric=True,
            loads=("explicit.share_of_step_pct", 75.0),
        ),
        Workload(
            "double_shear-frames", "double_shear", 0.3, 128,
            t_final=0.12, snap_times=(0.02, 0.04, 0.06, 0.08, 0.1),
            why="eps=0.3 blended shear layer through the CLI with a snapshot every 5 steps",
            loads=("snapshots.share_of_run_pct", 25.0),
        ),
    )
}


@dataclass
class Expected:
    """What one snapshot file must hold, noted when it was written."""

    path: Path
    t: float
    shape: tuple[int, ...]
    digest: str
    totals: tuple[float, float]


@dataclass
class Repetition:
    """Timings and check outcome of one repetition."""

    step_ms: list[float] = field(default_factory=list)
    run_s: float = 0.0
    rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    files: list[Expected] = field(default_factory=list)
    file_bytes: list[int] = field(default_factory=list)


def rows_digest(rows: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=float).tobytes()).hexdigest()


def totals(U, grid) -> tuple[float, float]:
    """Domain sums of the conserved density and total energy."""
    core = grid.interior
    return float(U.rho[core].sum()), float(U.E[core].sum())


def check_totals(before: tuple[float, float], after: tuple[float, float]) -> list[str]:
    failures = []
    for name, a, b in zip(("rho", "E"), before, after):
        drift = abs(b - a) / abs(a)
        if not drift <= TOTALS_RTOL:
            failures.append(f"total {name} drifted by {drift:.3e} (> {TOTALS_RTOL:g})")
    return failures


def check_symmetry(V, grid) -> list[str]:
    core = grid.interior
    rho, u, v = V.rho[core], V.u[core], V.v[core]
    failures = []
    for name, gap in (
        ("max|rho - rho^T|", float(np.abs(rho - rho.T).max())),
        ("max|u - v^T|", float(np.abs(u - v.T).max())),
    ):
        if not gap <= SYMMETRY_TOL:
            failures.append(f"{name} = {gap:.3e} (> {SYMMETRY_TOL:g})")
    return failures


def check_l1(V, exact, grid, bound) -> list[str]:
    errors = allmach.l1_error(V, exact, grid)
    return [
        f"L1({name}) = {err:.4e} (> {limit:.4e})"
        for name, err, limit in zip(("rho", "u", "v", "p"), errors, bound)
        if not err <= limit
    ]


def check_snapshot(exp: Expected) -> list[str]:
    header, rows = snapshot_read(exp.path)
    failures = []
    if header.get("time") != exp.t:
        failures.append(f"{exp.path.name}: header time {header.get('time')!r} != state t {exp.t!r}")
    if rows.shape != exp.shape or rows_digest(rows) != exp.digest:
        failures.append(f"{exp.path.name}: rows differ from snapshot_rows of the state")
    return failures


def record_snapshots(write, rep: Repetition, noting_s: list, quiet=contextlib.nullcontext):
    """Wrap ``snapshot_write`` so each file's expected content is noted.

    The noting runs inside ``quiet()``, and its time accumulates in
    ``noting_s[0]``; it is not part of the workload's run time.
    """

    @functools.wraps(write)
    def recording_write(state, grid, cfg, path):
        write(state, grid, cfg, path)
        t0 = time.perf_counter()
        with quiet():
            rows = snapshot_rows(state, grid, cfg)
            rep.files.append(
                Expected(Path(path), state.t, rows.shape, rows_digest(rows), totals(state.U, grid))
            )
        noting_s[0] += time.perf_counter() - t0

    return recording_write


def timed_steps(step, sink: list):
    """Wrap ``si_dec_step`` so each call's wall time lands in ``sink`` (ms)."""

    @functools.wraps(step)
    def timed_step(*args, **kwargs):
        t0 = time.perf_counter()
        out = step(*args, **kwargs)
        sink.append((time.perf_counter() - t0) * 1e3)
        return out

    return timed_step


@contextlib.contextmanager
def patched(owner, name, value):
    """Bind ``owner.name`` to ``value`` for the duration of the block."""
    old = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_api(w: Workload, rep: Repetition):
    case = allmach.CASES[w.case]
    grid = case.make_grid(w.n, w.n, w.eps)
    cfg = case.config(w.eps)
    state = allmach.DualState.from_primitive(case.initial_state(grid, w.eps), grid, cfg)
    before = totals(state.U, grid)
    state, report = allmach.run(
        state, grid, cfg, case.final_time(w.eps),
        callback=lambda t, st, r: len(rep.step_ms) < w.steps,
    )
    return case, grid, state, report, before


def _run_cli(w: Workload, rep: Repetition, out_dir: Path, quiet) -> tuple[int, str, float]:
    argv = [
        "run", "--case", w.case, "--eps", repr(w.eps), "--nx", str(w.n), "--ny", str(w.n),
        "--t-final", repr(w.t_final), "--snap-times", ",".join(map(repr, w.snap_times)),
        "--out-dir", str(out_dir),
    ]
    noting = [0.0]
    stdout = io.StringIO()
    with patched(cli, "snapshot_write", record_snapshots(cli.snapshot_write, rep, noting, quiet)):
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    return code, stdout.getvalue(), noting[0]


def run_repetition(w: Workload, out_dir: Path, tracer=None) -> Repetition:
    """Run one repetition, then check its outputs.

    With a ``tracer`` (tracing.Tracer) the run, but not the checks, is traced.
    ``rss_mb`` is the process's peak resident memory sampled after the run
    and before the checks, so it covers the solver but not the checks.
    """
    rep = Repetition()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    quiet = tracer.paused if tracer else contextlib.nullcontext
    if w.snap_times:
        shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        with installed, patched(
            integrator, "si_dec_step", timed_steps(integrator.si_dec_step, rep.step_ms)
        ):
            if w.snap_times:
                code, text, noting_s = _run_cli(w, rep, out_dir, quiet)
            else:
                case, grid, state, report, before = _run_api(w, rep)
                noting_s = 0.0
    except (allmach.NonPhysicalState, allmach.NoConvergence) as exc:
        rep.run_s = time.perf_counter() - t0
        rep.rss_mb = peak_rss_mb()
        rep.failures.append(f"{type(exc).__name__}: {exc}")
        return rep
    rep.run_s = time.perf_counter() - t0 - noting_s
    rep.rss_mb = peak_rss_mb()

    if w.snap_times:
        rep.failures += _check_cli(w, rep, code, text)
        shutil.rmtree(out_dir, ignore_errors=True)
    else:
        rep.failures += _check_api(w, case, grid, state, report, before)
    return rep


def _check_api(w, case, grid, state, report, before) -> list[str]:
    failures = []
    if report.steps != w.steps:
        failures.append(f"ran {report.steps} steps, expected {w.steps}")
    if grid.bc_x == PERIODIC and grid.bc_y == PERIODIC:
        failures += check_totals(before, totals(state.U, grid))
    if w.symmetric:
        failures += check_symmetry(state.V, grid)
    if w.l1_bound is not None:
        exact = case.exact_state(grid, w.eps, state.t)
        failures += check_l1(state.V, exact, grid, w.l1_bound)
    return failures


def _check_cli(w: Workload, rep: Repetition, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"allmach run exited with {code}"]
    failures = []
    if not text.startswith(f"{w.case}:"):
        failures.append(f"unexpected CLI output {text!r}")
    if len(rep.files) != len(w.snap_times) + 1:
        failures.append(f"wrote {len(rep.files)} snapshots, expected {len(w.snap_times) + 1}")
    case = allmach.CASES[w.case]
    grid = case.make_grid(w.n, w.n, w.eps)
    cfg = case.config(w.eps)
    initial = allmach.DualState.from_primitive(case.initial_state(grid, w.eps), grid, cfg)
    before = totals(initial.U, grid)
    for exp in rep.files:
        rep.file_bytes.append(exp.path.stat().st_size)
        failures += check_snapshot(exp)
        failures += [f"{exp.path.name}: {f}" for f in check_totals(before, exp.totals)]
    if rep.files and not math.isclose(rep.files[-1].t, w.t_final, rel_tol=1e-12):
        failures.append(f"last snapshot at t={rep.files[-1].t!r}, expected {w.t_final!r}")
    return failures
