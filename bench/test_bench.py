"""Tests of the benchmark itself: every check fails on a broken input, and
every workload runs at a tiny grid.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import allmach
import tracing
import workloads
from conftest import BENCH
from workloads import WORKLOADS

ROOT = BENCH.parent


def tiny(name: str) -> workloads.Workload:
    """The workload at 16x16 cells, with its checks kept."""
    w = WORKLOADS[name]
    if w.snap_times:
        return dataclasses.replace(w, n=16, t_final=0.3, snap_times=(0.1, 0.2))
    # Seed L1 errors of gresho at 16x16 after 3 steps, plus 10 percent.
    bound = (1.72e-2, 1.07e-2, 1.07e-2, 1.55e-8) if w.l1_bound else None
    return dataclasses.replace(w, n=16, steps=3, l1_bound=bound)


def initial(name: str, n: int = 16):
    w = WORKLOADS[name]
    case = allmach.CASES[w.case]
    grid = case.make_grid(n, n, w.eps)
    cfg = case.config(w.eps)
    state = allmach.DualState.from_primitive(case.initial_state(grid, w.eps), grid, cfg)
    return case, grid, cfg, state


def test_symmetry_check_catches_transpose_asymmetry():
    _, grid, _, state = initial("explosion-shock")
    assert workloads.check_symmetry(state.V, grid) == []
    state.V.rho[grid.interior][3, 5] *= 1.0 + 1e-12
    assert any("rho" in f for f in workloads.check_symmetry(state.V, grid))
    _, grid, _, state = initial("explosion-shock")
    state.V.u[grid.interior][3, 5] += 1e-12
    assert any("u - v^T" in f for f in workloads.check_symmetry(state.V, grid))


def test_totals_check_catches_mass_drift():
    _, grid, _, state = initial("double_shear-frames")
    before = workloads.totals(state.U, grid)
    assert workloads.check_totals(before, workloads.totals(state.U, grid)) == []
    state.U.rho[grid.interior][7, 7] *= 1.0 + 1e-10
    assert any("rho" in f for f in workloads.check_totals(before, workloads.totals(state.U, grid)))


def test_l1_check_catches_a_wrong_solution():
    w = tiny("gresho-lowmach")
    case, grid, _, state = initial(w.name)
    exact = case.exact_state(grid, w.eps, 0.0)
    assert workloads.check_l1(state.V, exact, grid, w.l1_bound) == []
    state.V.u[grid.interior] *= 1.5
    assert any("L1(u)" in f for f in workloads.check_l1(state.V, exact, grid, w.l1_bound))


@pytest.mark.parametrize("line", ["header", "row"])
def test_snapshot_check_catches_one_altered_digit(tmp_path, line):
    _, grid, cfg, state = initial("double_shear-frames")
    rep = workloads.Repetition()
    write = workloads.record_snapshots(allmach.snapshot_write, rep, [0.0])
    write(state, grid, cfg, tmp_path / "snap.dat")
    exp = rep.files[0]
    assert workloads.check_snapshot(exp) == []

    # Alter the leading digit of the time in the header, or of rho in a row
    # (a 17th digit can change without changing the double it parses to).
    lines = exp.path.read_text().splitlines(keepends=True)
    index, token = (0, 3) if line == "header" else (len(lines) // 2, 4)
    parts = lines[index].split(" ")
    parts[token] = str((int(parts[token][0]) + 1) % 10) + parts[token][1:]
    lines[index] = " ".join(parts)
    exp.path.write_text("".join(lines))
    assert workloads.check_snapshot(exp) != []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_grid(tmp_path, name):
    w = tiny(name)
    rep = workloads.run_repetition(w, tmp_path / "out")
    assert rep.failures == []
    assert len(rep.step_ms) >= 3 and rep.run_s > 0 and rep.rss_mb > 0
    if w.snap_times:
        assert len(rep.files) == len(w.snap_times) + 1
        assert all(size > 0 for size in rep.file_bytes)


def test_trace_reports_every_per_layer_metric_and_unwraps(tmp_path):
    solve = allmach.integrator.solve_helmholtz
    tracer = tracing.Tracer()
    with tracer.installed():
        assert allmach.integrator.solve_helmholtz is not solve
    assert allmach.integrator.solve_helmholtz is solve
    rep = workloads.run_repetition(tiny("double_shear-frames"), tmp_path / "out", tracer)
    assert allmach.integrator.solve_helmholtz is solve
    assert rep.failures == []

    profile = tracing.Profile(tracer.spans)
    assert profile.calls[tracing.STEP] == len(rep.step_ms)
    assert profile.calls[tracing.SOLVE] == 2 * len(rep.step_ms) == len(tracer.solves)
    # The checks, which set up the initial state again, are not traced.
    assert profile.calls[("benchmarks", "initial_state")] == 1
    metrics = tracing.per_layer_metrics(profile, tracer.solves, rep.file_bytes, rep.run_s, 0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert all(np.isfinite(value) for value, _ in metrics.values())
    for layer in tracing.LAYERS:
        assert profile.layer_self(layer) > 0.0, layer


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gresho-lowmach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
