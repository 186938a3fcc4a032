"""The conservative worker that ``run`` forks on large grids: the same results
as the serial step loop, bit for bit, and no process left behind."""

import os
import signal
import threading
import time

import numpy as np
import pytest

import allmach.integrator as integrator
from allmach.benchmarks import CASES
from allmach.errors import NonPhysicalState
from allmach.integrator import PARALLEL_CELLS, RunReport, run

from builders import children


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked during the test."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("run forks no worker on one CPU")
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def stepped(case, eps, nx, ny, steps=8, serial=False, callback=None):
    """``(state, report)`` of ``run`` from the case's start for ``steps``
    steps, or to its final time if that comes first; with ``serial``,
    PARALLEL_CELLS is out of reach and run steps in this process alone."""
    grid, cfg, state = CASES[case].start(eps, nx, ny)
    report = RunReport()

    def stop(t, state, step):
        if callback is not None:
            callback(t, state, step)
        return report.steps < steps

    with pytest.MonkeyPatch.context() as mp:
        if serial:
            mp.setattr(integrator, "PARALLEL_CELLS", nx * ny + 1)
        return run(state, grid, cfg, CASES[case].final_time(eps), stop, report)


def assert_same(a, b):
    (state_a, report_a), (state_b, report_b) = a, b
    assert np.array_equal(state_a.V.array, state_b.V.array)
    assert np.array_equal(state_a.U.array, state_b.U.array)
    assert state_a.t == state_b.t
    assert report_a.reports == report_b.reports
    assert report_a.rejections == report_b.rejections


@pytest.mark.parametrize("case, eps, nx, ny", [
    ("gresho", 1e-3, 64, 64),
    ("explosion", 0.9, 64, 64),
    ("double_shear", 0.3, 64, 64),
    ("double_shear", 0.3, 48, 80),  # unequal spacing, more y strips than x strips
])
def test_worker_run_equals_the_serial_loop(forks, case, eps, nx, ny):
    assert nx * ny >= PARALLEL_CELLS
    serial = stepped(case, eps, nx, ny, serial=True)
    assert forks == []
    assert_same(stepped(case, eps, nx, ny), serial)
    assert len(forks) == 1 and children() == []


def test_rejected_steps_are_retried_alike(forks):
    # the explosion at eps 0.3 rejects its first CFL step (at 24^2 too, see
    # TestRun); at 64^2 it takes 29 steps to t = 0.08 and rejects 1
    serial = stepped("explosion", 0.3, 64, 64, steps=100, serial=True)
    assert serial[1].steps == 29 and serial[1].rejections == 1
    assert_same(stepped("explosion", 0.3, 64, 64, steps=100), serial)
    assert len(forks) == 1 and children() == []


def test_stage_abandoned_mid_build_is_retried_on_a_clean_rate(forks, monkeypatch):
    # the parent's nonstiff operator fails on the first strip of the second
    # step, while the worker builds that stage's rate: the retry at half the
    # step must wait for the worker before it zeroes the rate and overwrites V
    nonstiff_rate, calls = integrator.nonstiff_rate, []

    def failing_once(*args):
        calls.append(1)
        if len(calls) == 9:  # 4 strips a stage at 64^2, two stages a step
            raise NonPhysicalState("boom")
        return nonstiff_rate(*args)

    monkeypatch.setattr(integrator, "nonstiff_rate", failing_once)
    serial = stepped("explosion", 0.9, 64, 64, serial=True)
    assert serial[1].rejections == 1
    calls.clear()
    assert_same(stepped("explosion", 0.9, 64, 64), serial)
    assert len(forks) == 1 and children() == []


def test_failing_run_raises_the_serial_error(forks):
    # the explosion at eps 0.05 fails its first step at every halving
    with pytest.raises(NonPhysicalState) as serial:
        stepped("explosion", 0.05, 64, 64, serial=True)
    with pytest.raises(NonPhysicalState) as split:
        stepped("explosion", 0.05, 64, 64)
    assert str(split.value) == str(serial.value)
    assert str(serial.value).startswith("step 0, t=0: ")
    assert len(forks) == 1 and children() == []


def test_worker_ends_with_a_run_interrupted_from_its_callback(forks):
    def interrupt(t, state, step):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        stepped("gresho", 1e-3, 64, 64, callback=interrupt)
    assert len(forks) == 1 and children() == []


def test_killed_worker_ends_the_run(forks):
    killed = []

    def kill(t, state, step):
        if not killed:
            os.kill(forks[0], signal.SIGKILL)
            killed.append(time.perf_counter())

    with pytest.raises(ChildProcessError, match="conservative worker ended"):
        stepped("gresho", 1e-3, 64, 64, callback=kill)
    assert time.perf_counter() - killed[0] < 5.0
    assert children() == []


@pytest.mark.parametrize("n, cpus", [(16, None), (64, {0})])
def test_no_fork_below_the_threshold_or_on_one_cpu(forks, monkeypatch, n, cpus):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    stepped("explosion", 0.9, n, n, steps=2)
    assert forks == []


def test_no_fork_beside_another_thread(forks):
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10.0,))
    thread.start()
    try:
        stepped("explosion", 0.9, 64, 64, steps=2)
    finally:
        done.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert forks == []
