"""Per-layer tracing of the allmach solver from outside the package.

The tracer replaces every function name that one ``allmach`` module binds
from another (``integrator.solve_helmholtz``, ``elliptic.fill_ghost_array``,
...) with a wrapper that records a span: layer, function, start, end and the
enclosing span.  The layer is the module that defines the function.  A few
calls stay inside one module and are wrapped there as well (the step, its time
step and its blend in ``integrator``; ``cli.main``; the ``validate`` methods
of ``state``; ``initial_state`` of ``benchmarks``).  Names must be wrapped
where they are bound in the calling module: ``integrator`` imports
``solve_helmholtz`` by name, so wrapping ``allmach.elliptic.solve_helmholtz``
would see no call.

Spans stay in memory until ``write`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import allmach
from allmach.benchmarks import BenchmarkCase
from allmach.state import ConservativeField, PrimitiveField

from workloads import patched

LAYERS = (
    "reconstruction", "nonstiff", "conservative", "stiff", "elliptic", "integrator",
    "state", "grid", "snapshots", "benchmarks", "cli",
)
EXPLICIT = ("reconstruction", "nonstiff", "conservative")

# Calls that stay inside one module but mark a boundary worth timing, and the
# command-line entry point the snapshot workload calls.
SAME_MODULE = (
    ("allmach.cli", "main"),
    ("allmach.integrator", "si_dec_step"),
    ("allmach.integrator", "compute_dt"),
    ("allmach.integrator", "post_process"),
)
METHODS = (
    (PrimitiveField, "validate"),
    (ConservativeField, "validate"),
    (BenchmarkCase, "initial_state"),
)

STEP = ("integrator", "si_dec_step")
SOLVE = ("elliptic", "solve_helmholtz")


class Span(NamedTuple):
    layer: str
    func: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    rep: int


def _targets():
    """(owner, name, function) for every binding the tracer wraps."""
    modules = [allmach] + [importlib.import_module(f"allmach.{m}") for m in LAYERS]
    for mod in modules:
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("allmach.")
                and obj.__module__ != mod.__name__
            ):
                yield mod, name, obj
    for mod_name, name in SAME_MODULE:
        mod = importlib.import_module(mod_name)
        yield mod, name, vars(mod)[name]
    for cls, name in METHODS:
        yield cls, name, vars(cls)[name]


class Tracer:
    """Collects spans and pressure-solve results while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solves: list[tuple[int, float]] = []  # (iterations, relative residual)
        self.rep = 0
        self._stack: list[int] = []
        self._paused = False

    def _wrap(self, fn):
        key = (fn.__module__.rsplit(".", 1)[1], fn.__name__)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(key[0], key[1], start, end, parent, self.rep)
            if key == SOLVE:
                rhs_norm = float(np.linalg.norm(args[0].rhs))
                self.solves.append((result[1], result[2] / rhs_norm if rhs_norm else 0.0))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, name, fn in list(_targets()):
                stack.enter_context(patched(owner, name, self._wrap(fn)))
            yield self

    @contextlib.contextmanager
    def paused(self):
        """Record nothing for the duration of the block."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps([i, s.parent, s.rep, s.layer, s.func, s.start, s.end]) + "\n")


class Profile:
    """Self and inclusive times (s) aggregated from a list of spans."""

    def __init__(self, spans: list[Span]):
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self.spans = spans
        self.self_s = defaultdict(float)  # (layer, func) -> s
        self.incl_s = defaultdict(float)  # (layer, func) -> s
        self.calls = defaultdict(int)
        for s, c in zip(spans, child):
            key = (s.layer, s.func)
            self.self_s[key] += s.end - s.start - c
            self.incl_s[key] += s.end - s.start
            self.calls[key] += 1

    def layer_self(self, layer: str) -> float:
        return sum(t for (lay, _), t in self.self_s.items() if lay == layer)

    def inclusive(self, layers) -> float:
        """Time inside any of ``layers``, counting nested spans once."""
        spans = self.spans
        return sum(
            s.end - s.start
            for s in spans
            if s.layer in layers and (s.parent < 0 or spans[s.parent].layer not in layers)
        )


def per_layer_metrics(
    profile: Profile,
    solves: list[tuple[int, float]],
    file_bytes: list[int],
    run_s: float,
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json as name -> (value, unit)."""
    steps = profile.calls[STEP] or 1
    step_s = profile.incl_s[STEP] or 1.0
    files = len(file_bytes)
    iters = sum(it for it, _ in solves)

    def ms_per_step(seconds):
        return (1e3 * seconds / steps, "ms")

    return {
        "elliptic.solve_ms_per_step": ms_per_step(profile.self_s[SOLVE]),
        "elliptic.iters_per_solve": (iters / len(solves) if solves else 0.0, "count"),
        "elliptic.ms_per_iter": (1e3 * profile.incl_s[SOLVE] / iters if iters else 0.0, "ms"),
        "elliptic.residual_max": (max((r for _, r in solves), default=0.0), "1"),
        "elliptic.assemble_ms_per_step": ms_per_step(
            profile.self_s[("elliptic", "predictor_pressure_system")]
            + profile.self_s[("elliptic", "corrector_pressure_system")]
        ),
        "stiff.ms_per_step": ms_per_step(profile.layer_self("stiff")),
        "reconstruction.ms_per_step": ms_per_step(profile.layer_self("reconstruction")),
        "nonstiff.ms_per_step": ms_per_step(profile.layer_self("nonstiff")),
        "conservative.ms_per_step": ms_per_step(profile.layer_self("conservative")),
        "integrator.blend_ms_per_step": ms_per_step(profile.incl_s[("integrator", "post_process")]),
        "state.ms_per_step": ms_per_step(profile.layer_self("state")),
        "integrator.dt_ms_per_step": ms_per_step(profile.incl_s[("integrator", "compute_dt")]),
        "integrator.self_ms_per_step": ms_per_step(profile.layer_self("integrator")),
        "grid.ghosts_ms_per_step": ms_per_step(profile.layer_self("grid")),
        "snapshots.write_ms_per_file": (
            1e3 * profile.incl_s[("snapshots", "snapshot_write")] / files if files else 0.0, "ms"
        ),
        "snapshots.mb_per_file": (sum(file_bytes) / files / 1e6 if files else 0.0, "MB"),
        "benchmarks.init_ms": (
            1e3 * profile.incl_s[("benchmarks", "initial_state")]
            / (profile.calls[("benchmarks", "initial_state")] or 1),
            "ms",
        ),
        "elliptic.share_of_step_pct": (100.0 * profile.inclusive({"elliptic"}) / step_s, "%"),
        "explicit.share_of_step_pct": (100.0 * profile.inclusive(set(EXPLICIT)) / step_s, "%"),
        "snapshots.share_of_run_pct": (100.0 * profile.inclusive({"snapshots"}) / run_s, "%"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
