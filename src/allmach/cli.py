"""Command-line driver: run benchmarks, convergence sweeps, and AP probes.

Exit codes: 0 success, 1 failed diagnostic probe, 2 non-physical state,
3 pressure operator not positive definite, 4 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .benchmarks import CASES, convergence_study, run_case
from .errors import NoConvergence, NonPhysicalState
from .integrator import DualState, compute_dt, run, si_dec_step
from .nonstiff import split_scalars
from .stiff import discrete_divergence
from .snapshots import snapshot_write


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _parse_dt_override(text: str) -> tuple[int, float]:
    try:
        count, _, value = text.partition(":")
        return int(count), float(value)
    except ValueError as exc:
        raise ConfigError(f"bad --dt-override {text!r}, expected N:VALUE") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad int list {text!r}") from exc


def _load_config_file(path: str, known: set[str]) -> dict[str, str]:
    """Flat ``key = value`` lines; every key must name a flag in ``known``."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(ns: argparse.Namespace, file_cfg: dict[str, str], key: str, default, convert):
    """Flags win over the config file, which wins over defaults."""
    cli_value = getattr(ns, key, None)
    if cli_value is not None:
        return cli_value
    if key in file_cfg:
        return convert(file_cfg[key])
    return default


def _scheme_overrides(ns: argparse.Namespace, file_cfg: dict[str, str]) -> dict:
    """SolverConfig fields set by flag or config file."""
    overrides = {}
    for key, attr, convert in (("cfl", "k_cfl", float), ("theta", "theta", float),
                               ("order", "order", int)):
        value = _resolve(ns, file_cfg, key, None, convert)
        if value is not None:
            overrides[attr] = value
    return overrides


def build_parser() -> _Parser:
    parser = _Parser(prog="allmach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file mirroring the flags; flags win")
        p.add_argument("--eps", type=float, help="reference Mach number")
        p.add_argument("--nx", type=int)
        p.add_argument("--ny", type=int)
        p.add_argument("--cfl", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--order", type=int, choices=(1, 2))
        p.add_argument("--out-dir", dest="out_dir")

    p_run = sub.add_parser("run", help="run one benchmark case")
    common(p_run)
    p_run.add_argument("--case", choices=sorted(CASES))
    p_run.add_argument("--t-final", type=float, dest="t_final")
    p_run.add_argument("--snap-times", dest="snap_times", help="comma-separated times")
    p_run.add_argument("--dt-override", dest="dt_override", help="N:VALUE for the first N steps")

    p_conv = sub.add_parser("convergence", help="mesh-refinement error study")
    common(p_conv)
    p_conv.add_argument("--case", choices=sorted(k for k, c in CASES.items() if c.has_exact))
    p_conv.add_argument("--eps-list", dest="eps_list", help="comma-separated Mach numbers")
    p_conv.add_argument("--n-list", dest="n_list", help="comma-separated mesh sizes")
    p_conv.add_argument("--t-final", type=float, dest="t_final")

    p_diag = sub.add_parser("diagnose", help="asymptotic-consistency probe suite")
    common(p_diag)
    return parser


def cmd_run(ns, file_cfg) -> int:
    case_name = _resolve(ns, file_cfg, "case", None, str)
    if case_name is None or case_name not in CASES:
        raise ConfigError(f"unknown or missing case {case_name!r}")
    case = CASES[case_name]
    eps = _resolve(ns, file_cfg, "eps", 1.0, float)
    nx = _resolve(ns, file_cfg, "nx", 64, int)
    ny = _resolve(ns, file_cfg, "ny", nx, int)
    overrides = _scheme_overrides(ns, file_cfg)
    dt_override = _resolve(ns, file_cfg, "dt_override", None, str)
    if dt_override is not None:
        overrides["dt_override"] = _parse_dt_override(dt_override)
    t_final = _resolve(ns, file_cfg, "t_final", None, float)
    snap_spec = _resolve(ns, file_cfg, "snap_times", None, str)
    snap_times = _parse_floats(snap_spec) if snap_spec else []
    out_dir = _resolve(ns, file_cfg, "out_dir", None, str)

    grid = case.make_grid(nx, ny, eps)
    cfg = case.config(eps, **overrides)
    state = DualState.from_primitive(case.initial_state(grid, eps), grid, cfg)
    t_end = case.final_time(eps) if t_final is None else t_final

    def file_name(t):
        return f"{case.name}_t{t:.6f}.dat"

    pending = sorted(t for t in snap_times if t <= t_end)
    owner: dict[str, float] = {}  # file name -> the one time it holds
    for t in sorted(set(pending) | {t_end}):
        name = file_name(t)
        if owner.setdefault(name, t) != t:
            raise ConfigError(f"snapshot times {owner[name]} and {t} both map to {name}")

    out_path = Path(out_dir) if out_dir else None
    if out_path:
        out_path.mkdir(parents=True, exist_ok=True)

    written = None  # (path, t) of the last file, so that no file is written twice

    def write(st, t_name):
        nonlocal written
        if out_path is None:
            return
        path = out_path / file_name(t_name)
        if written != (path, st.t):
            snapshot_write(st, grid, cfg, path)
            written = (path, st.t)

    while pending and pending[0] <= state.t:  # no step can reach these
        write(state, pending.pop(0))

    def callback(t, st, rep):
        while pending and t >= pending[0] - 1e-12:
            write(st, pending.pop(0))
        return True

    state, report = run(state, grid, cfg, t_end, callback=callback, snap_times=snap_times)
    write(state, state.t)
    div = report.max_divergences[-1] if report.steps else 0.0
    fluct = report.pressure_fluctuations[-1] if report.steps else 0.0
    print(
        f"{case.name}: {report.steps} steps to t={state.t:.6g} "
        f"(eps={eps:g}, {nx}x{ny}); max|div u|={div:.3e}, max p - min p={fluct:.3e}"
    )
    return 0


def cmd_convergence(ns, file_cfg) -> int:
    case_name = _resolve(ns, file_cfg, "case", None, str)
    if case_name is None or case_name not in CASES or not CASES[case_name].has_exact:
        raise ConfigError(f"case {case_name!r} unknown or lacks an exact solution")
    case = CASES[case_name]
    eps_spec = _resolve(ns, file_cfg, "eps_list", "1.0", str)
    n_spec = _resolve(ns, file_cfg, "n_list", "32,64", str)
    t_final = _resolve(ns, file_cfg, "t_final", None, float)
    out_dir = _resolve(ns, file_cfg, "out_dir", None, str)
    overrides = _scheme_overrides(ns, file_cfg)

    table = convergence_study(
        case, _parse_floats(eps_spec), _parse_ints(n_spec), t_final=t_final, **overrides
    )
    print(table.format_text())
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"convergence_{case.name}.dat").write_text(table.format_delimited())
    return 0


def cmd_diagnose(ns, file_cfg) -> int:
    eps = _resolve(ns, file_cfg, "eps", 1e-2, float)
    nx = _resolve(ns, file_cfg, "nx", 64, int)
    case = CASES["gresho"]
    ok = True

    def first_dt(e: float) -> float:
        grid = case.make_grid(nx, nx, e)
        cfg = case.config(e)
        V0 = case.initial_state(grid, e)
        return compute_dt(V0, split_scalars(V0, grid, e), grid, cfg)

    dt_here, dt_zero = first_dt(eps), first_dt(1e-6)
    ratio = dt_here / dt_zero
    passed = abs(ratio - 1.0) <= 0.1
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} dt-uniformity: dt({eps:g})/dt(1e-6) = {ratio:.4f}")

    grid = case.make_grid(nx, nx, 1e-6)
    cfg = case.config(1e-6)
    state = DualState.from_primitive(case.initial_state(grid, 1e-6), grid, cfg)
    div0 = float(np.abs(discrete_divergence(state.V.u, state.V.v, grid)).max())
    worst = div0
    for _ in range(20):
        state, rep = si_dec_step(state, grid, cfg)
        worst = max(worst, rep.max_divergence)
    passed = worst <= 5.0 * div0
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} divergence-control: max growth {worst / div0:.3f}x over 20 steps")

    def fluct(e: float) -> float:
        _, st, rep, _ = run_case(case, e, nx, nx, t_final=0.2)
        return rep.pressure_fluctuations[-1]

    r = fluct(eps) / fluct(eps / 10.0)
    passed = 50.0 <= r <= 200.0
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} pressure-scaling: fluctuation ratio {r:.1f} (target 100)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        known = set(vars(ns)) - {"command", "config"}  # the subcommand's flags
        file_cfg = _load_config_file(ns.config, known) if getattr(ns, "config", None) else {}
        if ns.command == "run":
            return cmd_run(ns, file_cfg)
        if ns.command == "convergence":
            return cmd_convergence(ns, file_cfg)
        return cmd_diagnose(ns, file_cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonPhysicalState as exc:
        print(f"non-physical state: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"pressure solve failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
