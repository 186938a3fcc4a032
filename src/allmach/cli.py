"""Command-line driver: run benchmarks, convergence sweeps, and AP probes.

Exit codes: 0 success, 1 failed diagnostic probe, 2 non-physical state,
3 pressure operator not positive definite, 4 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarks import CASES, convergence_study, run_case
from .errors import NoConvergence, NonPhysicalState
from .integrator import RunReport, run, si_dec_step
from .stiff import discrete_divergence
from .snapshots import snapshot_write


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


# Argument types; argparse names them in its message for a value they reject.


def float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def count_and_step(text: str) -> tuple[int, float]:
    count, _, value = text.partition(":")
    return int(count), float(value)


def _config_args(path: str, known: set[str]) -> list[str]:
    """Flat ``key = value`` lines as ``--key=value`` arguments; every key must
    name a flag in ``known`` (spelt with underscores)."""
    args = []
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
        args.append(f"--{key.replace('_', '-')}={value.strip()}")
    return args


def _scheme_overrides(ns: argparse.Namespace) -> dict:
    """SolverConfig fields that were given; the rest keep the case's values."""
    fields = {"cfl": "k_cfl", "theta": "theta", "order": "order", "dt_override": "dt_override"}
    return {f: getattr(ns, key) for key, f in fields.items() if getattr(ns, key, None) is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="allmach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value file mirroring the flags; flags win")
        return p

    def scheme_and_output(p):
        p.add_argument("--cfl", type=float, help="CFL number (default: the case's)")
        p.add_argument("--theta", type=float, help="limiter parameter in [1, 2] (default 1.3)")
        p.add_argument("--order", type=int, choices=(1, 2), help="order in time (default 2)")
        p.add_argument("--t-final", type=float, help="end time (default: the case's)")
        p.add_argument("--out-dir")

    p = command("run", "run one benchmark case")
    p.add_argument("--case", choices=sorted(CASES))
    p.add_argument("--eps", type=float, default=1.0, help="reference Mach number (default 1)")
    p.add_argument("--nx", type=int, default=64, help="cells along x (default 64)")
    p.add_argument("--ny", type=int, help="cells along y (default: nx)")
    scheme_and_output(p)
    p.add_argument("--snap-times", type=float_list, default=(), help="comma-separated times")
    p.add_argument("--dt-override", type=count_and_step, metavar="N:VALUE",
                   help="step VALUE for the first N steps")

    p = command("convergence", "mesh-refinement error study")
    p.add_argument("--case", choices=sorted(k for k, c in CASES.items() if c.has_exact))
    p.add_argument("--eps-list", type=float_list, default=[1.0], help="Mach numbers (default 1.0)")
    p.add_argument("--n-list", type=int_list, default=[32, 64], help="grid sizes (default 32,64)")
    scheme_and_output(p)

    p = command("diagnose", "asymptotic-consistency probe suite")
    p.add_argument("--eps", type=float, default=1e-2, help="reference Mach number (default 1e-2)")
    p.add_argument("--nx", type=int, default=64, help="cells per side (default 64)")
    return parser


def cmd_run(ns) -> int:
    case = CASES[ns.case]
    eps, nx = ns.eps, ns.nx
    ny = nx if ns.ny is None else ns.ny

    grid, cfg, state = case.start(eps, nx, ny, **_scheme_overrides(ns))
    t_end = case.final_time(eps) if ns.t_final is None else ns.t_final

    # Run to each requested time in turn and write the state there; %.6f
    # names are monotone in t, so only neighbours can share a name.
    if ns.snap_times and min(ns.snap_times) < state.t:
        raise ConfigError(f"snapshot time {min(ns.snap_times)} precedes the start t={state.t:g}")
    times = sorted({t for t in ns.snap_times if t <= t_end} | {t_end})
    named = [(t, f"{case.name}_t{t:.6f}.dat") for t in times]
    for (t0, name0), (t1, name1) in zip(named, named[1:]):
        if name0 == name1:
            raise ConfigError(f"snapshot times {t0} and {t1} both map to {name1}")

    out_path = Path(ns.out_dir) if ns.out_dir else None
    report = RunReport()
    for t, name in named:
        # run returns at once for a time at the start, and rejects a t_end
        # before it or not finite; a rejected run makes no directory
        state, _ = run(state, grid, cfg, t, report=report)
        if out_path:
            out_path.mkdir(parents=True, exist_ok=True)
            snapshot_write(state, grid, cfg, out_path / name)
    summary = (
        f"{case.name}: {report.steps} steps ({report.rejections} rejected) to t={state.t:.6g} "
        f"(eps={eps:g}, {nx}x{ny})"
    )
    if report.reports:  # the diagnostics of the last step, if one ran
        last = report.reports[-1]
        summary += (
            f"; max|div u|={last.max_divergence:.3e}, "
            f"max p - min p={last.pressure_fluctuation:.3e}"
        )
    print(summary)
    return 0


def cmd_convergence(ns) -> int:
    case = CASES[ns.case]
    table = convergence_study(
        case, ns.eps_list, ns.n_list, t_final=ns.t_final, **_scheme_overrides(ns)
    )
    print(table.format_text())
    if ns.out_dir:
        path = Path(ns.out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"convergence_{case.name}.dat").write_text(table.format_delimited())
    return 0


def cmd_diagnose(ns) -> int:
    eps, nx = ns.eps, ns.nx
    case = CASES["gresho"]
    ok = True
    dt_here, dt_zero = case.initial_dt(nx, eps), case.initial_dt(nx, 1e-6)
    ratio = dt_here / dt_zero
    passed = abs(ratio - 1.0) <= 0.1
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} dt-uniformity: dt({eps:g})/dt(1e-6) = {ratio:.4f}")

    grid, cfg, state = case.start(1e-6, nx, nx)
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
        return rep.reports[-1].pressure_fluctuation

    r = fluct(eps) / fluct(eps / 10.0)
    passed = 50.0 <= r <= 200.0
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} pressure-scaling: fluctuation ratio {r:.1f} (target 100)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # File values go right after the subcommand: argparse keeps the
            # last occurrence of a flag, so the command line wins.
            known = set(vars(ns)) - {"command", "config"}  # the subcommand's flags
            ns = parser.parse_args(argv[:1] + _config_args(ns.config, known) + argv[1:])
        if "case" in ns and ns.case is None:
            raise ConfigError("the following arguments are required: --case")
        commands = {"run": cmd_run, "convergence": cmd_convergence, "diagnose": cmd_diagnose}
        return commands[ns.command](ns)
    except ValueError as exc:  # ConfigError, or a SolverConfig check
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
