"""Mutation gate: the unit suite must fail on each of a fixed set of mutants.

Each mutant replaces one exact string in one module of ``src/allmach`` with
a wrong variant (mutation testing after DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978).  The mutants are applied
one at a time to a temporary copy of ``src``, ``tests``, ``tools``,
``pyproject.toml`` and ``README.md``, and the copy runs

    pytest -q -x -m "not golden" <each tests/test_*.py, test_acceptance.py last>

so the golden digests, which fail on almost any change, do not count.  The
unit files run first because most mutants fail there in seconds;
test_mutants.py, which checks this file's strings against ``src``, does
not run.  A mutant
is killed when pytest reports a failure (exit 1) and survived when the suite
passes.  Equivalent mutants, which equal the original up to rounding, are
listed and checked for a match but never run or counted.

    python tools/mutants.py

The unmutated copy runs first and must pass.  Prints killed or survived per
mutant and exits 1 if any survived.  Exits 2, running no mutant, unless
every original string occurs exactly once in its module and the unmutated
copy passes; otherwise also 2 when pytest ended in some other way (an
error, not a verdict) for a mutant and none survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "allmach"

# (module, original, mutant, what the mutant breaks)
MUTANTS = [
    ("stiff.py", "/ (2.0 * grid.spacing(axis))", "/ (2.0 * grid.spacing(1 - axis))",
     "central difference divides by the other axis's spacing"),
    ("stiff.py", "return cfg.epsilon**2 * scalars.rho_max,", "return cfg.epsilon * scalars.rho_max,",
     "stiff coefficient eps instead of eps^2"),
    ("elliptic.py", "second /= grid.spacing(axis) ** 2", "second /= grid.spacing(1 - axis) ** 2",
     "compact Laplacian divides by the other axis's spacing"),
    ("elliptic.py", "sigma = dt**2 * gp / eps2_rhomax", "sigma = dt * gp / eps2_rhomax",
     "Helmholtz shift with dt instead of dt^2"),
    ("elliptic.py", "lam = (2.0 - 2.0 * np.cos(angle)) / h**2",
     "lam = (2.0 - 2.0 * np.cos(angle)) / h",
     "periodic eigenvalues scaled by 1/h"),
    ("nonstiff.py", "shift = eps**4", "shift = eps**2", "split-scalar shift eps^2"),
    ("nonstiff.py", "half_square = np.multiply(0.5, un,", "half_square = np.multiply(1.0, un,",
     "normal velocity flux u^2 instead of u^2/2"),
    ("nonstiff.py", "out_p -= np.multiply(un, w[P], out=neg_q)", "out_p += np.multiply(un, w[P], out=neg_q)",
     "pressure advected backwards"),
    ("nonstiff.py", "np.subtract(rho, scalars.rho_max, out=neg_q)", "np.subtract(scalars.rho_max, rho, out=neg_q)",
     "pressure-gradient coefficient of the normal velocity with its sign flipped"),
    ("nonstiff.py", "np.subtract(scalars.p_min, p, out=neg_g)", "np.subtract(p, scalars.p_min, out=neg_g)",
     "dilatation coefficient of the pressure with its sign flipped"),
    ("nonstiff.py", "rate += np.multiply(b[1:], psi[:, 1:]", "rate += np.multiply(a[1:], psi[:, 1:]",
     "right fluctuation weighted by the wrong speed"),
    ("nonstiff.py", "rate -= np.multiply(a[:-1], psi[:, :-1]", "rate -= np.multiply(b[:-1], psi[:, :-1]",
     "left fluctuation weighted by the wrong speed"),
    ("nonstiff.py", "flux *= b\n", "flux *= a\n", "central-upwind flux weights A by s+ instead of s-"),
    ("nonstiff.py", "B -= A", "B += A", "anti-diffusion's second jump (s+ - s-)(v+ - v-) + A"),
    ("reconstruction.py", "np.maximum(lo, 0.0, out=lo)", "np.minimum(lo, 0.0, out=lo)",
     "minmod clips its minimum from above instead of below"),
    ("nonstiff.py", "c *= 1.0 / eps", "c *= 1.0 / eps**2", "modified sound speed scaled by 1/eps^2"),
    ("nonstiff.py", "radicand *= gamma / scalars.rho_max", "radicand *= gamma * scalars.rho_max",
     "modified sound speed multiplied by rho_max instead of divided"),
    ("nonstiff.py", "psi = _bmat_apply(mid,", "psi = _bmat_apply(minus,",
     "fluctuation matrix at the left trace instead of the path midpoint"),
    ("integrator.py", "math.exp(1.0 - 1.0 / (1.0 - s))", "math.exp(0.9 - 0.9 / (1.0 - s))",
     "band exponent of the blend weight"),
    ("integrator.py", "grid.spacing(axis) / max(", "grid.spacing(1 - axis) / max(",
     "CFL step from the other axis's spacing"),
    ("integrator.py", "push = dt * (1.0 / eps2_rhomax)", "push = dt * (0.5 / eps2_rhomax)",
     "half the pressure push on the velocity"),
    ("integrator.py", "diff -= stiff_row(scalars_s, cfg, V_s, grid, row)",
     "diff += stiff_row(scalars_s, cfg, V_s, grid, row)",
     "corrector adds the predicted stiff operator instead of subtracting it"),
    ("integrator.py", "E *= 0.5", "E *= 1.0", "corrector without the trapezoidal half of E"),
    ("integrator.py", "cons_rate *= 0.5", "cons_rate *= 1.0",
     "corrector without the trapezoidal half of the conservative rate"),
    ("integrator.py", "V_raw.array *= s", "V_raw.array *= 1.0 - s",
     "in-place blend scales the primitive copy by the conservative weight"),
    ("integrator.py", "V_raw.array[c] = values", "V_raw.array[c] += values",
     "unit-Mach blend adds the transform to the primitive copy instead of overwriting it"),
    ("conservative.py", "np.multiply(p, 1.0 / cfg.epsilon**2, out=f_tangential)",
     "np.multiply(p, 1.0 / cfg.epsilon, out=f_tangential)",
     "momentum flux pressure scaled by 1/eps"),
    ("conservative.py", "np.add(energy, p, out=f_energy)", "np.add(energy, 0.0, out=f_energy)",
     "energy flux without the pressure work"),
    ("conservative.py",
     "minus, plus, sound_speed(minus[RHO], minus[P], cfg, o0), sound_speed(plus[RHO], plus[P], cfg, o1),",
     "minus, minus, sound_speed(minus[RHO], minus[P], cfg, o0), sound_speed(minus[RHO], minus[P], cfg, o1),",
     "conservative speeds from the left trace on both sides"),
    ("reconstruction.py", "minus = np.add(block[:, 1:-2], s[:, :-1],",
     "minus = np.subtract(block[:, 1:-2], s[:, :-1],",
     "left trace extrapolated the wrong way"),
    ("reconstruction.py", "one_sided *= theta", "one_sided *= 1.0", "limiter ignores theta"),
    ("grid.py", "b[..., -g:, :] = b[..., g:2 * g, :]", "b[..., -g:, :] = b[..., g + 1:2 * g + 1, :]",
     "periodic high ghosts shifted by one cell"),
    ("grid.py", "b[..., -g:, :] = b[..., -g - 1:-g, :]", "b[..., -g:, :] = b[..., -g - 2:-g - 1, :]",
     "outflow high ghosts copy the wrong cell"),
    ("grid.py", "y = self.y_lo + (np.arange(self.ny) + 0.5) * self.dy",
     "y = self.y_lo + (np.arange(self.ny) + 0.5) * self.dx", "cell centres spaced in y by dx"),
    ("benchmarks.py",
     "cfg = self.config(eps, **overrides)\n        grid = self.make_grid(nx, ny, eps)\n",
     "grid = self.make_grid(nx, ny, eps)\n        cfg = self.config(eps, **overrides)\n",
     "start builds the grid before the config checks eps"),
    ("benchmarks.py", "previous = row", "previous = None",
     "convergence rows never get a rate from the coarser row"),
    ("benchmarks.py", "rho = 1.0 - eps**2 / (16.0 * math.pi**2) * e_full",
     "rho = 1.0 - eps**2 / (8.0 * math.pi**2) * e_full",
     "vortex density dip doubled"),
    ("benchmarks.py", "w = grid.dx * grid.dy", "w = grid.dx * grid.dx",
     "L1 error weighted by dx^2 instead of dx*dy"),
    ("benchmarks.py", "        gamma=2.0,\n", "", "vortex at the default gamma instead of 2"),
    ("benchmarks.py", "        default_cfl=0.1,\n", "", "double shear at the default CFL number instead of 0.1"),
    ("benchmarks.py", "        bc=OUTFLOW,\n", "", "explosion with periodic instead of outflow boundaries"),
    ("benchmarks.py", "vanishing = 1e-6", "vanishing = 1.0",
     "AP probes take their vanishing-Mach reference at unit Mach"),
    ("benchmarks.py", "vanishing = 1e-6", "vanishing = 1e-2",
     "AP probes take their vanishing-Mach reference at eps 1e-2"),
    ("benchmarks.py", "for _ in range(20):", "for _ in range(2):",
     "divergence probe runs 2 steps instead of 20"),
    ("benchmarks.py", "t_final=0.2)", "t_final=0.02)",
     "pressure fluctuation probed at t = 0.02 instead of 0.2"),
    ("benchmarks.py", "for e in (eps, eps / 10.0):", "for e in (eps, eps / 5.0):",
     "pressure fluctuation compared with eps/5 instead of eps/10"),
    ("state.py", "operator.index(count) >= 0", "count >= 0",
     "dt_override accepts a fractional step count"),
    ("snapshots.py", "np.rint(e)", "np.floor(e + 0.5)", "writer rounds ties of the 17th digit up, not to even"),
    ("snapshots.py", "    ok &= (p - 1e16) + e >= 0\n", "",
     "writer trusts a log10 decade that is one too high"),
    ("snapshots.py", "bytes(range(1 + 4 * j, 5 + 4 * j))", "bytes(range(2 + 4 * j, 6 + 4 * j))",
     "writer's last non-zero digit one place late, so one trailing zero too few is dropped"),
]

EQUIVALENT = [
    ("conservative.py", "np.multiply(Us[U], Vs[V], out=f_tangential)",
     "np.multiply(Us[V], Vs[U], out=f_tangential)",
     "tangential momentum flux with its operands swapped: rho*u*v either way"),
]


def unmatched(root: Path = ROOT) -> list[str]:
    """Each mutant whose original string does not occur exactly once in its
    module under ``root``, with the number of times it does."""
    problems = []
    for module, original, _, what in MUTANTS + EQUIVALENT:
        count = (root / PACKAGE / module).read_text().count(original)
        if count != 1:
            problems.append(f"{module}: {what}: original found {count} times")
    return problems


def killing_test(stdout: str) -> str:
    """The test id on pytest's first ``FAILED`` or ``ERROR`` summary line, or
    "" when there is none."""
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return ""


def pytest_command(tests: Path) -> list[str]:
    # test_mutants.py is left out: on a mutated copy its match check fails
    files = sorted(tests.glob("test_*.py"), key=lambda p: (p.name == "test_acceptance.py", p.name))
    files = [p for p in files if p.name != "test_mutants.py"]
    return [sys.executable, "-m", "pytest", "-q", "-x", "-m", "not golden", "-p", "no:cacheprovider",
            *(str(p.relative_to(tests.parent)) for p in files)]


def main() -> int:
    problems = unmatched()
    for problem in problems:
        print(problem)
    if problems:
        return 2
    for module, _, _, what in EQUIVALENT:
        print(f"{'equivalent':10s} {module}: {what}")
    survived = errors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # test_cli reads the README
            shutil.copy(ROOT / name, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = pytest_command(copy / "tests")
        clean = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
        if clean.returncode != 0:
            print(clean.stdout[-2000:])
            print(f"the unmutated copy fails (exit {clean.returncode}): no mutant can be judged")
            return 2
        for module, original, mutant, what in MUTANTS:
            path = copy / PACKAGE / module
            source = path.read_text()
            path.write_text(source.replace(original, mutant))
            start = time.perf_counter()
            try:
                done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
            finally:
                path.write_text(source)
            verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"error {done.returncode}")
            survived += done.returncode == 0
            errors += done.returncode not in (0, 1)
            killer = killing_test(done.stdout)
            by = f" by {killer}" if killer else ""
            print(f"{verdict:10s} {module}: {what} ({time.perf_counter() - start:.0f} s){by}", flush=True)
    print(f"{len(MUTANTS)} mutants: {survived} survived, {errors} errors, "
          f"{len(EQUIVALENT)} equivalent not counted")
    return 1 if survived else 2 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
