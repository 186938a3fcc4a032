"""Twenty-step digests of the semi-implicit step on a fixed set of runs.

Each run steps one benchmark case 20 times at its CFL step and prints one
sha256 over the final V, U and t and every StepReport.  A refactor that
keeps the arithmetic keeps every digest.  Next to the digest it prints the
tracemalloc peak of the run's second step (the first one after a warm-up)
in state arrays, a state array being the bytes of one ghost-padded
four-component field.

    PYTHONPATH=src python tools/step_digest.py
    PYTHONPATH=src python tools/step_digest.py --save before.npz
    PYTHONPATH=src python tools/step_digest.py --compare before.npz

``--save`` stores each run's final state, step reports, digest and step
peak, and the final primitive state of the same run started from every
initial value raised by one ulp (``np.nextafter``).  ``--compare`` says
whether the final state and the reports are bit-identical to the saved ones,
and prints, per component of V, the max |delta| between this tree's final
state and the saved one next to the saved run's own 1-ulp sensitivity, the
largest ratio of the two, and the saved step peak next to this tree's.  A
digest can differ while the state is identical: the solve residuals are
round-off that does not feed back into the state.  It ends with
``bit-identical: k of m runs`` and exits 1 unless every run has a saved
counterpart, does not fail, and has its final state and reports
bit-identical to it, or when any run's step peak exceeds its saved one by
more than PEAK_SLACK state arrays; each such run is named.
"""

from __future__ import annotations

import argparse
import hashlib
import tracemalloc

import numpy as np

from allmach.benchmarks import CASES
from allmach.errors import NoConvergence, NonPhysicalState
from allmach.integrator import DualState, si_dec_step
from allmach.state import PrimitiveField

STEPS = 20
RUNS = [  # (case, eps, n)
    ("explosion", 0.9, 200),
    ("explosion", 1.0, 64),
    ("double_shear", 0.3, 128),
    ("vortex", 1.0, 64),
    ("vortex", 0.1, 64),
    ("gresho", 1e-3, 128),
    ("gresho", 1e-6, 32),
]
PEAK_SLACK = 0.05  # state arrays a step peak may rise above its saved value


def run(name: str, eps: float, n: int, ulp: bool = False) -> dict:
    """Final V, U and t, the step reports as rows (dt, residuals..., max|div
    u|, p fluctuation), their digest and the second step's memory peak in
    state arrays; the initial values are raised by one ulp when ``ulp``."""
    grid, cfg, state = CASES[name].start(eps, n, n)
    if ulp:
        state.V.array[:] = np.nextafter(state.V.array, np.inf)
        state = DualState.from_primitive(state.V, grid, cfg)
    rows = []
    for i in range(STEPS):
        if i == 1:
            tracemalloc.start()
            try:
                state, rep = si_dec_step(state, grid, cfg)
                peak = tracemalloc.get_traced_memory()[1] / state.V.array.nbytes
            finally:
                tracemalloc.stop()
        else:
            state, rep = si_dec_step(state, grid, cfg)
        rows.append((rep.dt, *rep.solve_residuals, rep.max_divergence, rep.pressure_fluctuation))
    out = {"V": state.V.array[grid.interior], "U": state.U.array, "t": np.array(state.t),
           "reports": np.array(rows)}
    h = hashlib.sha256()
    for key in ("reports", "V", "U", "t"):
        h.update(out[key].tobytes())
    out["digest"] = np.array(h.hexdigest())
    out["step_peak"] = peak
    return out


def compare(new: dict, saved, label: str) -> tuple[float, bool, bool]:
    """Print how the run differs from the saved one; return the largest
    ratio of max|delta V| to the saved 1-ulp sensitivity, whether the final
    state and the reports are bit-identical, and whether the step peak rose
    by more than PEAK_SLACK."""
    old = {key: saved[f"{label}.{key}"] for key in ("V", "U", "t", "reports", "V_ulp")}
    state_same = all(new[k].tobytes() == old[k].tobytes() for k in ("V", "U", "t"))
    layout_same = new["reports"].shape == old["reports"].shape
    reports_same = layout_same and new["reports"].tobytes() == old["reports"].tobytes()
    if not layout_same:
        reports = "report layout differs"
    elif reports_same:
        reports = "reports bit-identical"
    else:
        rel = np.abs(new["reports"] - old["reports"]).max(axis=0) / np.abs(old["reports"]).max(axis=0)
        reports = "reports differ, max rel. change per column " + " ".join(f"{r:.1e}" for r in rel)
    delta = np.abs(new["V"] - old["V"]).max(axis=(1, 2))
    sens = np.abs(old["V_ulp"] - old["V"]).max(axis=(1, 2))
    ratio = max(d / s if s > 0.0 else (np.inf if d > 0.0 else 0.0) for d, s in zip(delta, sens))
    print(f"    state {'bit-identical' if state_same else 'differs'}; {reports}")
    old_peak = float(saved[f"{label}.step_peak"])
    risen = new["step_peak"] > old_peak + PEAK_SLACK
    print(f"    step peak {old_peak:5.2f} saved, {new['step_peak']:5.2f} now (state arrays)"
          + (", risen" if risen else ""))
    print(f"    max|delta| vs 1-ulp sensitivity, ratio {ratio:.3g}")
    for c, d, s in zip(PrimitiveField.names, delta, sens):
        print(f"    {c:4s} {d:9.2e} {s:9.2e}")
    return ratio, state_same and reports_same, risen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE.npz", help="store the final states")
    parser.add_argument("--compare", metavar="FILE.npz", help="compare against stored states")
    ns = parser.parse_args(argv)
    saved = np.load(ns.compare) if ns.compare else None
    store = {}
    worst, identical, risen = 0.0, 0, []
    for name, eps, n in RUNS:
        label = f"{name}_{eps:g}_{n}"
        try:
            out = run(name, eps, n)
        except (NonPhysicalState, NoConvergence) as exc:
            print(f"{label:28s} FAILED: {exc}")
            continue
        print(f"{label:28s} {out['digest']}  step peak {out['step_peak']:5.2f} state arrays",
              flush=True)
        if ns.save:
            keys = ("V", "U", "t", "reports", "digest", "step_peak")
            store.update({f"{label}.{k}": out[k] for k in keys})
            store[f"{label}.V_ulp"] = run(name, eps, n, ulp=True)["V"]
        if saved is None:
            continue
        if f"{label}.V" not in saved:
            print("    no saved run")
            continue
        ratio, same, rose = compare(out, saved, label)
        worst, identical = max(worst, ratio), identical + same
        risen += [label] * rose
    if ns.save:
        np.savez(ns.save, **store)
    if saved is None:
        return 0
    print(f"largest ratio of max|delta| to the 1-ulp sensitivity: {worst:.3g}")
    if risen:
        print(f"step peak risen by more than {PEAK_SLACK} state arrays: {' '.join(risen)}")
    print(f"bit-identical: {identical} of {len(RUNS)} runs")
    return 0 if identical == len(RUNS) and not risen else 1


if __name__ == "__main__":
    raise SystemExit(main())
