"""Benchmark of the allmach solver: run one workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: gresho-lowmach, explosion-shock, double_shear-frames (see
README.md).  Run from the root of a source tree; the solver is imported from
``src/``.  The command first times the set-up in fresh processes, then repeats
the workload until ``--seconds`` have passed, checking every repetition.

With ``--trace 0`` it reports the end-to-end metrics: setup_s, step_ms,
step_ms_p90, run_s, peak_rss_mb, and failed_frac as ``failed``/``attempted``.
With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics.  The last line of standard output is one JSON object;
results and spans are also written under ``.bench_out/``.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# One process, one thread: pin the BLAS pools before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7  # at least this many


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are deterministic")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """Commit of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(np):
    digest = hashlib.sha256()
    for path in sorted((SRC / "allmach").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed_effect": "none: the workloads are deterministic",
    }


def time_setup(w) -> float:
    """Set-up seconds of one fresh process, as the probe measures them."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), w.case, repr(w.eps), str(w.n)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip())


def steady_steps(reps):
    """Per-step times of all repetitions without each one's first step."""
    return [ms for rep in reps for ms in rep.step_ms[1:]]


def describe(rep, index, traced):
    status = "ok" if not rep.failures else "FAILED: " + "; ".join(rep.failures)
    kind = "traced" if traced else "plain"
    return (f"rep {index} ({kind}): {len(rep.step_ms)} steps, "
            f"run {rep.run_s:.3f} s, peak RSS {rep.rss_mb:.1f} MB, {status}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "allmach" / "__init__.py").is_file():
        print(f"error: no allmach sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import allmach

    if Path(allmach.__file__).resolve().parent != SRC / "allmach":
        print(f"error: allmach imported from {allmach.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(np)
    print(f"allmach benchmark: workload {w.name} (seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace})")
    print("environment " + json.dumps(env))

    # One set-up probe before each repetition, so that the probes sample the
    # machine over the whole run rather than over its first seconds.
    setup = []
    tracer = tracing.Tracer()
    plain, traced = [], []
    out_dir = OUT / f"snapshots-{w.name}"
    deadline = time.perf_counter() + args.seconds
    while True:
        setup.append(time_setup(w))
        if args.trace and len(traced) < len(plain):
            tracer.rep = len(traced)
            traced.append(workloads.run_repetition(w, out_dir, tracer))
            print(describe(traced[-1], len(traced) - 1, True))
        else:
            plain.append(workloads.run_repetition(w, out_dir))
            print(describe(plain[-1], len(plain) - 1, False))
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(time_setup(w))

    reps = plain + traced
    attempted = len(reps)
    failed = sum(1 for rep in reps if rep.failures)
    steps = steady_steps(plain)
    step_ms = statistics.median(steps) if steps else 0.0
    p90 = statistics.quantiles(steps, n=10)[-1] if len(steps) > 1 else step_ms
    end_to_end = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "step_ms": (step_ms, "ms", f"median of {len(steps)} steps"),
        "step_ms_p90": (p90, "ms", f"{sum(s > p90 for s in steps)} steps above it"),
        "run_s": (statistics.median(rep.run_s for rep in plain), "s",
                  f"median of {len(plain)} runs"),
        "peak_rss_mb": (plain[0].rss_mb, "MB", "after the first run, before its checks"),
        "failed_frac": (failed / attempted, "1", f"{failed} of {attempted} runs failed"),
    }
    for name, (value, unit, note) in end_to_end.items():
        print(f"{name:<14} {value:12.6g} {unit:<3} ({note})")

    if args.trace:
        profile = tracing.Profile(tracer.spans)
        traced_steps = steady_steps(traced)
        overhead = (
            100.0 * (statistics.median(traced_steps) / step_ms - 1.0) if traced_steps else 0.0
        )
        per_layer = tracing.per_layer_metrics(
            profile, tracer.solves, [b for rep in traced for b in rep.file_bytes],
            sum(rep.run_s for rep in traced), overhead,
        )
        n_steps = profile.calls[tracing.STEP] or 1
        print("self time per step, by layer:")
        for layer in tracing.LAYERS:
            print(f"  {layer:<15} {1e3 * profile.layer_self(layer) / n_steps:10.3f} ms")
        for name, (value, unit) in per_layer.items():
            print(f"{name:<30} {value:12.6g} {unit}")
        name, least = w.loads
        share = per_layer[name][0]
        print(f"{'PASS' if share >= least else 'FAIL'} load: {name} = {share:.1f} % "
              f"(chosen layer needs >= {least:g} %)")
        tracer.write(OUT / f"spans-{w.name}.jsonl")
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in end_to_end.items()
            if name != "failed_frac"
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "failed_frac": failed / attempted,
              "failures": [f for rep in reps for f in rep.failures], **result}
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
