"""Summarize the untraced results in .bench_out/results.jsonl.

    python3 bench/summarize.py [--last N] [--write-baseline]

For every workload and end-to-end metric of BENCHMARK.json it prints the
median, the quartiles and the spread (quartile distance over median) of the
last N runs, next to a third of the metric's bound, which the spread should
stay under.  ``--write-baseline`` stores the medians, the spreads and the
environment of those runs, with the per-layer metrics of the last traced run,
in bench/BASELINE.json.
"""

import argparse
import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--last", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, traced = {}, {}
    with open(ROOT / ".bench_out" / "results.jsonl") as f:
        for line in f:
            record = json.loads(line)
            (traced if record["trace"] else runs).setdefault(record["workload"], []).append(record)

    baseline = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        records = runs.get(name, [])[-args.last:]
        if not records:
            print(f"{name}: no runs")
            continue
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{name}: {len(records)} runs, seeds {[r['seed'] for r in records]}, "
              f"failed_frac {failed / attempted:g} ({failed} of {attempted})")
        entry = {"runs": len(records), "failed_frac": failed / attempted, "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            flag = "" if spread <= metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {metric['name']:<12} median {median:10.5g} {metric['unit']:<3} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){flag}")
            entry["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "unit": metric["unit"],
            }
        if name in traced:
            entry["per_layer_last_traced_run"] = {
                key: metric["value"] for key, metric in traced[name][-1]["metrics"].items()
            }
        entry["env"] = records[-1]["env"]
        baseline[name] = entry

    if args.write_baseline:
        (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {BENCH / 'BASELINE.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
