"""Steadiness report: run each workload N times and show how each
end-to-end metric spreads against its bound in ``BENCHMARK.json``.

Usage (from the checkout root)::

    python3 perfbench/steady.py --runs 10 --first-seed 1 \\
        [--fixed-seed 2012] [--workload serve_hot_tenant ...] \\
        [--out spreads.json] [--compare earlier.json]

Run ``i`` uses seed ``first-seed + i``, as a regression check does; with
``--fixed-seed`` every run uses that one seed, which shows run-to-run
noise alone. For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``), the inter-quartile spread as a
share of the median, the max/min spread, and the bound. A spread above a
third of its bound is flagged ``WIDE``; above the bound, ``OVER``.
``--compare`` reads an earlier ``--out`` file and prints, per metric, how
far the median moved in the metric's worse direction, flagged ``OVER``
past the bound. ``--out`` writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if completed.returncode != 0 or not result.get("correct"):
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {completed.returncode})")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread_table(values_by_metric, bounds):
    rows = {}
    for name, values in values_by_metric.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"),
            "range_share": (max(values) - min(values)) / median if median else float("inf"),
            "bound": bounds[name],
        }
    return rows


def _flag(share, bound):
    if share > bound:
        return "OVER"
    if share > bound / 3:
        return "WIDE"
    return ""


def _worse_shift(old, new, better):
    """How far ``new`` is worse than ``old``, as a share of ``old``."""
    shift = (new - old) / old
    return shift if better == "lower" else -shift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", type=int)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    if args.fixed_seed is not None:
        seeds = [args.fixed_seed] * args.runs
    else:
        seeds = [args.first_seed + run for run in range(args.runs)]
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            metrics = _run(workload, seed, spec["run_seconds"])
            for name in bounds:
                values[name].append(metrics[name])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metrics[name]:.6g}" for name in bounds), flush=True)
        report["workloads"][workload] = spread_table(values, bounds)
    print(f"\n{'workload':18s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'max-min':>8s} {'bound':>6s}")
    for workload, rows in report["workloads"].items():
        for name, row in rows.items():
            print(f"{workload:18s} {name:16s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['iqr_share']:8.4f} {row['range_share']:8.4f} "
                  f"{row['bound']:6.2f} {_flag(row['iqr_share'], row['bound'])}")
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())["workloads"]
        print(f"\n{'workload':18s} {'metric':16s} {'earlier':>12s} {'now':>12s} "
              f"{'worse by':>9s} {'bound':>6s}")
        for workload, rows in report["workloads"].items():
            for name, row in rows.items():
                if name not in earlier.get(workload, {}):
                    continue
                old = earlier[workload][name]["median"]
                shift = _worse_shift(old, row["median"], better[name]) if old else 0.0
                print(f"{workload:18s} {name:16s} {old:12.6g} {row['median']:12.6g} "
                      f"{shift:9.4f} {row['bound']:6.2f} "
                      f"{'OVER' if shift > row['bound'] else ''}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
