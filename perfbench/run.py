"""Run one benchmark workload on the source tree of this checkout.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload library_session --seed 2012 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
timed phase with every layer wrapped in spans and reports the per-layer
metrics instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report (environment record, samples,
correctness notes, every metric with its unit).

Everything is generated from ``--seed``. Scratch files (plans, ledgers)
live under ``.perfbench/`` in the checkout and are removed at exit; the
traced run leaves its spans there as ``spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("library_session", "serve_hot_tenant", "serve_tenant_mix")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _contract(metrics, layers, trace):
    """The metrics ``BENCHMARK.json`` lists for this kind of run, with
    their declared units. A per-layer metric whose layer does not run on
    this workload reads 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = layers if trace else metrics
    reported = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        reported[entry["name"]] = (value, unit)
    return reported


def _stop_children():
    """End and reap every process the run started. The service's workers
    are joined by its own shutdown; this catches any a failed run left,
    and the multiprocessing resource tracker, which otherwise exits only
    after the benchmark and is left unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    from perfbench import envinfo

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = []
    try:
        if args.workload == "library_session":
            from perfbench import library

            suffix = None
            gate, attempted, failed, metrics, layers = library.run(
                args.seed, args.seconds, workdir, args.trace, out)
        else:
            from perfbench import serve

            suffix = serve.SUFFIX[args.workload]
            gate, attempted, failed, metrics, layers = serve.run(
                args.workload, args.seed, args.seconds, workdir, args.trace, out)
        env = envinfo.collect(ROOT, workdir, args.seed, suffix)
    finally:
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in out:
        print(line)
    for note in gate.notes:
        print("gate: " + note)
    reported = _contract(metrics, layers, args.trace)
    if gate.passed:
        print(f"failed_share = {failed / attempted!r} ratio ({failed} of {attempted})")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value!r} {unit}")
        for name, (value, unit) in (layers or {}).items():
            note = "" if name in reported else "  (not in BENCHMARK.json)"
            print(f"[layer] {name} = {value!r} {unit}{note}")
    else:
        for failure in gate.failures:
            print("CORRECTNESS FAILURE: " + failure)
        reported = {}
    print(json.dumps({
        "correct": gate.passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0 if gate.passed else 1


if __name__ == "__main__":
    sys.exit(main())
