"""Command-line interface: regenerate any paper figure or table, decompose
a workload, or build and explain an execution plan.

Examples::

    python -m repro.cli table1
    python -m repro.cli figure4
    python -m repro.cli figure6 --scale full --json out.json
    python -m repro.cli all
    python -m repro.cli plan --workload W.npy --epsilon 0.2 --out W.plan.npz
    python -m repro.cli ledger inspect --ledger budget.journal
    python -m repro.cli ledger recover --ledger budget.db
    python -m repro.cli serve --plans plans/ --workers 4 \\
        --ledger-root ledgers/ --data counts.npy --budget 2.0
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import PARAMETER_GRID, resolve_scale
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.reporting import ascii_chart, format_table, summarize_result

__all__ = ["main", "build_parser"]

_GROUP_KEYS = {
    "figure2": ("workload", "epsilon"),
    "figure3": ("workload", "epsilon"),
    "figure4": ("dataset",),
    "figure5": ("dataset",),
    "figure6": ("dataset",),
    "figure7": ("dataset",),
    "figure8": ("dataset",),
    "figure9": ("dataset",),
}


def build_parser():
    """Build the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lrm",
        description="Reproduce tables/figures of the Low-Rank Mechanism paper (VLDB 2012).",
    )
    targets = ["table1", "all", "decompose", "plan", "ledger", "serve"] + sorted(ALL_FIGURES)
    parser.add_argument("target", choices=targets, help="what to regenerate")
    parser.add_argument(
        "action", nargs="?", choices=["inspect", "recover"], default=None,
        help="ledger: 'inspect' (read-only audit summary) or 'recover' "
        "(repair torn tail, reconcile keyed orphans, drop dangling "
        "intents, compact)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="ledger: path to the durable budget ledger "
        "(.db/.sqlite selects the SQLite backend, else the JSONL journal)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="ledger recover: report the torn tail, dangling intents and "
        "reconcilable keyed orphans WITHOUT mutating the journal",
    )
    parser.add_argument(
        "--workload", metavar="NPY", default=None,
        help="decompose/plan: .npy file holding the workload matrix W",
    )
    parser.add_argument(
        "--out", metavar="NPZ", default=None,
        help="decompose/plan: where to save the decomposition or plan archive",
    )
    parser.add_argument("--rank", type=int, default=None, help="decompose: decomposition rank")
    parser.add_argument(
        "--epsilon", type=float, default=0.1,
        help="plan: probe epsilon for ranking candidates (default 0.1)",
    )
    parser.add_argument(
        "--mechanism", default="auto",
        help="plan: 'auto' or a registry label (LM, WM, HM, SVDM, LRM, ...)",
    )
    parser.add_argument(
        "--candidates", default=None,
        help="plan: comma-separated candidate labels for mechanism=auto",
    )
    parser.add_argument(
        "--delta", type=float, default=None,
        help="plan: failure probability for Gaussian ((eps, delta)-DP) candidates",
    )
    parser.add_argument(
        "--budget-epsilon", type=float, default=None,
        help="plan: total epsilon budget — adds a releases-per-budget line "
        "to the explain report (basic vs Rényi/zCDP accounting)",
    )
    parser.add_argument(
        "--budget-delta", type=float, default=0.0,
        help="plan: total delta budget paired with --budget-epsilon "
        "(required > 0 for the RDP accounting column)",
    )
    parser.add_argument(
        "--gamma", type=float, default=1e-2,
        help="decompose: relative relaxation tolerance (default 1e-2)",
    )
    parser.add_argument(
        "--plans", metavar="DIR", default=None,
        help="serve: directory of *.plan.npz archives to share with workers",
    )
    parser.add_argument(
        "--ledger-root", metavar="DIR", default=None,
        help="serve: directory for the per-tenant durable budget ledgers",
    )
    parser.add_argument(
        "--data", metavar="PATH", default=None,
        help="serve: private data vector (.npy, or a text/CSV file)",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="serve: total per-tenant epsilon budget",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="serve: worker process count (default 2)",
    )
    parser.add_argument(
        "--accountant", default=None,
        help="serve: budget accounting model (pure/basic/rdp; default auto)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="serve: bind address")
    parser.add_argument(
        "--port", type=int, default=8777,
        help="serve: TCP port (default 8777; 0 picks a free port)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="serve: most requests per worker batch; requests queued "
        "behind busy workers share one (default 32)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=1024,
        help="serve: in-flight execute cap; past it requests are shed "
        "as 'overloaded' with a retry_after hint (default 1024)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="serve: per-request worker deadline in seconds; a worker "
        "past it is presumed hung, killed and respawned (default 30)",
    )
    parser.add_argument(
        "--watch-plans", action="store_true",
        help="serve: poll --plans for changes and hot-reload the shared "
        "plan segment without dropping in-flight requests",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=2.0,
        help="serve: --watch-plans poll interval in seconds (default 2)",
    )
    parser.add_argument(
        "--scale",
        choices=["reduced", "full"],
        default=None,
        help="sweep grid size (default: reduced, or REPRO_FULL_SCALE=1)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="experiment seed (default 2012; serve: fresh entropy unless set)",
    )
    parser.add_argument("--json", metavar="PATH", default=None, help="also write results as JSON")
    parser.add_argument("--csv", metavar="PATH", default=None, help="also write results as CSV")
    parser.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart of the series"
    )
    return parser


def _print_table1(out):
    out.write("Table 1: parameters used in the experiments\n")
    for key, values in PARAMETER_GRID.items():
        out.write(f"  {key:>12}: {', '.join(str(v) for v in values)}\n")


def _run_figure(name, scale, seed, out, json_path=None, csv_path=None, chart=False):
    out.write(f"Running {name} (scale={resolve_scale(scale)}) ...\n")
    result = ALL_FIGURES[name](scale=scale, seed=seed)
    out.write(format_table(result, group_keys=_GROUP_KEYS.get(name, ())))
    if chart:
        out.write(ascii_chart(result))
    out.write("geometric-mean error per mechanism: ")
    summary = summarize_result(result)
    out.write(
        ", ".join(f"{k}={v:.4g}" if v is not None else f"{k}=-" for k, v in summary.items())
    )
    out.write("\n")
    if json_path:
        result.to_json(json_path)
        out.write(f"wrote {json_path}\n")
    if csv_path:
        result.to_csv(csv_path)
        out.write(f"wrote {csv_path}\n")
    return result


def _run_decompose(args, out):
    import numpy as np

    from repro.analysis.diagnostics import format_decomposition_report
    from repro.core.alm import decompose_workload
    from repro.io.serialization import save_decomposition

    if not args.workload:
        out.write("decompose requires --workload pointing at a .npy matrix\n")
        return 2
    matrix = np.load(args.workload)
    out.write(f"decomposing workload {matrix.shape} from {args.workload} ...\n")
    decomposition = decompose_workload(
        matrix, rank=args.rank, gamma=args.gamma, seed=args.seed
    )
    out.write(format_decomposition_report(decomposition, workload=matrix))
    if args.out:
        save_decomposition(decomposition, args.out)
        out.write(f"wrote {args.out}\n")
    return 0


def _run_plan(args, out):
    import numpy as np

    from repro.engine.plan import build_plan
    from repro.engine.selection import APPROX_DP_CANDIDATES, DEFAULT_CANDIDATES
    from repro.io.serialization import save_plan

    if not args.workload:
        out.write("plan requires --workload pointing at a .npy matrix\n")
        return 2
    # Flag pairing is knowable before any (expensive) candidate fitting.
    if args.budget_delta and args.budget_epsilon is None:
        out.write("--budget-delta requires --budget-epsilon (the total epsilon)\n")
        return 2
    matrix = np.load(args.workload)
    # `is not None`, not truthiness: an explicit `--delta 0.0` must reach
    # the Gaussian candidates (whose constructors reject it with a clear
    # error) rather than being silently treated as unset — the latter left
    # them at their default delta, releasing at a failure probability the
    # caller never chose.
    if args.candidates:
        candidates = tuple(label.strip().upper() for label in args.candidates.split(","))
    elif args.delta is not None:
        candidates = DEFAULT_CANDIDATES + APPROX_DP_CANDIDATES
    else:
        candidates = DEFAULT_CANDIDATES
    mechanism_kwargs = {}
    if args.delta is not None:
        for label in APPROX_DP_CANDIDATES:
            mechanism_kwargs[label] = {"delta": args.delta}
    out.write(f"planning workload {matrix.shape} from {args.workload} ...\n")
    plan = build_plan(
        matrix,
        epsilon_hint=args.epsilon,
        mechanism=args.mechanism,
        candidates=candidates,
        mechanism_kwargs=mechanism_kwargs,
    )
    out.write(
        plan.explain(
            epsilon=args.epsilon,
            budget=args.budget_epsilon,
            budget_delta=args.budget_delta,
        )
        + "\n"
    )
    if args.out:
        # np.savez appends ".npz" to extension-less paths; normalize so the
        # reported filename is the one actually written.
        path = args.out if args.out.endswith(".npz") else args.out + ".npz"
        save_plan(plan, path)
        out.write(f"wrote {path}\n")
    return 0


def _run_ledger(args, out):
    from repro.privacy.ledger import inspect_ledger, recover_ledger

    if not args.action:
        out.write("ledger requires an action: 'inspect' or 'recover'\n")
        return 2
    if not args.ledger:
        out.write("ledger requires --ledger pointing at the ledger file\n")
        return 2
    if args.action == "recover":
        summary = recover_ledger(args.ledger, dry_run=args.dry_run)
        if args.dry_run:
            out.write(f"dry run: {summary['path']} left untouched\n")
        else:
            out.write(f"recovered {summary['path']}\n")
    else:
        summary = inspect_ledger(args.ledger)
    out.write(f"ledger {summary['path']} ({summary['backend']} backend)\n")
    out.write(
        f"  model={summary['model']} total_epsilon={summary['total_epsilon']!r} "
        f"total_delta={summary['total_delta']!r}\n"
    )
    out.write(
        f"  records={summary['records']} committed_txns={summary['committed']} "
        f"costs={summary['costs']} keyed_results={summary['keyed_results']}\n"
    )
    # Per-noise-family breakdown of the committed costs: count plus the
    # total charged (epsilon, delta) each family contributed. Pre-typed
    # (format 1) journal entries report as "untyped".
    for family in sorted(summary.get("families") or {}):
        stats = summary["families"][family]
        out.write(
            f"  cost[{family}]: count={stats['count']} "
            f"epsilon={stats['epsilon']!r} delta={stats['delta']!r}\n"
        )
    out.write(
        f"  dangling_intents={len(summary['dangling_intents'])} "
        f"rolled_back={summary['rolled_back']} resets={summary['resets']} "
        f"torn_tail_bytes={summary['torn_tail_bytes']}\n"
    )
    out.write(
        f"  spent_epsilon={summary['spent_epsilon']!r} "
        f"spent_delta={summary['spent_delta']!r} "
        f"remaining_epsilon={summary['remaining_epsilon']!r}\n"
    )
    if args.action == "recover":
        verb = "would reconcile" if args.dry_run else "reconciled"
        out.write(
            f"  {verb} {summary['reconciled_orphans']} orphaned intent(s); "
            f"freed keys: {summary['freed_keys'] or '[]'}\n"
        )
        if args.dry_run and (
            summary["reconciled_orphans"] or summary["torn_tail_bytes"]
        ):
            out.write("  (re-run without --dry-run to repair and compact)\n")
    elif summary["dangling_intents"] or summary["torn_tail_bytes"]:
        out.write("  (run 'ledger recover' to repair and compact)\n")
    return 0


def _run_serve(args, out):
    from repro.serving.server import ServiceConfig, load_data_vector, serve

    missing = [
        flag
        for flag, value in (
            ("--plans", args.plans),
            ("--ledger-root", args.ledger_root),
            ("--data", args.data),
            ("--budget", args.budget),
        )
        if value is None
    ]
    if missing:
        out.write(f"serve requires {', '.join(missing)}\n")
        return 2
    config = ServiceConfig(
        plans_dir=args.plans,
        ledger_root=args.ledger_root,
        data=load_data_vector(args.data),
        total_epsilon=args.budget,
        total_delta=args.delta if args.delta is not None else 0.0,
        workers=args.workers,
        accountant=args.accountant,
        seed=args.seed,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        watch_plans=args.watch_plans,
        watch_interval=args.watch_interval,
    )

    def ready(service, host, port):
        out.write(
            f"serving {len(service.plan_names())} plans on {host}:{port} "
            f"with {config.workers} workers (Ctrl-C drains and stops)\n"
        )
        if hasattr(out, "flush"):
            out.flush()

    serve(config, ready=ready)
    out.write("service stopped\n")
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.seed is None and args.target != "serve":
        # Experiments stay reproducible by default; a *service* must not
        # release with a deterministic noise stream unless explicitly asked.
        args.seed = 2012
    if args.target == "serve":
        return _run_serve(args, out)
    if args.target == "table1":
        _print_table1(out)
        return 0
    if args.target == "decompose":
        return _run_decompose(args, out)
    if args.target == "plan":
        return _run_plan(args, out)
    if args.target == "ledger":
        return _run_ledger(args, out)
    if args.target == "all":
        for name in sorted(ALL_FIGURES):
            _run_figure(name, args.scale, args.seed, out, chart=args.chart)
        return 0
    _run_figure(args.target, args.scale, args.seed, out, args.json, args.csv, chart=args.chart)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
