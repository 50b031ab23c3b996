"""Opt-in serving-tier load benchmark: the TCP service under concurrency.

A load generator (one :class:`~repro.serving.client.AsyncServiceClient`
connection, ``CONCURRENCY`` requests in flight) drives a live
:class:`~repro.serving.server.PlanService` through its real TCP front-end
for every ``workers x mode`` combination in :data:`GRID_AXES` —
``unbatched`` forces ``max_batch=1`` (every request is its own worker
round-trip and ledger transaction), ``coalesced`` lets the micro-batching
coalescer form ``execute_many`` batches. Per cell it records client-side
p50/p99 request latency and wall-clock releases/sec, emits
``benchmarks/BENCH_service.json`` (regressable via
``benchmarks/check_regression.py --time-field p99_latency_seconds``), and
asserts the acceptance criterion:

* **throughput** — 4-worker coalesced serving sustains >=
  :data:`TARGET_COALESCED_SPEEDUP` x the releases/sec of the 1-worker
  unbatched control.
* **availability under faults** — an extra ``faults`` cell re-runs the
  4-worker coalesced shape while a chaos task SIGKILLs a random worker
  every :data:`KILL_INTERVAL` seconds; the supervised pool must keep
  logical availability (success after bounded retries, deliberately shed
  requests excluded) at or above :data:`TARGET_AVAILABILITY`.

Every cell records ``availability`` and ``shed_rate`` so
``check_regression.py --availability-field availability`` can hold an
absolute floor across reports.

All requests are one tenant on one plan — the worst case for the durable
ledger (every spend contends on one flock-serialized file) and therefore
the case micro-batching is for: the coalesced path pays one ledger
transaction, one noise draw and one pipe round-trip per *batch*. On a
single-CPU host the speedup is pure batching; on multi-core hosts worker
parallelism adds on top.

Latencies are pooled across ``REPRO_BENCH_REPS`` (default 3) runs after
one untimed warm-up per service; releases/sec reports the best rep. The
committed seed baseline (``benchmarks/baselines/BENCH_service_seed.json``)
snapshots this file's first run; baselines are machine-specific —
regenerate on new hardware per the file's embedded description.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_service_perf.py -m perf -s
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine.plan import build_plan
from repro.io.serialization import save_plan
from repro.serving import AsyncServiceClient, PlanService, ServiceConfig
from repro.workloads import wrelated

pytestmark = pytest.mark.perf

_HERE = Path(__file__).resolve().parent
SEED_BASELINE_PATH = _HERE / "baselines" / "BENCH_service_seed.json"
OUTPUT_PATH = _HERE / "BENCH_service.json"

#: Acceptance floor: 4-worker coalesced vs 1-worker unbatched releases/sec.
TARGET_COALESCED_SPEEDUP = 3.0

#: The served plan (one cell shape; the grid varies the service, not the
#: workload): WRelated 32x256, rank 4, answered by the Laplace mechanism so
#: per-release worker compute is small and the serving overheads dominate —
#: the regime the tier exists to optimize.
WORKLOAD = {"workload": "wrelated", "m": 32, "n": 256, "s": 4, "mechanism": "LM",
            "epsilon": 0.05}

#: Service shapes: every worker count is measured unbatched and coalesced.
WORKER_COUNTS = (1, 4, 16)
MODES = ("unbatched", "coalesced")

#: Requests per timed rep and client-side in-flight cap.
REQUESTS = 192
CONCURRENCY = 64

#: Coalescer shape for the ``coalesced`` cells.
MAX_BATCH = 32

#: Budget large enough that no cell exhausts it.
TOTAL_BUDGET = 1e9

#: Chaos shape for the ``faults`` cell: one random worker SIGKILLed every
#: KILL_INTERVAL seconds while the load generator runs; the cell must keep
#: logical availability at or above TARGET_AVAILABILITY.
KILL_INTERVAL = 0.4
TARGET_AVAILABILITY = 0.99

#: Structured refusals that never charge the ledger: retried freely and
#: excluded from the availability denominator (deliberate load shedding).
_SHED_KINDS = frozenset({"LedgerBusyError", "overloaded", "deadline_exceeded"})
#: Failures a resilient client retries in the faults cell: the worker died
#: or hung under it (the supervisor respawns; the retry lands elsewhere).
_FAULT_KINDS = frozenset(
    {"WorkerCrashError", "WorkerTimeoutError", "InternalError"}
)


def _stage(tmp_dir):
    plans = Path(tmp_dir) / "plans"
    plans.mkdir()
    workload = wrelated(
        WORKLOAD["m"], WORKLOAD["n"], s=WORKLOAD["s"], seed=2012
    )
    plan = build_plan(
        workload, epsilon_hint=WORKLOAD["epsilon"], mechanism=WORKLOAD["mechanism"]
    )
    save_plan(plan, plans / "bench.plan.npz")
    return plans, np.arange(float(WORKLOAD["n"]))


#: Client-side handling of LedgerBusyError backpressure: an overloaded
#: unbatched cell (many workers, one tenant ledger, one CPU) sheds load
#: rather than queueing unboundedly; a real client retries with backoff.
#: Retries are counted per cell and the retry waits stay inside the
#: request's measured latency — overload shows up as tail latency, which
#: is exactly what the p99 column is for.
BUSY_RETRIES = 10
BUSY_BACKOFF = 0.05


async def _drive(client, requests, concurrency, stats=None, retry_faults=False):
    """Fire ``requests`` executes with at most ``concurrency`` in flight;
    returns per-request latencies (seconds) in completion order. ``stats``
    accumulates attempt/shed/fault counters; with ``retry_faults`` the
    driver also retries crash-shaped failures (the faults cell)."""
    from repro.serving import ServiceError

    semaphore = asyncio.Semaphore(concurrency)
    latencies = []
    if stats is None:
        stats = {}
    for field in ("attempts", "served", "shed", "faulted",
                  "failed_hard", "failed_shed_only"):
        stats.setdefault(field, 0)

    async def one():
        async with semaphore:
            start = time.perf_counter()
            served = False
            saw_fault = False
            for attempt in range(BUSY_RETRIES + 1):
                stats["attempts"] += 1
                try:
                    await client.execute("bench", "bench", WORKLOAD["epsilon"])
                    served = True
                    break
                except ServiceError as exc:
                    if exc.kind in _SHED_KINDS:
                        stats["shed"] += 1
                    elif retry_faults and exc.kind in _FAULT_KINDS:
                        stats["faulted"] += 1
                        saw_fault = True
                    else:
                        raise
                    if attempt == BUSY_RETRIES:
                        break
                    await asyncio.sleep(BUSY_BACKOFF * (attempt + 1))
            if served:
                stats["served"] += 1
                latencies.append(time.perf_counter() - start)
            elif saw_fault:
                stats["failed_hard"] += 1
            else:
                stats["failed_shed_only"] += 1

    await asyncio.gather(*[one() for _ in range(requests)])
    return latencies


async def _kill_loop(service, stopping, kills):
    """The faults cell's chaos task: SIGKILL a random live worker every
    KILL_INTERVAL seconds until told to stop."""
    import os
    import random
    import signal

    rng = random.Random(1307)
    while not stopping.is_set():
        await asyncio.sleep(KILL_INTERVAL)
        pids = service.pool.pids()
        if pids:
            os.kill(rng.choice(pids), signal.SIGKILL)
            kills[0] += 1


async def _run_service(tmp_dir, plans, data, workers, mode, reps):
    faults = mode == "faults"
    supervision = (
        # Tight supervision so respawns land within the measured window.
        dict(heartbeat_interval=0.2, heartbeat_timeout=0.6,
             restart_budget=10_000, backoff_base=0.02, healthy_after=5.0)
        if faults else {}
    )
    config = ServiceConfig(
        plans_dir=plans,
        ledger_root=Path(tmp_dir) / f"ledgers-{workers}-{mode}",
        data=data,
        total_epsilon=TOTAL_BUDGET,
        workers=workers,
        seed=7,
        max_batch=1 if mode == "unbatched" else MAX_BATCH,
        **supervision,
    )
    service = PlanService(config)
    host, port = await service.start()
    client = await AsyncServiceClient.connect(host, port)
    kills = [0]
    try:
        await _drive(client, min(REQUESTS, 32), CONCURRENCY)  # warm-up, untimed
        latencies = []
        walls = []
        stats = {}
        stopping = asyncio.Event()
        killer = (
            asyncio.ensure_future(_kill_loop(service, stopping, kills))
            if faults else None
        )
        try:
            for _ in range(reps):
                start = time.perf_counter()
                latencies.extend(
                    await _drive(client, REQUESTS, CONCURRENCY, stats=stats,
                                 retry_faults=faults)
                )
                walls.append(time.perf_counter() - start)
        finally:
            stopping.set()
            if killer is not None:
                await killer
        batches = service.coalescer.batches_flushed
        coalesced = service.coalescer.requests_coalesced
    finally:
        await client.close()
        await service.shutdown()
    latencies = np.asarray(latencies)
    best_wall = min(walls)
    decided = stats["served"] + stats["failed_hard"]
    return {
        **WORKLOAD,
        "workers": workers,
        "mode": mode,
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "max_batch": config.max_batch,
        "p50_latency_seconds": float(np.percentile(latencies, 50)),
        "p99_latency_seconds": float(np.percentile(latencies, 99)),
        "releases_per_second": (stats["served"] / reps) / best_wall,
        "wall_seconds_all": walls,
        "busy_retries": stats["shed"],
        "mean_batch_size": (coalesced / batches) if batches else 1.0,
        "availability": stats["served"] / decided if decided else 1.0,
        "shed_rate": stats["shed"] / max(1, stats["attempts"]),
        "worker_kills": kills[0],
    }


def test_service_throughput_and_latency(tmp_path):
    reps = int(os.environ.get("REPRO_BENCH_REPS", "3"))
    plans, data = _stage(tmp_path)

    cells = []
    for workers in WORKER_COUNTS:
        for mode in MODES:
            cell = asyncio.run(
                _run_service(tmp_path, plans, data, workers, mode, reps)
            )
            cells.append(cell)
    # Availability under faults: the 4-worker coalesced shape with a chaos
    # task killing a random worker every KILL_INTERVAL seconds.
    faults_cell = asyncio.run(
        _run_service(tmp_path, plans, data, 4, "faults", reps)
    )
    cells.append(faults_cell)

    def rps(workers, mode):
        return next(
            c["releases_per_second"]
            for c in cells
            if c["workers"] == workers and c["mode"] == mode
        )

    speedup = rps(4, "coalesced") / rps(1, "unbatched")
    report = {
        "label": os.environ.get("REPRO_BENCH_LABEL", "current"),
        "description": "TCP service load benchmark: one tenant, one LM plan, "
        f"{REQUESTS} requests/rep at concurrency {CONCURRENCY}; p50/p99 are "
        "client-side request latencies, releases_per_second the best rep.",
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "reps": reps,
        "cells": cells,
        "speedup_4coalesced_vs_1unbatched": speedup,
        "availability_under_faults": faults_cell["availability"],
        "worker_kills_under_faults": faults_cell["worker_kills"],
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2))

    print()
    header = (
        f"{'workers':>7} {'mode':<10} {'rps':>9} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'batch':>6} {'busy':>5} {'avail':>7} {'shed':>6}"
    )
    print(header)
    for cell in cells:
        print(
            f"{cell['workers']:>7} {cell['mode']:<10} "
            f"{cell['releases_per_second']:>9,.0f} "
            f"{cell['p50_latency_seconds'] * 1e3:>8.2f} "
            f"{cell['p99_latency_seconds'] * 1e3:>8.2f} "
            f"{cell['mean_batch_size']:>6.1f} {cell['busy_retries']:>5} "
            f"{cell['availability']:>7.4f} {cell['shed_rate']:>6.2%}"
        )
    print(
        f"4-worker coalesced vs 1-worker unbatched: {speedup:.2f}x "
        f"(target {TARGET_COALESCED_SPEEDUP}x; report: {OUTPUT_PATH})"
    )
    print(
        f"availability under faults ({faults_cell['worker_kills']} worker "
        f"kills): {faults_cell['availability']:.4f} "
        f"(floor {TARGET_AVAILABILITY})"
    )

    assert speedup >= TARGET_COALESCED_SPEEDUP, (
        f"coalesced 4-worker throughput only {speedup:.2f}x the 1-worker "
        f"unbatched control (target {TARGET_COALESCED_SPEEDUP}x); see "
        f"{OUTPUT_PATH} for per-cell data"
    )
    assert faults_cell["availability"] >= TARGET_AVAILABILITY, (
        f"availability under worker kills fell to "
        f"{faults_cell['availability']:.4f} (floor {TARGET_AVAILABILITY}); "
        f"see {OUTPUT_PATH} for the faults cell"
    )
