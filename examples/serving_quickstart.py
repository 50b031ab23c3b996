"""The serving tier in five minutes: plans on disk to releases on a socket.

The deployment shape of the engine, end to end and in one process tree:

1. an offline *planning* step fits two workloads and saves the plans to a
   directory (`.plan.npz` — exactly what a production fleet would ship),
2. a :class:`~repro.serving.server.PlanService` stages those plans into
   shared memory once and spawns worker processes that map the read-only
   `(L, B)` factors zero-copy,
3. a burst of concurrent ``execute`` requests arrives over the TCP
   JSON-lines front-end and the micro-batching coalescer folds them into
   atomic ``execute_many`` batches — one ledger transaction, one noise
   draw and one worker round-trip per *batch*,
4. every tenant's budget lives in its own durable ledger under
   ``ledger_root``; after a graceful shutdown the ledger *replays* to
   exactly the budget the service reported,
5. a **chaos drill** closes the loop: kill a worker process live and watch
   the supervisor respawn it (the ``health`` op narrates), then hot-reload
   a brand-new plan into the running service without dropping a request,
6. an **exactly-once drill**: every ``execute`` carries an idempotency key
   (auto-generated unless you pass one), so retrying after an ambiguous
   failure — even across a worker kill — replays the stored release
   byte-for-byte from the durable result journal with zero extra charge.

The CLI equivalent of steps 2-3 is::

    repro serve --plans plans/ --ledger-root ledgers/ \\
        --data counts.npy --budget 5.0 --workers 2

Run:  PYTHONPATH=src python examples/serving_quickstart.py
"""

import asyncio
import json
import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.histogram import DomainMapper, histogram_from_records
from repro.engine.plan import build_plan
from repro.io.serialization import save_plan
from repro.privacy.ledger import inspect_ledger
from repro.serving import AsyncServiceClient, PlanService, ServiceConfig, ServiceError


def stage_plans(plans_dir):
    """Offline planning: fit the workloads once, ship the plans as files."""
    rng = np.random.default_rng(7)
    ages = np.clip(rng.normal(38, 18, 50_000), 0, 99)
    counts, edges = histogram_from_records(ages, bins=100, value_range=(0, 100))
    mapper = DomainMapper(edges)
    cohorts = mapper.range_workload(
        [(0, 17), (18, 24), (25, 34), (35, 44), (45, 64), (65, 99)],
        name="AgeCohorts",
    )
    bands = mapper.range_workload(
        [(18, 99), (18, 64), (65, 99), (0, 99)], name="OverlappingBands"
    )
    for name, workload in (("cohorts", cohorts), ("bands", bands)):
        plan = build_plan(workload, epsilon_hint=0.1, mechanism="LM")
        save_plan(plan, Path(plans_dir) / f"{name}.plan.npz")
    return counts, mapper


async def main():
    with tempfile.TemporaryDirectory() as tmp:
        plans_dir = Path(tmp) / "plans"
        plans_dir.mkdir()
        counts, mapper = stage_plans(plans_dir)
        print(f"planned 2 workloads into {len(list(plans_dir.iterdir()))} plan files")

        # --- Boot the service: shared plans + 2 workers + TCP. -----------
        config = ServiceConfig(
            plans_dir=plans_dir,
            ledger_root=Path(tmp) / "ledgers",
            data=counts,
            total_epsilon=5.0,
            workers=2,
            max_batch=32,  # requests queued behind busy workers share a batch
        )
        service = PlanService(config)
        host, port = await service.start()
        print(f"service up on {host}:{port} with {config.workers} workers")
        client = await AsyncServiceClient.connect(host, port)

        # --- Introspection costs no budget. ------------------------------
        plans = (await client.request({"op": "plan"}))["plans"]
        print(f"served plans: {[p['name'] for p in plans]}")
        explain = (await client.request(
            {"op": "explain", "plan": "cohorts", "epsilon": 0.1}
        ))["explain"]
        print("explain('cohorts') first line:", explain.splitlines()[0])
        print()

        # --- A single release, with post-processing switches. ------------
        release = await client.execute(
            "acme", "cohorts", 0.1, non_negative=True, integral=True
        )
        print(f"one release: mechanism={release['mechanism']} "
              f"eps={release['epsilon']} values={release['values']}")

        # --- A concurrent burst: this is what the coalescer is for. ------
        # 64 simultaneous requests from one tenant against one plan fold
        # into a handful of execute_many batches — one atomic ledger
        # transaction and one vectorised noise draw per batch.
        stats = service.coalescer
        batches_before = stats.batches_flushed
        start = time.perf_counter()
        await asyncio.gather(
            *[client.execute("acme", "bands", 0.01) for _ in range(64)]
        )
        elapsed = time.perf_counter() - start
        batches = stats.batches_flushed - batches_before
        print(f"burst: 64 releases in {elapsed * 1e3:.1f} ms "
              f"({64 / elapsed:,.0f} releases/sec), coalesced into "
              f"{batches} batches (mean batch {64 / batches:.1f})")
        print()

        # --- Budgets are per tenant; isolation is structural. ------------
        acme = await client.budget("acme")
        rival = await client.budget("rival")
        print(f"acme budget: spent {acme['spent_epsilon']:.2f} of "
              f"{acme['total_epsilon']:.2f}; rival untouched at "
              f"{rival['spent_epsilon']:.2f}")
        try:
            await client.execute("acme", "bands", 100.0)
        except ServiceError as exc:
            print(f"overdraft refused at the ledger: {exc.kind}")
        print()

        # --- Chaos drill 1: kill a worker, watch the supervisor heal. ----
        # SIGKILL one of the two workers mid-service. The supervisor
        # notices (heartbeat or the next dispatch), respawns the slot, and
        # the health op shows the service back at full strength.
        victim = service.pool.pids()[0]
        os.kill(victim, signal.SIGKILL)
        print(f"chaos: killed worker pid {victim}")
        for _ in range(100):
            health = await client.health()
            if health["restarts"] >= 1 and health["alive"] == config.workers:
                break
            await asyncio.sleep(0.1)
        print(f"recovered: {health['alive']}/{health['workers']} workers "
              f"alive after {health['restarts']} restart(s); service still "
              f"answers: {(await client.request({'op': 'ping'}))['pong']}")
        print()

        # --- Chaos drill 2: hot-reload a new plan into the live service. -
        # A third plan lands on disk and `reload` stages a fresh shared
        # segment, swaps the workers generation by generation (in-flight
        # requests keep completing), and unlinks the old segment. The CLI
        # equivalent is `repro serve --watch-plans`, which does this
        # automatically whenever the plans directory changes.
        decades = mapper.range_workload(
            [(d, d + 9) for d in range(0, 100, 10)], name="Decades"
        )
        plan = build_plan(decades, epsilon_hint=0.1, mechanism="LM")
        save_plan(plan, plans_dir / "decades.plan.npz")
        reloaded = await client.reload()
        release = await client.execute("acme", "decades", 0.05)
        print(f"hot reload: generation {reloaded['generation']} now serves "
              f"{reloaded['plans']}; new plan answered "
              f"{len(release['values'])} range queries without a restart")
        print()

        # --- Chaos drill 3: retry safely with an idempotency key. --------
        # Every execute carries a key (auto-generated UUID by default;
        # pass key=... to control it, key=False to opt out). The release
        # is journaled under that key at commit, so when a client can't
        # tell whether its request landed — timeout, dropped connection,
        # killed worker — it simply re-sends the SAME key: a duplicate is
        # answered from the durable result journal, bit-identical and
        # never charged twice. Here we even SIGKILL a worker between the
        # two sends to show the result survives worker death (it lives in
        # the ledger, not in any process's memory).
        before = (await client.budget("acme"))["spent_epsilon"]
        first = await client.execute("acme", "cohorts", 0.05, key="report-q3")
        os.kill(service.pool.pids()[0], signal.SIGKILL)  # chaos, again
        retried = await client.execute("acme", "cohorts", 0.05, key="report-q3")
        after = (await client.budget("acme"))["spent_epsilon"]
        identical = json.dumps(first, sort_keys=True) == json.dumps(
            retried, sort_keys=True
        )
        health = await client.health()
        print(f"exactly-once: retried key 'report-q3' byte-identical="
              f"{identical}, charged once ({after - before:.2f} eps for 2 "
              f"sends), dedup hits so far: {health['dedup_hits']}")
        for _ in range(100):  # let the supervisor respawn the killed slot
            health = await client.health()
            if health["alive"] == config.workers:
                break
            await asyncio.sleep(0.1)
        print()

        # --- Graceful drain, then audit the durable ledger. --------------
        acme = await client.budget("acme")  # refresh after the drills
        await client.close()
        await service.shutdown()
        ledger = Path(tmp) / "ledgers" / "acme.journal"
        replayed = inspect_ledger(ledger)
        print(f"shutdown drained; {ledger.name} replays to spent "
              f"eps={replayed['spent_epsilon']:.2f} over "
              f"{replayed['committed']} committed transactions "
              f"(matches served budget: {replayed['spent_epsilon'] == acme['spent_epsilon']})")


if __name__ == "__main__":
    asyncio.run(main())
