"""Seeded chaos soak for the serving tier, with execute-retries enabled.

Hammers a live TCP service with concurrent driver traffic while a chaos
controller SIGKILLs random workers, a pre-armed worker crashes pre-spend,
another hangs its pipe (caught by the per-request deadline), one client
connection is dropped mid-request, and a hot plan reload lands mid-soak.
Every logical request carries ONE idempotency key reused across all of
its retries, so a lost reply is retried freely — the ledger's result
journal makes the retry replay any already-committed spend.

The invariant trio asserted at the end:

1. **Exactly one terminal reply** per wire request — the multiplexed
   client's ``unmatched_replies`` / ``duplicate_replies`` anomaly
   counters stay zero, every driver attempt resolves, and after
   reconciliation retries every logical request reached success.
2. **Exactly-once accounting, no orphan slack** — the replayed ledger
   equals the spend of the *unique served keys* exactly: one cost per
   key, zero double-charges, and re-executing a sample of served keys
   returns bit-identical replies with zero additional charge
   (``health``'s dedup-hit counter ticks instead). ``ledger recover``
   afterwards reconciles any dangling keyed intents without changing
   the replayed state.
3. **Availability** ≥ 99 % of logical requests succeed within the
   bounded in-soak retries — deliberate worker kills never take the
   service down.

Seeded via ``REPRO_CHAOS_SEED`` (default 1307) so CI failures replay.
"""

import asyncio
import json
import os
import random
import shutil
import signal
import time
import uuid

import numpy as np
import pytest

from repro.engine.plan import build_plan
from repro.io.serialization import save_plan
from repro.privacy.ledger import inspect_ledger, ledger_health, recover_ledger
from repro.serving import AsyncServiceClient, PlanService, ServiceConfig, ServiceError
from repro.testing.faults import failpoints
from repro.workloads import prefix_workload, wrelated

N = 32
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1307"))

DRIVERS = 6
REQUESTS_PER_DRIVER = 25
MAX_ATTEMPTS = 6
EPSILON = 0.02

# Terminal refusals that never charge the ledger: safe to retry freely
# and excluded from the availability denominator.
_SHED_KINDS = {"overloaded", "deadline_exceeded", "LedgerBusyError"}
# Failures where a spend MAY have been charged before the reply was
# lost: these bound how many orphaned ledger costs are acceptable.
_UNKNOWN_KINDS = {
    "WorkerCrashError", "WorkerTimeoutError", "Timeout",
    "ConnectionClosed", "InternalError", "ServiceUnavailable",
}


@pytest.fixture
def chaos_dirs(tmp_path):
    plans = tmp_path / "plans"
    plans.mkdir()
    for name, workload in (
        ("related", wrelated(8, N, s=2, seed=1)),
        ("prefix", prefix_workload(N)),
    ):
        plan = build_plan(workload, epsilon_hint=0.1, mechanism="LM")
        save_plan(plan, plans / f"{name}.plan.npz")
    return plans, tmp_path / "ledgers"


class _Tally:
    def __init__(self):
        self.successes = 0
        self.shed = 0
        self.unknown_failures = 0
        self.other_failures = 0
        self.logical_ok = 0
        self.logical_failed = 0


async def _driver(client, rng, plans, tally, served, failed):
    for _ in range(REQUESTS_PER_DRIVER):
        await asyncio.sleep(rng.uniform(0.0, 0.01))
        # ONE idempotency key per logical request, reused across every
        # retry: however many attempts it takes, it is one spend.
        key = uuid.uuid4().hex
        plan = rng.choice(plans)
        done = False
        for _ in range(MAX_ATTEMPTS):
            try:
                reply = await client.execute(
                    "acme", plan, EPSILON, deadline_ms=2000, key=key
                )
            except ServiceError as error:
                if error.kind in _SHED_KINDS:
                    tally.shed += 1
                elif error.kind in _UNKNOWN_KINDS:
                    tally.unknown_failures += 1
                else:
                    tally.other_failures += 1
                await asyncio.sleep(rng.uniform(0.01, 0.05))
                continue
            tally.successes += 1
            served[key] = (plan, reply)
            done = True
            break
        if done:
            tally.logical_ok += 1
        else:
            tally.logical_failed += 1
            failed.append((key, plan))


async def _chaos_controller(service, rng, plans_dir, live_plans, soaking):
    """Random SIGKILLs + one mid-soak hot reload + one dropped connection."""
    kills = 0
    reloaded = False
    dropped = False
    started = time.monotonic()
    # Run at least until the minimum chaos quota is met, even if the
    # drivers drain their traffic quickly.
    while soaking.is_set() or kills < 3 or not reloaded or not dropped:
        await asyncio.sleep(rng.uniform(0.25, 0.45))
        elapsed = time.monotonic() - started
        if not reloaded and elapsed > 1.0:
            # Hot reload mid-soak: a third plan lands and swaps in live.
            plan = build_plan(
                wrelated(4, N, s=2, seed=5), epsilon_hint=0.1, mechanism="LM"
            )
            save_plan(plan, plans_dir / "extra.plan.npz")
            await service.reload()
            live_plans.append("extra")
            reloaded = True
            continue
        if not dropped and elapsed > 0.5:
            # A client vanishes mid-request: the server must shrug.
            host, port = service.address
            _, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"op": "execute", "tenant": "ghost", "plan": "related",'
                b' "epsilon": 0.01}\n'
            )
            writer.transport.abort()
            dropped = True
            continue
        pids = service.pool.pids()
        if pids and kills < 5:
            os.kill(rng.choice(pids), signal.SIGKILL)
            kills += 1
    return kills, reloaded, dropped


class TestChaosSoak:
    def test_soak_under_kills_hangs_reload_and_drops(self, chaos_dirs):
        plans_dir, ledger_root = chaos_dirs
        rng = random.Random(SEED)
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root,
            data=np.arange(float(N)),
            total_epsilon=50.0, workers=3, seed=17,
            max_batch=8,
            request_timeout=0.75,
            heartbeat_interval=0.2, heartbeat_timeout=0.6,
            restart_budget=50, backoff_base=0.02, healthy_after=5.0,
        )
        # Worker 0 crashes pre-spend on its first dispatch; worker 1 hangs
        # its pipe (the per-request deadline must catch it). Respawns are
        # clean: these arm by monotonic worker index, not slot.
        failpoints_by_worker = {
            0: {"serving.worker.request": "crash"},
            1: {"serving.worker.request": "delay:2.5"},
        }
        tally = _Tally()
        live_plans = ["related", "prefix"]
        served = {}   # key -> (plan, reply): every logical success
        failed = []   # (key, plan): exhausted in-soak retries

        async def _retry_until_served(client, plan, key, attempts=30):
            for _ in range(attempts):
                try:
                    return await client.execute("acme", plan, EPSILON, key=key)
                except ServiceError as error:
                    assert error.kind in _UNKNOWN_KINDS | _SHED_KINDS
                    await asyncio.sleep(0.1)
            raise AssertionError(f"key {key!r} never reached a success")

        async def scenario():
            service = PlanService(config, failpoints_by_worker=failpoints_by_worker)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(
                host, port, max_busy_wait=2.0
            )
            soaking = asyncio.Event()
            soaking.set()
            chaos = asyncio.ensure_future(
                _chaos_controller(service, rng, plans_dir, live_plans, soaking)
            )
            try:
                await asyncio.gather(*[
                    _driver(
                        client, random.Random(SEED + i), live_plans, tally,
                        served, failed,
                    )
                    for i in range(DRIVERS)
                ])
            finally:
                soaking.clear()
            kills, reloaded, dropped = await chaos
            # Let the supervisor finish respawning after the last kill.
            for _ in range(100):
                health = await client.health()
                if health["alive"] == config.workers:
                    break
                await asyncio.sleep(0.1)
            # Reconciliation: every logical request that exhausted its
            # in-soak retries is retried (same key) until it succeeds —
            # exactly-once makes that always safe, so no request is ever
            # left without a terminal success.
            for key, plan in failed:
                served[key] = (plan, await _retry_until_served(client, plan, key))
            # The new plan genuinely serves post-reload — keyed like
            # everything else, so the retries stay charge-safe.
            fresh = await _retry_until_served(client, "extra", "extra-probe")
            # Exactly-once, witnessed on the wire: re-executing a sample
            # of already-served keys returns bit-identical replies.
            sampler = random.Random(SEED + 999)
            sample = sampler.sample(sorted(served), k=min(10, len(served)))
            for key in sample:
                plan, original = served[key]
                replay = await client.execute("acme", plan, EPSILON, key=key)
                assert json.dumps(replay, sort_keys=True) == json.dumps(
                    original, sort_keys=True
                ), f"retried key {key!r} was not bit-identical"
            health = await client.health(ledgers=True)
            budget = await client.budget("acme")
            anomalies = (client.unmatched_replies, client.duplicate_replies)
            await client.close()
            await service.shutdown()
            return kills, reloaded, dropped, fresh, health, budget, anomalies, sample

        kills, reloaded, dropped, fresh, health, budget, anomalies, sample = (
            asyncio.run(scenario())
        )

        # The chaos actually happened.
        assert kills >= 3 and reloaded and dropped
        assert health["crashes"] >= 2  # kills + armed faults were noticed
        assert len(fresh["values"]) == 4

        # Invariant 1: exactly one terminal reply per wire request, and
        # after reconciliation every logical request reached success.
        assert anomalies == (0, 0)
        total_logical = DRIVERS * REQUESTS_PER_DRIVER
        assert tally.logical_ok + tally.logical_failed == total_logical
        assert tally.other_failures == 0  # only structured, expected kinds
        assert len(served) == total_logical

        # Invariant 2: STRICT equality — the ledger replays to exactly one
        # cost per unique served key (drivers + the reload probe), with no
        # orphan slack; the sampled replays charged nothing and were
        # answered from the result journal (dedup counter ticked).
        replayed = inspect_ledger(ledger_root / "acme.journal")
        unique_keys_served = total_logical + 1  # + the "extra" probe
        assert replayed["costs"] == unique_keys_served, (
            f"double-charge or lost spend: ledger replays "
            f"{replayed['costs']} costs for {unique_keys_served} unique "
            f"keys (seed {SEED}, tally {vars(tally)})"
        )
        assert replayed["keyed_results"] == unique_keys_served
        assert replayed["spent_epsilon"] == pytest.approx(
            EPSILON * unique_keys_served
        )
        assert budget["spent_epsilon"] == pytest.approx(
            replayed["spent_epsilon"]
        )
        assert health["dedup_hits"] >= len(sample)
        probe = health["ledgers"]["acme"]
        assert probe["records"] > 0

        # Invariant 3: availability floor within the bounded in-soak
        # retries (reconciliation not counted).
        availability = tally.logical_ok / total_logical
        assert availability >= 0.99, (
            f"availability {availability:.4f} < 0.99 "
            f"(seed {SEED}, tally {vars(tally)})"
        )

        # The service rode out the soak: reload landed, workers recovered.
        assert health["generation"] == 1 and health["reloads"] == 1
        assert health["alive"] == 3 and health["quarantined"] == 0

        # Orphan reconciliation is definitive: recover drops any dangling
        # keyed intents the kills left behind WITHOUT changing the
        # replayed spend — the freed keys were all retried to success, so
        # their charges live under committed records already.
        recovered = recover_ledger(ledger_root / "acme.journal")
        assert recovered["dangling_intents"] == []
        assert recovered["costs"] == unique_keys_served
        assert recovered["keyed_results"] == unique_keys_served


class TestReloadFaults:
    def test_crash_during_reload_keeps_old_generation(self, chaos_dirs):
        plans_dir, ledger_root = chaos_dirs
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root,
            data=np.arange(float(N)),
            total_epsilon=5.0, workers=1, seed=11, max_batch=4,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                plan = build_plan(
                    wrelated(4, N, s=2, seed=5), epsilon_hint=0.1, mechanism="LM"
                )
                save_plan(plan, plans_dir / "extra.plan.npz")
                # The swap dies after the new segment is staged: the old
                # generation must keep serving and the staged segment must
                # not leak.
                with failpoints.active("serving.reload.before_swap", "error"):
                    with pytest.raises(ServiceError) as excinfo:
                        await client.reload()
                failed_kind = excinfo.value.kind
                still_serving = await client.execute("acme", "related", 0.05)
                health_mid = await client.health()
                # Disarmed, the same reload goes through.
                result = await client.reload()
                fresh = await client.execute("acme", "extra", 0.05)
                health_end = await client.health()
            finally:
                await client.close()
                await service.shutdown()
            return failed_kind, still_serving, health_mid, result, fresh, health_end

        failed_kind, still_serving, health_mid, result, fresh, health_end = (
            asyncio.run(scenario())
        )
        assert failed_kind == "InternalError"
        assert len(still_serving["values"]) == 8
        assert health_mid["generation"] == 0 and health_mid["reloads"] == 0
        assert health_mid["plans"] == ["prefix", "related"]
        assert result["generation"] == 1
        assert len(fresh["values"]) == 4
        assert health_end["reloads"] == 1
        # The failed attempt charged nothing and corrupted nothing.
        probe = ledger_health(ledger_root / "acme.journal")
        assert probe["ok"]
