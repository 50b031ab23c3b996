"""Serving-tier tests: shared plan segments, the worker pool, the
micro-batching coalescer and the TCP front-end.

The contracts under test:

* **Zero-copy sharing** — workers rebuild plans from read-only views into
  one shared segment, through the same verification as a disk load.
* **Multi-tenant isolation** — tenants spend from separate ledgers;
  one tenant's releases never move another's budget.
* **Coalescer semantics** — dispatch is work-conserving (no timer: a
  lone request goes out on the next loop turn, requests pending behind
  busy slots share a batch), request order is preserved within and
  across batches, duplicates fold only onto pending entries, batch
  budget refusal degrades to sequential admission, and ``drain`` serves
  everything accepted before shutdown.
* **Crash safety** — a worker killed mid-spend leaves at most a dangling
  intent (never a committed overcharge), and the service keeps serving.
* **Replay bit-identity** — after any amount of multi-worker concurrency,
  replaying a tenant's ledger through a fresh accountant reproduces the
  served budget exactly.

Worker processes fork from a preloaded forkserver, so only the first
pool in the test process pays the interpreter's imports; the suite still
keeps worker counts at 1-2 and shares the staged plan directory across
tests.
"""

import asyncio
import json
import multiprocessing
import threading

import numpy as np
import pytest

from repro.engine.plan import build_plan
from repro.exceptions import ValidationError
from repro.io.serialization import load_plan, save_plan
from repro.privacy.ledger import inspect_ledger
from repro.serving import (
    AsyncServiceClient,
    Coalescer,
    PlanService,
    RemoteExecutionError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    WorkerConfig,
    WorkerPool,
    attach_plans,
    stage_plans,
)
from repro.workloads import prefix_workload, wrelated

N = 32


@pytest.fixture(scope="module")
def plans_dir(tmp_path_factory):
    """A directory of two cheap (LM) plan archives, shared by the module."""
    directory = tmp_path_factory.mktemp("plans")
    for name, workload in (
        ("related", wrelated(8, N, s=2, seed=1)),
        ("prefix", prefix_workload(N)),
    ):
        plan = build_plan(workload, epsilon_hint=0.1, mechanism="LM")
        save_plan(plan, directory / f"{name}.plan.npz")
    return directory


@pytest.fixture
def data():
    return np.arange(float(N))


# --------------------------------------------------------------------- #
# Shared plan store
# --------------------------------------------------------------------- #
class TestSharedPlans:
    def test_stage_attach_roundtrip(self, plans_dir, data):
        store, manifest = stage_plans(plans_dir, data)
        try:
            assert store.plan_names() == ["prefix", "related"]
            attached = attach_plans(manifest)
            try:
                plan = attached.plan("related")
                loaded = load_plan(plans_dir / "related.plan.npz")
                assert plan.plan_key == loaded.plan_key
                assert plan.explain() == loaded.explain()
                shared_vector, epoch = attached.data()
                assert np.array_equal(shared_vector, data)
                assert not shared_vector.flags.writeable
                assert isinstance(epoch, str) and epoch
                assert epoch == manifest.data_epoch
            finally:
                attached.close()
        finally:
            store.unlink()

    def test_plan_views_are_read_only_and_cached(self, plans_dir, data):
        store, _ = stage_plans(plans_dir, data)
        try:
            plan = store.plan("prefix")
            assert store.plan("prefix") is plan  # rebuilt once per process
            matrix = plan.mechanism.workload.matrix
            assert not matrix.flags.writeable
            with pytest.raises((ValueError, ValidationError)):
                matrix[0, 0] = 99.0
        finally:
            store.unlink()

    def test_unknown_plan_and_empty_dir_rejected(self, plans_dir, data, tmp_path):
        store, _ = stage_plans(plans_dir, data)
        try:
            with pytest.raises(ValidationError, match="unknown plan"):
                store.plan("nope")
        finally:
            store.unlink()
        with pytest.raises(ValidationError, match="no .*plan.npz"):
            stage_plans(tmp_path / "empty", data)


# --------------------------------------------------------------------- #
# Worker pool
# --------------------------------------------------------------------- #
class TestWorkerPool:
    def test_execute_budget_and_tenant_isolation(self, plans_dir, data, tmp_path):
        store, manifest = stage_plans(plans_dir, data)
        pool = WorkerPool(
            WorkerConfig(
                manifest=manifest, ledger_root=tmp_path / "ledgers",
                total_epsilon=1.0, seed=5,
            ),
            workers=1,
        )
        try:
            status, releases = pool.submit(
                ("execute", "alice", "related", [(0.05, {}), (0.05, {"integral": True})])
            )
            assert status == "ok" and len(releases) == 2
            releases = [json.loads(body) for body, _ in releases]
            assert len(releases[0]["values"]) == 8
            assert all(float(v).is_integer() for v in releases[1]["values"])

            status, budget = pool.submit(("budget", "alice"))
            assert status == "ok"
            assert budget["spent_epsilon"] == pytest.approx(0.1)

            # bob's ledger is a different file; alice's spend is invisible
            status, budget = pool.submit(("budget", "bob"))
            assert status == "ok" and budget["spent_epsilon"] == 0.0
            ledgers = sorted(
                p.name for p in (tmp_path / "ledgers").glob("*.journal")
            )
            assert ledgers == ["alice.journal", "bob.journal"]

            # worker-side failures come back as error tuples, never raw
            status, kind, _ = pool.submit(("execute", "alice", "nope", [(0.1, {})]))
            assert (status, kind) == ("error", "ValidationError")
            status, kind, _ = pool.submit(("frobnicate",))
            assert (status, kind) == ("error", "ValidationError")
        finally:
            pool.shutdown()
            store.unlink()


# --------------------------------------------------------------------- #
# Coalescer (in-process: a fake pool keeps these fast and deterministic)
# --------------------------------------------------------------------- #
class _FakePool:
    """Worker-pool stand-in: replies like a worker, records every command."""

    def __init__(self, remaining=None):
        self.commands = []
        self.remaining = remaining  # per-pool budget when not None

    def submit(self, command, timeout=None, retry_delivered=False):
        assert command[0] == "execute"
        _, tenant, plan_name, requests = command
        self.commands.append(command)
        if self.remaining is not None:
            total = sum(request[0] for request in requests)
            if total > self.remaining + 1e-12:
                return ("error", "PrivacyBudgetError", "insufficient budget")
            self.remaining -= total
        return (
            "ok",
            [
                (json.dumps(
                    {"tenant": tenant, "plan": plan_name, "epsilon": request[0]}
                ).encode("utf-8"), False)
                for request in requests
            ],
        )


def _decoded(results):
    """Release bodies decoded (exceptions passed through)."""
    return [json.loads(r) if isinstance(r, bytes) else r for r in results]


class _GatedPool(_FakePool):
    """A ``_FakePool`` whose dispatches block until the test admits them,
    so a test controls exactly when each worker slot frees."""

    def __init__(self):
        super().__init__()
        self._permits = threading.Semaphore(0)
        self._arrived = threading.Condition()

    def submit(self, command, timeout=None, retry_delivered=False):
        reply = super().submit(command)
        with self._arrived:
            self._arrived.notify_all()
        assert self._permits.acquire(timeout=10.0), "dispatch never admitted"
        return reply

    def admit(self, count):
        """Let ``count`` more dispatches return."""
        for _ in range(count):
            self._permits.release()

    async def dispatched(self, count):
        """Wait, off the event loop, until ``count`` commands arrived."""
        def wait():
            with self._arrived:
                assert self._arrived.wait_for(
                    lambda: len(self.commands) >= count, timeout=10.0
                )

        await asyncio.get_running_loop().run_in_executor(None, wait)


class TestCoalescer:
    def test_batch_formation_and_request_order(self):
        async def scenario():
            pool = _FakePool()
            coalescer = Coalescer(pool, max_batch=5)
            epsilons = [0.01, 0.02, 0.03, 0.04, 0.05]
            results = await asyncio.gather(
                *[coalescer.submit("alice", "related", e) for e in epsilons]
            )
            return pool, coalescer, epsilons, _decoded(results)

        pool, coalescer, epsilons, results = asyncio.run(scenario())
        assert coalescer.batches_flushed == 1
        assert coalescer.requests_coalesced == 5
        assert len(pool.commands) == 1
        # results resolve onto the originating futures in request order
        assert [r["epsilon"] for r in results] == epsilons

    def test_buckets_are_per_tenant_and_plan(self):
        async def scenario():
            pool = _FakePool()
            coalescer = Coalescer(pool, max_batch=10)
            await asyncio.gather(
                coalescer.submit("alice", "related", 0.01),
                coalescer.submit("alice", "prefix", 0.01),
                coalescer.submit("bob", "related", 0.01),
            )
            return pool

        pool = asyncio.run(scenario())
        keys = sorted((cmd[1], cmd[2]) for cmd in pool.commands)
        assert keys == [("alice", "prefix"), ("alice", "related"), ("bob", "related")]

    def test_budget_refusal_degrades_to_sequential_admission(self):
        async def scenario():
            pool = _FakePool(remaining=0.25)
            coalescer = Coalescer(pool, max_batch=5)
            results = await asyncio.gather(
                *[coalescer.submit("alice", "related", 0.1) for _ in range(5)],
                return_exceptions=True,
            )
            return coalescer, _decoded(results)

        coalescer, results = asyncio.run(scenario())
        served = [r for r in results if isinstance(r, dict)]
        refused = [r for r in results if isinstance(r, RemoteExecutionError)]
        # 0.25 remaining admits exactly the first two 0.1 requests — and
        # arrival order decides *which* two, as unbatched arrival would.
        assert [isinstance(r, dict) for r in results] == [
            True, True, False, False, False
        ]
        assert len(served) == 2 and len(refused) == 3
        assert all(error.kind == "PrivacyBudgetError" for error in refused)
        assert coalescer.sequential_retries == 5

    def test_lone_request_dispatches_without_a_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            delays = []
            call_later = loop.call_later

            def recording_call_later(delay, callback, *args, **kwargs):
                delays.append(delay)
                return call_later(delay, callback, *args, **kwargs)

            loop.call_later = recording_call_later
            pool = _FakePool()
            coalescer = Coalescer(pool, max_batch=32, max_concurrent=1)
            result = await coalescer.submit("alice", "related", 0.01)
            return pool, delays, json.loads(result)

        pool, delays, result = asyncio.run(scenario())
        assert result["epsilon"] == 0.01
        assert [len(command[3]) for command in pool.commands] == [1]
        # The dispatch was scheduled for the next loop turn, and no
        # positive-delay timer was ever armed.
        assert delays and all(delay == 0 for delay in delays)

    def test_requests_pending_behind_a_busy_slot_share_one_batch(self):
        async def scenario():
            pool = _GatedPool()
            coalescer = Coalescer(pool, max_batch=32, max_concurrent=1)
            first = asyncio.ensure_future(coalescer.submit("alice", "related", 0.01))
            await pool.dispatched(1)
            later = []
            for epsilon in (0.02, 0.03, 0.04):
                later.append(asyncio.ensure_future(
                    coalescer.submit("alice", "related", epsilon)
                ))
                for _ in range(3):  # the pump runs, but the slot is busy
                    await asyncio.sleep(0)
            assert len(pool.commands) == 1
            pool.admit(2)
            results = await asyncio.gather(first, *later)
            return pool, coalescer, _decoded(results)

        pool, coalescer, results = asyncio.run(scenario())
        assert [len(command[3]) for command in pool.commands] == [1, 3]
        assert coalescer.batches_flushed == 2
        assert [r["epsilon"] for r in results] == [0.01, 0.02, 0.03, 0.04]

    def test_overfull_bucket_dispatches_in_order_slices(self):
        epsilons = [0.01, 0.02, 0.03, 0.04, 0.05]  # 2 * max_batch + 1

        async def scenario():
            pool = _GatedPool()
            coalescer = Coalescer(pool, max_batch=2, max_concurrent=1)
            blocker = asyncio.ensure_future(coalescer.submit("bob", "related", 0.5))
            await pool.dispatched(1)
            tasks = [
                asyncio.ensure_future(coalescer.submit("alice", "related", e))
                for e in epsilons
            ]
            await asyncio.sleep(0)  # every submit is pending in one bucket
            pool.admit(4)
            results = await asyncio.gather(*tasks)
            await blocker
            return pool, _decoded(results)

        pool, results = asyncio.run(scenario())
        slices = [[request[0] for request in command[3]] for command in pool.commands[1:]]
        assert slices == [[0.01, 0.02], [0.03, 0.04], [0.05]]
        assert [r["epsilon"] for r in results] == epsilons

    def test_duplicate_folds_only_onto_a_pending_entry(self):
        keys = ["k0", "k1", "k2", "k3", "k4"]

        async def scenario():
            pool = _GatedPool()
            coalescer = Coalescer(pool, max_batch=2, max_concurrent=1)
            blocker = asyncio.ensure_future(coalescer.submit("bob", "related", 0.5))
            await pool.dispatched(1)
            tasks = [
                asyncio.ensure_future(
                    coalescer.submit("alice", "related", 0.01, key=key)
                )
                for key in keys
            ]
            await asyncio.sleep(0)
            pool.admit(1)  # the blocker returns; slice [k0, k1] dispatches
            await pool.dispatched(2)
            # k0 is dispatched: its duplicate opens a fresh entry (the
            # ledger dedups it). k3 is still pending: its duplicate folds.
            again = [
                asyncio.ensure_future(
                    coalescer.submit("alice", "related", 0.01, key=key)
                )
                for key in ("k0", "k3")
            ]
            await asyncio.sleep(0)
            pool.admit(3)
            results = await asyncio.gather(*tasks)
            again_results = await asyncio.gather(*again)
            await blocker
            return pool, coalescer, results, again_results

        pool, coalescer, results, again_results = asyncio.run(scenario())
        slices = [[request[2] for request in command[3]] for command in pool.commands[1:]]
        assert slices == [["k0", "k1"], ["k2", "k3"], ["k4", "k0"]]
        assert coalescer.duplicates_folded == 1
        assert again_results[1] is results[3]  # folded: one shared payload
        assert again_results[0] is not results[0]  # dispatched separately

    def test_drain_flushes_pending_and_refuses_new_work(self):
        async def scenario():
            pool = _GatedPool()
            coalescer = Coalescer(pool, max_batch=100, max_concurrent=1)
            blocker = asyncio.ensure_future(coalescer.submit("bob", "related", 0.5))
            await pool.dispatched(1)
            # Queued behind the gated, busy slot, the bucket is still
            # pending when drain() starts.
            tasks = [
                asyncio.ensure_future(coalescer.submit("alice", "related", 0.01))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            drain = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0)
            assert len(pool.commands) == 1 and not drain.done()
            with pytest.raises(RemoteExecutionError, match="draining"):
                await coalescer.submit("alice", "related", 0.01)
            pool.admit(2)
            await drain
            assert blocker.done() and all(task.done() for task in tasks)
            results = await asyncio.gather(*tasks)
            return pool, coalescer, _decoded(results)

        pool, coalescer, results = asyncio.run(scenario())
        assert len(results) == 3 and all(r["epsilon"] == 0.01 for r in results)
        assert [len(command[3]) for command in pool.commands] == [1, 3]
        assert coalescer.batches_flushed == 2


# --------------------------------------------------------------------- #
# End-to-end service (TCP) + replay bit-identity
# --------------------------------------------------------------------- #
class TestServiceEndToEnd:
    def test_serve_coalesce_account_and_replay(self, plans_dir, data, tmp_path):
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root, data=data,
            total_epsilon=2.0, workers=2, seed=11, max_batch=8,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                plans = (await client.request({"op": "plan"}))["plans"]
                assert sorted(p["name"] for p in plans) == ["prefix", "related"]

                releases = await asyncio.gather(
                    *[client.execute("alice", "related", 0.05) for _ in range(16)]
                )
                assert all(len(r["values"]) == 8 for r in releases)
                # concurrent same-key requests actually formed batches
                assert service.coalescer.batches_flushed < 16
                assert service.coalescer.requests_coalesced == 16

                budget = await client.budget("alice")
                other = await client.budget("bob")
                explain = (
                    await client.request(
                        {"op": "explain", "plan": "related", "epsilon": 0.1}
                    )
                )["explain"]

                with pytest.raises(ServiceError) as excinfo:
                    await client.execute("../evil", "related", 0.01)
                assert excinfo.value.kind == "ValidationError"
                with pytest.raises(ServiceError):
                    await client.execute("alice", "related", "lots")
            finally:
                await client.close()
                await service.shutdown()
            return budget, other, explain

        budget, other, explain = asyncio.run(scenario())
        assert budget["spent_epsilon"] == pytest.approx(16 * 0.05)
        assert other["spent_epsilon"] == 0.0  # isolation, again over TCP
        assert "LM" in explain

        # Replay bit-identity: a fresh accountant folding the durable
        # ledger reproduces the served spend *exactly* (==, not approx),
        # despite two workers having interleaved batches.
        replayed = inspect_ledger(ledger_root / "alice.journal")
        assert replayed["spent_epsilon"] == budget["spent_epsilon"]
        assert replayed["dangling_intents"] == []
        assert inspect_ledger(ledger_root / "bob.journal")["spent_epsilon"] == 0.0

    def test_worker_crash_mid_spend_no_double_charge(self, plans_dir, data, tmp_path):
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root, data=data,
            total_epsilon=2.0, workers=2, seed=13, max_batch=8,
        )
        # Worker 0 dies between writing the intent and the commit — the
        # moment a kill -9 would be worst. Its replacement (index 2) and
        # worker 1 carry no failpoints.
        failpoints = {0: {"ledger.commit.before_append": "crash"}}

        async def scenario():
            service = PlanService(config, failpoints_by_worker=failpoints)
            await service.start()
            try:
                with pytest.raises(RemoteExecutionError) as excinfo:
                    await service.execute("alice", "related", 0.3)
                assert excinfo.value.kind == "WorkerCrashError"

                # the service keeps serving on the surviving + respawned workers
                release = json.loads(await service.execute("alice", "related", 0.05))
                assert len(release["values"]) == 8
                budget = await service.budget("alice")
            finally:
                await service.shutdown()
            return budget

        budget = asyncio.run(scenario())
        # The crashed spend never committed: only the post-crash release
        # is charged. The dead worker left exactly one dangling intent.
        assert budget["spent_epsilon"] == pytest.approx(0.05)
        replayed = inspect_ledger(ledger_root / "alice.journal")
        assert replayed["spent_epsilon"] == budget["spent_epsilon"]
        assert len(replayed["dangling_intents"]) == 1


# --------------------------------------------------------------------- #
# Data-epoch fork regression
# --------------------------------------------------------------------- #
def _emit_child_epoch(connection):
    from repro.engine.query_engine import _next_data_epoch

    connection.send(_next_data_epoch())
    connection.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)
def test_forked_process_resalts_epoch_tokens():
    """A fork duplicates the module-level epoch state; the child must mint
    tokens under a fresh (pid, salt) so it can never re-issue a token the
    parent already cached strategy answers against."""
    from repro.engine.query_engine import _next_data_epoch

    parent_tokens = [_next_data_epoch() for _ in range(3)]
    parent_salt = parent_tokens[0].split("-")[1]

    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(target=_emit_child_epoch, args=(child_end,))
    process.start()
    child_end.close()
    child_token = parent_end.recv()
    process.join(10)

    child_pid, child_salt, child_counter = child_token.split("-")
    assert child_token not in parent_tokens
    assert int(child_pid) == process.pid
    assert child_salt != parent_salt  # fresh salt, even if the OS reuses pids
    assert child_counter == "1"  # counter restarted, collision-free via salt
