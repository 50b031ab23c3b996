"""Resilience-layer tests: supervision, deadlines/shedding, hot reload,
and the hardened clients.

The contracts under test:

* **Hung-worker detection** — a worker that stalls its pipe (not just one
  that dies) is caught by the per-request deadline, killed with SIGKILL
  and its slot respawned; the caller sees ``WorkerTimeoutError``, never a
  hang.
* **Restart budget + quarantine** — a crash-looping slot stops flapping
  after ``restart_budget`` consecutive failures and is quarantined; the
  pool keeps serving on its remaining slots and says so via ``health``.
* **Load shedding** — expired or over-queue-limit executes are refused
  *before* any worker dispatch with structured ``deadline_exceeded`` /
  ``overloaded`` replies carrying ``retry_after``; shed requests are
  never charged.
* **Hot plan reload** — a new shared segment swaps in generation by
  generation while in-flight requests keep completing; the old segment
  is unlinked afterwards; stale archives are gated out at staging time.
* **Client hardening** — the blocking client bounds every round-trip,
  reconnects-and-retries once for idempotent ops only, and both clients
  honour busy ``retry_after`` hints with capped jittered backoff.
* **Graceful drain under load** — ``shutdown()`` with a burst in flight
  (including a worker killed mid-drain) still answers every accepted
  request with exactly one terminal reply, and the ledger replays to
  exactly the successful spend.
"""

import asyncio
import json
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.engine.plan import build_plan
from repro.exceptions import ValidationError
from repro.io.serialization import save_plan
from repro.privacy.ledger import inspect_ledger, ledger_health
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
    WorkerTimeoutError,
    stage_plans,
)
from repro.testing.faults import failpoints
from repro.workloads import prefix_workload, wrelated

N = 32


@pytest.fixture(scope="module")
def plans_dir(tmp_path_factory):
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


def _worker_config(manifest, tmp_path, **overrides):
    fields = dict(
        manifest=manifest, ledger_root=tmp_path / "ledgers",
        total_epsilon=5.0, seed=7,
    )
    fields.update(overrides)
    return WorkerConfig(**fields)


def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# --------------------------------------------------------------------- #
# Supervision: hung workers, restart budget, quarantine, health
# --------------------------------------------------------------------- #
class TestSupervision:
    def test_hung_worker_killed_and_respawned(self, plans_dir, data, tmp_path):
        store, manifest = stage_plans(plans_dir, data)
        # Worker index 0 stalls 5 s on every request; the 0.4 s pipe
        # deadline must catch it long before that.
        pool = WorkerPool(
            _worker_config(manifest, tmp_path),
            workers=1,
            failpoints_by_worker={0: {"serving.worker.request": "delay:5"}},
            request_timeout=0.4,
            heartbeat_interval=60.0,  # isolate the per-request path
        )
        try:
            started = time.monotonic()
            with pytest.raises(WorkerTimeoutError):
                pool.submit(("execute", "alice", "related", [(0.05, {})]))
            assert time.monotonic() - started < 3.0  # caught, not waited out

            # The slot respawned clean (fresh index: no failpoints) and the
            # killed attempt never charged the ledger.
            status, releases = pool.submit(
                ("execute", "alice", "related", [(0.05, {})])
            )
            assert status == "ok" and len(releases) == 1
            health = pool.health()
            assert health["timeouts"] == 1
            assert health["crashes"] == 1
            assert health["alive"] == 1
            assert health["quarantined"] == 0
        finally:
            pool.shutdown()
            store.unlink()
        replayed = inspect_ledger(tmp_path / "ledgers" / "alice.journal")
        assert replayed["costs"] == 1

    def test_heartbeat_detects_idle_death(self, plans_dir, data, tmp_path):
        store, manifest = stage_plans(plans_dir, data)
        pool = WorkerPool(
            _worker_config(manifest, tmp_path),
            workers=1,
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
        )
        try:
            assert pool.submit(("ping",))[0] == "ok"
            import os
            import signal

            os.kill(pool.pids()[0], signal.SIGKILL)
            # No request is in flight: only the heartbeat can notice.
            assert _wait_for(lambda: pool.health()["crashes"] == 1)
            assert _wait_for(lambda: pool.health()["alive"] == 1)
            assert pool.submit(("ping",))[0] == "ok"
        finally:
            pool.shutdown()
            store.unlink()

    def test_one_worker_service_serves_again_soon_after_a_kill(
        self, plans_dir, data, tmp_path
    ):
        # The first crash of a slot respawns at once, and the worker forks
        # from the preloaded forkserver: a 1-worker service is back well
        # inside 0.3 s. (A second kill in a row would wait out the
        # restart backoff, by design.)
        import os
        import signal

        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=5.0, workers=1, seed=11,
        )

        async def scenario():
            service = PlanService(config)
            await service.start()
            try:
                await service.execute("alice", "related", 0.05, key="before")
                health = await service.health()
                os.kill(health["slots"][0]["pid"], signal.SIGKILL)
                killed = time.monotonic()
                release = json.loads(
                    await service.execute("alice", "related", 0.05, key="after")
                )
                elapsed = time.monotonic() - killed
                health = await service.health()
            finally:
                await service.shutdown()
            return release, elapsed, health

        release, elapsed, health = asyncio.run(scenario())
        assert len(release["values"]) == 8
        assert elapsed <= 0.3, f"first release after the kill took {elapsed:.3f} s"
        assert health["crashes"] == 1 and health["restarts"] == 1
        replayed = inspect_ledger(tmp_path / "ledgers" / "alice.journal")
        assert replayed["costs"] == 2  # one charge per key, none for the kill

    def test_read_retried_after_its_worker_dies(self, plans_dir, data, tmp_path):
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=5.0, workers=2, seed=29,
        )
        # Worker 0 dies on the first command delivered to it. A budget
        # read is idempotent, so it retries on worker 1 instead of
        # surfacing the crash.
        failpoints = {0: {"serving.worker.request": "crash"}}

        async def scenario():
            service = PlanService(config, failpoints_by_worker=failpoints)
            await service.start()
            try:
                budget = await service.budget("alice")
                health = await service.health()
            finally:
                await service.shutdown()
            return budget, health

        budget, health = asyncio.run(scenario())
        assert budget["spent_epsilon"] == 0.0
        assert health["crashes"] == 1

    def test_crash_loop_is_quarantined_not_flapping(self, plans_dir, data, tmp_path):
        store, manifest = stage_plans(plans_dir, data)
        # Slot 0 re-arms a boot crash on EVERY respawn (the crash-loop
        # shape); slot 1 is healthy. Budget of 2 restarts, tiny backoff.
        pool = WorkerPool(
            _worker_config(manifest, tmp_path),
            workers=2,
            failpoints_by_slot={0: {"serving.worker.boot": "crash"}},
            restart_budget=2,
            backoff_base=0.02,
            heartbeat_interval=60.0,
        )
        try:
            assert _wait_for(lambda: pool.health()["quarantined"] == 1)
            health = pool.health()
            # 1 initial boot + 2 budgeted respawns, then the slot stays down.
            slot0 = next(s for s in health["slots"] if s["slot"] == 0)
            assert slot0["quarantined"] and not slot0["alive"]
            assert health["alive"] == 1
            time.sleep(0.3)  # no further flapping once quarantined
            assert pool.health()["crashes"] == health["crashes"]
            # The service never went down: slot 1 keeps serving.
            assert pool.submit(("ping",))[0] == "ok"
            status, releases = pool.submit(
                ("execute", "alice", "related", [(0.01, {})])
            )
            assert status == "ok" and len(releases) == 1
        finally:
            pool.shutdown()
            store.unlink()

    def test_health_wire_op(self, plans_dir, data, tmp_path):
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=2.0, workers=1, seed=3, max_batch=4,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                await client.execute("alice", "related", 0.05)
                health = await client.health(ledgers=True)
            finally:
                await client.close()
                await service.shutdown()
            return health

        health = asyncio.run(scenario())
        assert health["workers"] == 1 and health["alive"] == 1
        assert health["quarantined"] == 0 and health["generation"] == 0
        assert health["queue_depth"] == 0
        assert health["shed"] == {"overloaded": 0, "deadline_exceeded": 0}
        assert health["coalescer"]["requests_coalesced"] == 1
        assert health["plans"] == ["prefix", "related"]
        probe = health["ledgers"]["alice"]
        assert probe["ok"] and probe["dangling_intents"] == 0

    def test_ledger_health_missing_path(self, tmp_path):
        probe = ledger_health(tmp_path / "nobody.journal")
        assert probe == {
            "path": str(tmp_path / "nobody.journal"), "exists": False, "ok": False,
        }


# --------------------------------------------------------------------- #
# Deadlines and load shedding
# --------------------------------------------------------------------- #
class TestLoadShedding:
    def test_admission_sheds_expired_and_overload(self, plans_dir, data, tmp_path):
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=2.0, workers=1, seed=3, max_batch=4, max_queue=0,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port, max_busy_wait=0.0)
            try:
                # max_queue=0: every execute is shed as overloaded ...
                with pytest.raises(ServiceError) as excinfo:
                    await client.execute("alice", "related", 0.05)
                overloaded = excinfo.value
                # ... and an already-expired deadline is shed first.
                service.config.max_queue = 64
                with pytest.raises(ServiceError) as excinfo:
                    await client.execute("alice", "related", 0.05, deadline_ms=0)
                expired = excinfo.value
                health = await client.health()
                budget = await client.budget("alice")
            finally:
                await client.close()
                await service.shutdown()
            return overloaded, expired, health, budget

        overloaded, expired, health, budget = asyncio.run(scenario())
        assert overloaded.kind == "overloaded"
        assert overloaded.retry_after and overloaded.retry_after > 0
        assert expired.kind == "deadline_exceeded"
        assert expired.retry_after and expired.retry_after > 0
        assert health["shed"] == {"overloaded": 1, "deadline_exceeded": 1}
        # Shed requests are never charged.
        assert budget["spent_epsilon"] == 0.0

    def test_coalescer_never_dispatches_expired_members(self):
        class _SlowPool:
            def __init__(self):
                self.commands = []

            def submit(self, command, timeout=None, retry_delivered=False):
                self.commands.append(command)
                _, tenant, plan, requests = command
                time.sleep(0.15)  # the batch the expired member would join
                return ("ok", [
                    (json.dumps({"epsilon": req[0]}).encode(), False) for req in requests
                ])

        async def scenario():
            pool = _SlowPool()
            coalescer = Coalescer(pool, max_batch=8)
            now = time.monotonic()
            results = await asyncio.gather(
                coalescer.submit("alice", "related", 0.01, deadline=now + 30.0),
                coalescer.submit("alice", "related", 0.02, deadline=now - 0.001),
                return_exceptions=True,
            )
            return pool, coalescer, [
                json.loads(r) if isinstance(r, bytes) else r for r in results
            ]

        pool, coalescer, results = asyncio.run(scenario())
        assert isinstance(results[0], dict)
        assert isinstance(results[1], RemoteExecutionError)
        assert results[1].kind == "deadline_exceeded"
        assert coalescer.shed_expired == 1
        # The expired member was dropped BEFORE dispatch: the one batch
        # that ran carried only the live request.
        assert len(pool.commands) == 1
        assert len(pool.commands[0][3]) == 1


# --------------------------------------------------------------------- #
# Hot plan reload
# --------------------------------------------------------------------- #
class TestHotReload:
    def test_reload_swaps_generation_without_dropping_requests(
        self, plans_dir, data, tmp_path
    ):
        live_dir = tmp_path / "live_plans"
        shutil.copytree(plans_dir, live_dir)
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=live_dir, ledger_root=ledger_root, data=data,
            total_epsilon=20.0, workers=2, seed=9, max_batch=8,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                burst = [
                    asyncio.ensure_future(client.execute("alice", "related", 0.01))
                    for _ in range(24)
                ]
                # A third plan lands on disk, then a reload mid-burst.
                plan = build_plan(wrelated(4, N, s=2, seed=5), epsilon_hint=0.1, mechanism="LM")
                save_plan(plan, live_dir / "extra.plan.npz")
                result = await client.reload()
                outcomes = await asyncio.gather(*burst, return_exceptions=True)
                fresh = await client.execute("alice", "extra", 0.01)
                health = await client.health()
                budget = await client.budget("alice")
            finally:
                await client.close()
                await service.shutdown()
            return result, outcomes, fresh, health, budget

        result, outcomes, fresh, health, budget = asyncio.run(scenario())
        assert result["generation"] == 1
        assert result["plans"] == ["extra", "prefix", "related"]
        # Nothing in flight was dropped by the swap.
        served = [r for r in outcomes if isinstance(r, dict)]
        assert len(served) == 24
        assert len(fresh["values"]) == 4  # the new plan actually serves
        assert health["generation"] == 1 and health["reloads"] == 1
        assert health["alive"] == 2
        # Every accepted spend (24 + the post-reload one) is on the ledger.
        replayed = inspect_ledger(ledger_root / "alice.journal")
        assert replayed["costs"] == 25
        assert replayed["spent_epsilon"] == budget["spent_epsilon"]

    def test_watch_plans_hot_reloads_on_change(self, plans_dir, data, tmp_path):
        live_dir = tmp_path / "watched_plans"
        shutil.copytree(plans_dir, live_dir)
        config = ServiceConfig(
            plans_dir=live_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=2.0, workers=1, seed=9, max_batch=4,
            watch_plans=True, watch_interval=0.1,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                plan = build_plan(wrelated(4, N, s=2, seed=5), epsilon_hint=0.1, mechanism="LM")
                save_plan(plan, live_dir / "extra.plan.npz")
                for _ in range(100):
                    await asyncio.sleep(0.1)
                    if service._reloads:
                        break
                health = await client.health()
                fresh = await client.execute("alice", "extra", 0.01)
            finally:
                await client.close()
                await service.shutdown()
            return health, fresh

        health, fresh = asyncio.run(scenario())
        assert health["reloads"] == 1 and health["generation"] == 1
        assert "extra" in health["plans"]
        assert len(fresh["values"]) == 4

    def test_staleness_gates_at_staging(self, plans_dir, data):
        # Fresh archives pass a generous TTL / version floor untouched ...
        store, manifest = stage_plans(
            plans_dir, data, ttl_seconds=10**9, min_solver_version=0
        )
        assert store.plan_names() == ["prefix", "related"]
        store.unlink()
        # ... and are all evicted by an impossible version floor or TTL.
        with pytest.raises(ValidationError, match="stale"):
            stage_plans(plans_dir, data, min_solver_version=10**9)
        with pytest.raises(ValidationError, match="stale"):
            stage_plans(plans_dir, data, ttl_seconds=0.0)


# --------------------------------------------------------------------- #
# Client hardening (stub servers: no worker processes needed)
# --------------------------------------------------------------------- #
def _stub_server(handler):
    """A threaded JSON-lines stub; returns (port, counters, stop())."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stopping = threading.Event()
    counters = {"connections": 0, "requests": 0}

    def serve_connection(conn):
        with conn:
            fh = conn.makefile("rwb")
            while not stopping.is_set():
                try:
                    line = fh.readline()
                except (OSError, ValueError):
                    return
                if not line:
                    return
                counters["requests"] += 1
                if not handler(json.loads(line), fh, counters, stopping):
                    return

    def accept_loop():
        while not stopping.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            counters["connections"] += 1
            threading.Thread(
                target=serve_connection, args=(conn,), daemon=True
            ).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()

    def stop():
        stopping.set()
        listener.close()
        thread.join(timeout=2)

    return listener.getsockname()[1], counters, stop


def _reply(fh, payload, request):
    if request.get("id") is not None:
        payload = {**payload, "id": request["id"]}
    fh.write(json.dumps(payload).encode() + b"\n")
    fh.flush()
    return True


class TestClientHardening:
    def test_timeout_reconnect_idempotent_only(self):
        def never_reply(request, fh, counters, stopping):
            stopping.wait(5.0)  # stall far past the client timeout
            return False

        port, counters, stop = _stub_server(never_reply)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=0.2, max_busy_wait=0.0)
            # Idempotent op: timeout -> reconnect -> retry once -> surface.
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "Timeout"
            assert client.reconnects == 1
            assert counters["requests"] == 2  # the retry really went out
            # A (default) keyed execute IS retried once now: the key makes
            # the replay exactly-once even if the lost request charged.
            with pytest.raises(ServiceError) as excinfo:
                client.execute("alice", "related", 0.01)
            assert excinfo.value.kind == "Timeout"
            assert counters["requests"] == 4
            # Opting out of the key restores at-most-once: no retry, and
            # the outcome is explicitly unknown.
            with pytest.raises(ServiceError) as excinfo:
                client.execute("alice", "related", 0.01, key=False)
            assert excinfo.value.kind == "Timeout"
            assert "unknown" in excinfo.value.message
            assert counters["requests"] == 5
            client.close()
        finally:
            stop()

    def test_blocking_client_honours_retry_after(self):
        def busy_once_per_connection(request, fh, counters, stopping):
            if counters["requests"] == 1:
                return _reply(fh, {
                    "ok": False, "error": "LedgerBusyError",
                    "message": "ledger lock contended", "retry_after": 0.01,
                }, request)
            return _reply(fh, {"ok": True, "release": {"values": [1.0]}}, request)

        port, counters, stop = _stub_server(busy_once_per_connection)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=2.0, max_busy_wait=2.0)
            release = client.execute("alice", "related", 0.01)
            assert release == {"values": [1.0]}
            assert counters["requests"] == 2  # one busy refusal, one retry
            client.close()
        finally:
            stop()

    def test_busy_retries_capped_by_max_wait(self):
        def always_busy(request, fh, counters, stopping):
            return _reply(fh, {
                "ok": False, "error": "overloaded",
                "message": "queue full", "retry_after": 0.02,
            }, request)

        port, counters, stop = _stub_server(always_busy)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=2.0, max_busy_wait=0.1)
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.execute("alice", "related", 0.01)
            assert excinfo.value.kind == "overloaded"
            assert excinfo.value.retry_after == pytest.approx(0.02)
            assert time.monotonic() - started < 1.0  # capped, not unbounded
            assert counters["requests"] >= 2
            client.close()
        finally:
            stop()

    def test_async_client_honours_retry_after(self):
        def busy_once(request, fh, counters, stopping):
            if counters["requests"] == 1:
                return _reply(fh, {
                    "ok": False, "error": "LedgerBusyError",
                    "message": "contended", "retry_after": 0.01,
                }, request)
            return _reply(fh, {"ok": True, "release": {"values": [2.0]}}, request)

        port, counters, stop = _stub_server(busy_once)
        try:
            async def scenario():
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", port, max_busy_wait=2.0
                )
                try:
                    return await client.execute("alice", "related", 0.01)
                finally:
                    await client.close()

            release = asyncio.run(scenario())
            assert release == {"values": [2.0]}
            assert counters["requests"] == 2
        finally:
            stop()

    def test_conn_drop_failpoint_and_reconnect(self, plans_dir, data, tmp_path):
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=2.0, workers=1, seed=3, max_batch=4,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            loop = asyncio.get_running_loop()

            def drill():
                client = ServiceClient(host, port, timeout=2.0)
                try:
                    with failpoints.active("serving.conn.drop", "error"):
                        # Both the first attempt and the transparent
                        # reconnect-retry get their replies dropped.
                        with pytest.raises(ServiceError) as excinfo:
                            client.ping()
                        kind = excinfo.value.kind
                        reconnects = client.reconnects
                    # Disarmed: the same client recovers on a fresh socket.
                    pong = client.ping()
                finally:
                    client.close()
                return kind, reconnects, pong

            try:
                kind, reconnects, pong = await loop.run_in_executor(None, drill)
            finally:
                await service.shutdown()
            return kind, reconnects, pong

        kind, reconnects, pong = asyncio.run(scenario())
        assert kind == "ConnectionClosed"
        assert reconnects == 1
        assert pong["pong"] is True


# --------------------------------------------------------------------- #
# Graceful drain under concurrent load (with a mid-drain worker kill)
# --------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_drain_with_inflight_burst_and_worker_kill(
        self, plans_dir, data, tmp_path
    ):
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root, data=data,
            total_epsilon=20.0, workers=2, seed=23, max_batch=8,
        )
        # Worker 0 dies (pre-spend) on the first request dispatched to it —
        # some of the in-flight burst lands on a worker that is killed
        # mid-drain.
        failpoints_by_worker = {0: {"serving.worker.request": "crash"}}

        async def scenario():
            service = PlanService(config, failpoints_by_worker=failpoints_by_worker)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            tasks = [
                asyncio.ensure_future(client.execute("acme", "related", 0.01))
                for _ in range(64)
            ]
            await asyncio.sleep(0)  # every request hits the wire
            await service.shutdown()  # drain: stop accepting, serve the rest
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await client.close()
            return outcomes, client

        outcomes, client = asyncio.run(scenario())
        # Every accepted request got exactly one terminal reply: a release
        # or a structured error — never a dropped line.
        assert len(outcomes) == 64
        served = [r for r in outcomes if isinstance(r, dict)]
        failed = [r for r in outcomes if isinstance(r, ServiceError)]
        assert len(served) + len(failed) == 64
        assert all(
            error.kind in ("WorkerCrashError", "WorkerTimeoutError")
            for error in failed
        )
        assert client.duplicate_replies == 0
        assert client.unmatched_replies == 0
        # The kill was pre-spend: the ledger replays to exactly the
        # successful releases, no lost or duplicated charges.
        replayed = inspect_ledger(ledger_root / "acme.journal")
        assert replayed["costs"] == len(served)
        assert replayed["spent_epsilon"] == pytest.approx(0.01 * len(served))
        assert replayed["dangling_intents"] == []
        probe = ledger_health(ledger_root / "acme.journal")
        assert probe["ok"] and probe["dangling_intents"] == 0


# --------------------------------------------------------------------- #
# The delay failpoint action itself
# --------------------------------------------------------------------- #
class TestDelayAction:
    def test_delay_action_sleeps_then_continues(self):
        with failpoints.active("serving.worker.request", "delay:0.1"):
            started = time.monotonic()
            failpoints.fire("serving.worker.request")
            elapsed = time.monotonic() - started
        assert 0.1 <= elapsed < 1.0

    def test_malformed_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            failpoints.arm("serving.worker.request", "delay:soon")
        with pytest.raises(ValueError, match="negative"):
            failpoints.arm("serving.worker.request", "delay:-1")
        with pytest.raises(ValueError, match="unknown failpoint action"):
            failpoints.arm("serving.worker.request", "explode")
