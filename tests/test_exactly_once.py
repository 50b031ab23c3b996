"""Exactly-once releases: the idempotency-key path end to end.

Layer by layer:

* **Ledger** — ``spend_keyed`` charges each key at most once, journals the
  produced result durably (checksummed like every record), replays it
  bit-identically across accountant instances, frees the key when produce
  fails, and keeps the dedup index through checkpoint compaction and
  ``recover_ledger`` (including ``--dry-run``'s non-mutating orphan
  report).
* **Engine** — ``execute(..., request_key=...)`` returns the original
  release (flagged ``deduplicated``) on a repeat, across engine
  instances sharing one ledger.
* **Coalescer** — a duplicate key folds onto its pending entry, one
  dispatched request (one spend, two replies); dispatch round-robins across
  ``(tenant, plan)`` groups so a hot tenant cannot starve a quiet one.
* **Clients** — both stamp auto-generated keys, and the busy backoff
  re-reads each refusal's ``retry_after`` clamped to the remaining
  ``max_busy_wait`` window.
* **Service drills** — a worker SIGKILLed *after* the spend but before
  the reply (``serving.worker.before_reply``) and replies dropped on the
  wire (``serving.conn.drop``) both converge to exactly one charge and
  bit-identical replies, with ``health`` dedup counters ticking.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine import PrivateQueryEngine
from repro.engine.plan import build_plan
from repro.exceptions import LedgerError, PrivacyBudgetError
from repro.io.serialization import save_plan
from repro.privacy.accountant import make_accountant
from repro.privacy.ledger import (
    inspect_ledger,
    open_ledger,
    recover_ledger,
)
from repro.serving import (
    AsyncServiceClient,
    Coalescer,
    PlanService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.testing.faults import InjectedFault, failpoints
from repro.workloads import prefix_workload, wrange, wrelated

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


def _acct(path, **kwargs):
    return open_ledger(path, make_accountant(2.0, 0.0, model="pure"), **kwargs)


def _payload(tag):
    return {"values": [1.25, -2.5], "tag": tag}


def _spend_one(acct, key, epsilon=0.1, tag="first"):
    return acct.spend_keyed(
        [((epsilon, 0.0), key)],
        lambda positions, realized: [_payload(tag) for _ in positions],
    )[0]


# --------------------------------------------------------------------- #
# Ledger: spend_keyed semantics
# --------------------------------------------------------------------- #
class TestLedgerKeyedSpend:
    """``spend_keyed`` on a journal ledger. The subclasses below run the
    same cases on a SQLite ledger and on a plain in-memory accountant (the
    base-class ``spend_keyed``). In memory, the cases that reopen, compact
    or recover a ledger file are skipped; on SQLite, so is the dangling
    intent drill (:meth:`ledger_file`)."""

    suffix = ".journal"

    def ledger_file(self, tmp_path, dangling_intent=False):
        if self.suffix is None:
            pytest.skip("needs a ledger file to reopen, compact or recover")
        if dangling_intent and self.suffix != ".journal":
            pytest.skip("SQLite rolls back a half-written transaction: no "
                        "dangling intent is left to reconcile")
        return tmp_path / f"budget{self.suffix}"

    def open(self, tmp_path):
        if self.suffix is None:
            return make_accountant(2.0, 0.0, model="pure")
        return _acct(self.ledger_file(tmp_path))

    @staticmethod
    def close(acct):
        if hasattr(acct, "close"):
            acct.close()

    def test_duplicate_key_replays_without_second_charge(self, tmp_path):
        path = self.ledger_file(tmp_path)
        acct = _acct(path)
        result, deduped = _spend_one(acct, "K1")
        assert not deduped and result == _payload("first")
        assert acct.spent_epsilon == pytest.approx(0.1)

        # Same instance: the repeat replays the stored result, charge-free,
        # even though produce would have returned something else.
        replay, deduped = _spend_one(acct, "K1", tag="second")
        assert deduped and replay == _payload("first")
        assert acct.spent_epsilon == pytest.approx(0.1)
        assert acct.dedup_hits == 1
        acct.close()

        # Fresh instance (full process restart): the result journal is
        # durable, so the replay is still bit-identical and charge-free.
        reopened = _acct(path)
        assert reopened.result_for("K1") == _payload("first")
        replay, deduped = _spend_one(reopened, "K1", tag="third")
        assert deduped and replay == _payload("first")
        assert reopened.spent_epsilon == pytest.approx(0.1)
        reopened.close()

    def test_batch_mixes_hits_in_batch_dups_fresh_and_unkeyed(self, tmp_path):
        acct = self.open(tmp_path)
        _spend_one(acct, "OLD", tag="old")
        outcomes = acct.spend_keyed(
            [
                ((0.1, 0.0), "OLD"),   # dedup hit
                ((0.1, 0.0), "NEW"),   # fresh
                ((0.1, 0.0), "NEW"),   # in-batch duplicate of the fresh one
                ((0.1, 0.0), None),    # unkeyed: always charged
            ],
            lambda positions, realized: [_payload(f"p{p}") for p in positions],
        )
        assert [d for _, d in outcomes] == [True, False, True, False]
        assert outcomes[0][0] == _payload("old")
        assert outcomes[1][0] == outcomes[2][0]  # one spend, two replies
        # Charged: OLD once (earlier) + NEW once + unkeyed once.
        assert acct.spent_epsilon == pytest.approx(0.3)
        self.close(acct)

    def test_produce_failure_frees_the_key(self, tmp_path):
        acct = self.open(tmp_path)

        def exploding(positions, realized):
            raise RuntimeError("noise sampler died")

        with pytest.raises(RuntimeError):
            acct.spend_keyed([((0.1, 0.0), "K1")], exploding)
        assert acct.spent_epsilon == 0.0
        assert acct.result_for("K1") is None
        # The key is free: the retry charges exactly once.
        result, deduped = _spend_one(acct, "K1", tag="retry")
        assert not deduped and result == _payload("retry")
        assert acct.spent_epsilon == pytest.approx(0.1)
        self.close(acct)

    def test_short_produce_charges_nothing(self, tmp_path):
        # One result for two charged keys: refused, nothing charged, no
        # key stored — on every backend alike.
        acct = self.open(tmp_path)
        with pytest.raises(LedgerError, match="returned 1 results for 2"):
            acct.spend_keyed(
                [((0.1, 0.0), "K1"), ((0.1, 0.0), "K2")],
                lambda positions, realized: [_payload("only")],
            )
        assert acct.spent_epsilon == 0.0
        assert acct.result_for("K1") is None and acct.result_for("K2") is None
        result, deduped = _spend_one(acct, "K2", tag="retry")
        assert not deduped and result == _payload("retry")
        assert acct.spent_epsilon == pytest.approx(0.1)
        self.close(acct)

    def test_produce_budget_refusal_rolls_back_the_mirror(self, tmp_path):
        # A PrivacyBudgetError raised by produce (not by admission) must
        # roll the charge back like any other produce failure.
        acct = self.open(tmp_path)
        _spend_one(acct, "K0")

        def refusing(positions, realized):
            raise PrivacyBudgetError("refused downstream of admission")

        with pytest.raises(PrivacyBudgetError):
            acct.spend_keyed([((0.3, 0.0), "K1")], refusing)
        assert acct.spent_epsilon == pytest.approx(0.1)
        if self.suffix is not None:
            reopened = _acct(self.ledger_file(tmp_path))
            assert acct.spent_epsilon == reopened.spent_epsilon
            reopened.close()
        self.close(acct)

    def test_compaction_preserves_dedup_index(self, tmp_path):
        path = self.ledger_file(tmp_path)
        acct = _acct(path, compact_every=6)
        for index in range(6):
            _spend_one(acct, f"K{index}", epsilon=0.05, tag=f"t{index}")
        # Enough records passed the threshold that at least one checkpoint
        # rewrite ran; the stream is now compacted.
        summary = inspect_ledger(path)
        assert summary["costs"] == 6
        assert summary["keyed_results"] == 6
        acct.close()

        reopened = _acct(path)
        for index in range(6):
            replay, deduped = _spend_one(reopened, f"K{index}", tag="again")
            assert deduped and replay == _payload(f"t{index}")
        assert reopened.spent_epsilon == pytest.approx(0.3)
        reopened.close()

    def test_recover_preserves_results_and_reconciles_orphans(self, tmp_path):
        path = self.ledger_file(tmp_path, dangling_intent=True)
        acct = _acct(path)
        _spend_one(acct, "COMMITTED", tag="kept")
        # Leave a dangling *keyed* intent on disk: the injected fault fires
        # between the intent append and the commit append, so the charge
        # never committed and the key must come back free.
        with failpoints.active("ledger.commit.before_append", "error"):
            with pytest.raises(InjectedFault):
                _spend_one(acct, "ORPHAN", tag="lost")
        acct.close()

        before = path.read_bytes()
        report = recover_ledger(path, dry_run=True)
        assert report["dry_run"] is True
        assert report["reconciled_orphans"] == 1
        assert report["freed_keys"] == ["ORPHAN"]
        assert path.read_bytes() == before  # dry run never mutates

        report = recover_ledger(path)
        assert report["dry_run"] is False
        assert report["reconciled_orphans"] == 1
        assert report["freed_keys"] == ["ORPHAN"]
        assert report["dangling_intents"] == []

        reopened = _acct(path)
        # Committed keyed result survived the rewrite; the orphaned key is
        # definitively free and charges exactly once on retry.
        replay, deduped = _spend_one(reopened, "COMMITTED", tag="other")
        assert deduped and replay == _payload("kept")
        result, deduped = _spend_one(reopened, "ORPHAN", tag="retried")
        assert not deduped and result == _payload("retried")
        assert reopened.spent_epsilon == pytest.approx(0.2)
        reopened.close()


class TestSQLiteKeyedSpend(TestLedgerKeyedSpend):
    suffix = ".db"


class TestMemoryKeyedSpend(TestLedgerKeyedSpend):
    suffix = None


# --------------------------------------------------------------------- #
# CLI: ledger recover --dry-run
# --------------------------------------------------------------------- #
class TestRecoverDryRunCLI:
    def test_dry_run_reports_without_mutating(self, tmp_path, capsys):
        path = tmp_path / "budget.journal"
        acct = _acct(path)
        _spend_one(acct, "GOOD", tag="kept")
        with failpoints.active("ledger.commit.before_append", "error"):
            with pytest.raises(InjectedFault):
                _spend_one(acct, "LOST", tag="lost")
        acct.close()
        before = path.read_bytes()

        code = cli_main(["ledger", "recover", "--ledger", str(path), "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run" in out and "left untouched" in out
        assert "would reconcile 1" in out
        assert "LOST" in out
        assert "re-run without --dry-run" in out
        assert path.read_bytes() == before

        code = cli_main(["ledger", "recover", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered" in out and "reconciled 1" in out
        assert path.read_bytes() != before  # compacted for real this time


# --------------------------------------------------------------------- #
# Engine: request_key on execute / execute_many
# --------------------------------------------------------------------- #
class TestEngineKeyedExecute:
    def test_repeat_key_is_bit_identical_across_engines(self, tmp_path):
        path = tmp_path / "budget.journal"
        engine = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, seed=5, ledger_path=path
        )
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        first = engine.execute(plan, epsilon=0.2, request_key="REQ")
        assert not first.metadata.get("deduplicated")

        again = engine.execute(plan, epsilon=0.2, request_key="REQ")
        assert again.metadata.get("deduplicated") is True
        assert again.answers.tolist() == first.answers.tolist()

        # A different seed cannot matter: the replay comes from the
        # journal, not from a fresh noise draw.
        other = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, seed=99, ledger_path=path
        )
        other_plan = other.plan(wrange(6, 64, seed=0), mechanism="LM")
        replay = other.execute(other_plan, epsilon=0.2, request_key="REQ")
        assert replay.metadata.get("deduplicated") is True
        assert replay.answers.tolist() == first.answers.tolist()
        assert other.accountant.spent_epsilon == pytest.approx(0.2)

    def test_execute_many_accepts_keyed_four_tuples(self, tmp_path):
        engine = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, seed=5,
            ledger_path=tmp_path / "budget.journal",
        )
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        a, b, c = engine.execute_many([
            (plan, 0.1, {}, "A"),
            (plan, 0.1, {}, "A"),   # in-batch duplicate
            (plan, 0.1, {}, None),  # opted out
        ])
        assert a.answers.tolist() == b.answers.tolist()
        assert b.metadata.get("deduplicated") is True
        assert not c.metadata.get("deduplicated")
        assert engine.accountant.spent_epsilon == pytest.approx(0.2)

    def test_unkeyed_engine_without_ledger_still_dedups_in_memory(self):
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=5)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        first = engine.execute(plan, epsilon=0.2, request_key="MEM")
        again = engine.execute(plan, epsilon=0.2, request_key="MEM")
        assert again.metadata.get("deduplicated") is True
        assert again.answers.tolist() == first.answers.tolist()
        assert engine.accountant.spent_epsilon == pytest.approx(0.2)


# --------------------------------------------------------------------- #
# Coalescer: pending-duplicate folding + round-robin fairness
# --------------------------------------------------------------------- #
class _RecordingPool:
    def __init__(self):
        self.commands = []

    def submit(self, command, timeout=None, retry_delivered=False):
        self.commands.append((command, retry_delivered))
        _, tenant, plan, requests = command
        return ("ok", [
            (json.dumps({"epsilon": req[0], "n": len(self.commands)}).encode(), False)
            for req in requests
        ])


class TestCoalescerFolding:
    def test_same_key_in_window_folds_to_one_dispatch(self):
        async def scenario():
            pool = _RecordingPool()
            coalescer = Coalescer(pool, max_batch=10)
            results = await asyncio.gather(
                coalescer.submit("alice", "related", 0.01, key="K"),
                coalescer.submit("alice", "related", 0.01, key="K"),
                coalescer.submit("alice", "related", 0.02, key="OTHER"),
            )
            return pool, coalescer, results

        pool, coalescer, results = asyncio.run(scenario())
        assert len(pool.commands) == 1
        command, retry_delivered = pool.commands[0]
        # Two K submissions became ONE dispatched request.
        assert len(command[3]) == 2
        assert coalescer.duplicates_folded == 1
        # Both K waiters got the same payload; OTHER got its own.
        assert results[0] == results[1]
        assert results[2] != results[0]
        # Fully-keyed batch: dispatched crash-retryable.
        assert retry_delivered is True

    def test_unkeyed_batch_is_not_marked_retryable(self):
        async def scenario():
            pool = _RecordingPool()
            coalescer = Coalescer(pool, max_batch=10)
            await asyncio.gather(
                coalescer.submit("alice", "related", 0.01, key="K"),
                coalescer.submit("alice", "related", 0.01),  # unkeyed
            )
            return pool

        pool = asyncio.run(scenario())
        assert pool.commands[0][1] is False  # one unkeyed member poisons it


class _GatedPool:
    """Blocks every dispatch on a gate so the test controls completion
    order; records dispatch order by tenant."""

    def __init__(self):
        self.commands = []
        self.gate = threading.Event()

    def submit(self, command, timeout=None, retry_delivered=False):
        self.commands.append(command)
        self.gate.wait(10.0)
        _, tenant, plan, requests = command
        return ("ok", [
            (json.dumps({"epsilon": req[0]}).encode(), False) for req in requests
        ])


class TestCoalescerFairness:
    def test_cold_tenant_not_starved_by_hot_backlog(self):
        async def scenario():
            pool = _GatedPool()
            coalescer = Coalescer(
                pool, max_batch=2, max_concurrent=1
            )
            tasks = [
                asyncio.ensure_future(coalescer.submit("hot", "p", 0.01))
                for _ in range(2)
            ]
            await asyncio.sleep(0.05)  # hot batch 1 dispatched, gated
            # A backlog of two more full hot buckets queues up...
            tasks += [
                asyncio.ensure_future(coalescer.submit("hot", "p", 0.01))
                for _ in range(4)
            ]
            # ...and then ONE cold request arrives behind them.
            tasks.append(
                asyncio.ensure_future(coalescer.submit("cold", "p", 0.02))
            )
            await asyncio.sleep(0.05)  # cold's bucket pends behind the busy slot
            pool.gate.set()
            await asyncio.gather(*tasks)
            return pool

        pool = asyncio.run(scenario())
        order = [command[1] for command in pool.commands]
        assert len(order) == 4
        # Round-robin: the cold tenant dispatches right after the hot
        # in-flight batch finishes, ahead of the queued hot backlog —
        # FIFO order would have been hot, hot, hot, cold.
        assert order[:2] == ["hot", "cold"]


# --------------------------------------------------------------------- #
# Clients: auto-keys + per-refusal busy backoff clamped to the window
# --------------------------------------------------------------------- #
def _key_capture_server():
    """Threaded stub answering every request OK while recording the
    ``key`` field; returns (port, keys, stop)."""
    import socket as socket_module
    import threading as threading_module

    listener = socket_module.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stopping = threading_module.Event()
    keys = []

    def serve():
        while not stopping.is_set():
            try:
                conn, _ = listener.accept()
            except socket_module.timeout:
                continue
            except OSError:
                return
            with conn:
                fh = conn.makefile("rwb")
                while not stopping.is_set():
                    line = fh.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    keys.append(request.get("key"))
                    payload = {"ok": True, "release": {"values": [1.0]}}
                    if request.get("id") is not None:
                        payload["id"] = request["id"]
                    fh.write(json.dumps(payload).encode() + b"\n")
                    fh.flush()

    thread = threading_module.Thread(target=serve, daemon=True)
    thread.start()

    def stop():
        stopping.set()
        listener.close()
        thread.join(timeout=2)

    return listener.getsockname()[1], keys, stop


class TestClientKeysAndBackoff:
    def test_blocking_client_stamps_fresh_keys(self):
        port, keys, stop = _key_capture_server()
        try:
            client = ServiceClient("127.0.0.1", port, timeout=5.0)
            client.execute("alice", "related", 0.01)
            client.execute("alice", "related", 0.01)
            client.execute("alice", "related", 0.01, key="MINE")
            client.execute("alice", "related", 0.01, key=False)
            client.close()
        finally:
            stop()
        auto_a, auto_b, explicit, opted_out = keys
        # Auto-generated: fresh 32-hex per call, never reused.
        assert auto_a != auto_b
        for key in (auto_a, auto_b):
            assert isinstance(key, str) and len(key) == 32
            int(key, 16)
        assert explicit == "MINE"
        assert opted_out is None  # key=False sends no key at all

    def test_async_client_stamps_fresh_keys(self):
        port, keys, stop = _key_capture_server()
        try:
            async def scenario():
                client = await AsyncServiceClient.connect("127.0.0.1", port)
                try:
                    await client.execute("alice", "related", 0.01)
                    await client.execute("alice", "related", 0.01, key="MINE")
                    await client.execute("alice", "related", 0.01, key=False)
                finally:
                    await client.close()

            asyncio.run(scenario())
        finally:
            stop()
        auto, explicit, opted_out = keys
        assert isinstance(auto, str) and len(auto) == 32
        assert explicit == "MINE"
        assert opted_out is None

    def test_busy_backoff_clamps_to_remaining_window(self):
        # An oversized retry_after hint must not abort retrying while
        # max_busy_wait budget remains: the sleep clamps to the window.
        import socket as socket_module
        import threading as threading_module

        listener = socket_module.create_server(("127.0.0.1", 0))
        listener.settimeout(0.2)
        stopping = threading_module.Event()
        counters = {"requests": 0}

        def serve():
            while not stopping.is_set():
                try:
                    conn, _ = listener.accept()
                except socket_module.timeout:
                    continue
                except OSError:
                    return
                with conn:
                    fh = conn.makefile("rwb")
                    while not stopping.is_set():
                        line = fh.readline()
                        if not line:
                            break
                        counters["requests"] += 1
                        fh.write(json.dumps({
                            "ok": False, "error": "overloaded",
                            "message": "queue full", "retry_after": 30.0,
                        }).encode() + b"\n")
                        fh.flush()

        thread = threading_module.Thread(target=serve, daemon=True)
        thread.start()
        try:
            port = listener.getsockname()[1]
            client = ServiceClient("127.0.0.1", port, timeout=5.0, max_busy_wait=0.3)
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.execute("alice", "related", 0.01)
            elapsed = time.monotonic() - started
            client.close()
            assert excinfo.value.kind == "overloaded"
            # The 30 s hint was clamped: the client retried at least once
            # inside the 0.3 s window instead of surrendering immediately.
            assert counters["requests"] >= 2
            assert 0.25 <= elapsed < 5.0
        finally:
            stopping.set()
            listener.close()
            thread.join(timeout=2)


# --------------------------------------------------------------------- #
# Service drills: post-spend worker kill and dropped replies
# --------------------------------------------------------------------- #
class TestServiceExactlyOnceDrills:
    def test_worker_killed_before_reply_replays_once_charged(
        self, plans_dir, data, tmp_path
    ):
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root, data=data,
            total_epsilon=2.0, workers=1, seed=11, max_batch=4,
        )
        # Worker 0 commits the spend, then dies before sending the reply —
        # the worst spot for at-most-once, the defining drill for
        # exactly-once.
        failpoints_by_worker = {0: {"serving.worker.before_reply": "crash"}}

        async def scenario():
            service = PlanService(config, failpoints_by_worker=failpoints_by_worker)
            host, port = await service.start()
            loop = asyncio.get_running_loop()

            def drill():
                client = ServiceClient(host, port, timeout=30.0)
                try:
                    first = client.execute("acme", "related", 0.05, key="DRILL")
                    second = client.execute("acme", "related", 0.05, key="DRILL")
                finally:
                    client.close()
                return first, second

            try:
                first, second = await loop.run_in_executor(None, drill)
                health = await service.health()
            finally:
                await service.shutdown()
            return first, second, health

        first, second, health = asyncio.run(scenario())
        # The pool-level retry replayed the committed spend transparently:
        # one successful reply, and the explicit repeat is byte-identical.
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert "deduplicated" not in first  # stripped before the wire
        assert health["dedup_hits"] >= 1
        replayed = inspect_ledger(ledger_root / "acme.journal")
        assert replayed["costs"] == 1
        assert replayed["spent_epsilon"] == pytest.approx(0.05)
        assert replayed["keyed_results"] == 1
        assert replayed["dangling_intents"] == []

    def test_conn_drop_retry_converges_to_one_charge(
        self, plans_dir, data, tmp_path
    ):
        ledger_root = tmp_path / "ledgers"
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=ledger_root, data=data,
            total_epsilon=2.0, workers=1, seed=13, max_batch=4,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            loop = asyncio.get_running_loop()

            def drill():
                client = ServiceClient(host, port, timeout=5.0)
                try:
                    with failpoints.active("serving.conn.drop", "error"):
                        # Both the original and the transparent keyed retry
                        # get their replies dropped on the floor; the spend
                        # behind them lands at most once.
                        with pytest.raises(ServiceError) as excinfo:
                            client.execute("acme", "related", 0.05, key="DROP")
                        kind = excinfo.value.kind
                    # Disarmed: the SAME key returns the already-charged
                    # release, twice, bit-identically.
                    first = client.execute("acme", "related", 0.05, key="DROP")
                    second = client.execute("acme", "related", 0.05, key="DROP")
                finally:
                    client.close()
                return kind, first, second

            try:
                kind, first, second = await loop.run_in_executor(None, drill)
                health = await service.health()
            finally:
                await service.shutdown()
            return kind, first, second, health

        kind, first, second, health = asyncio.run(scenario())
        assert kind == "ConnectionClosed"
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert health["dedup_hits"] >= 2  # both post-drill repeats replayed
        replayed = inspect_ledger(ledger_root / "acme.journal")
        assert replayed["costs"] == 1
        assert replayed["spent_epsilon"] == pytest.approx(0.05)
        assert replayed["dangling_intents"] == []

    def test_async_client_auto_keys_and_folds_concurrent_duplicates(
        self, plans_dir, data, tmp_path
    ):
        config = ServiceConfig(
            plans_dir=plans_dir, ledger_root=tmp_path / "ledgers", data=data,
            total_epsilon=2.0, workers=1, seed=17, max_batch=8,
        )

        async def scenario():
            service = PlanService(config)
            host, port = await service.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                # Two concurrent requests with ONE key are pending
                # together: one spend, two identical replies.
                left, right = await asyncio.gather(
                    client.execute("acme", "related", 0.05, key="SAME"),
                    client.execute("acme", "related", 0.05, key="SAME"),
                )
                auto = await client.execute("acme", "related", 0.05)
                health = await service.health()
            finally:
                await client.close()
                await service.shutdown()
            return left, right, auto, health

        left, right, auto, health = asyncio.run(scenario())
        assert json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)
        assert auto != left  # the auto-keyed request was its own spend
        assert health["coalescer"]["duplicates_folded"] >= 1
        replayed = inspect_ledger(tmp_path / "ledgers" / "acme.journal")
        assert replayed["costs"] == 2  # SAME charged once + the auto key
