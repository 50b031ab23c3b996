"""Durable budget ledger (repro.privacy.ledger): both backends, all
accountant models.

The load-bearing claims:

* replay is **bit-identical** — reopening a ledger rebuilds exactly the
  in-memory state (scalar sums and RDP curves compared to the last bit);
* a spend is all-or-nothing — admission failures and injected write
  faults leave the ledger exactly as it was;
* a ``rollback`` record (written by earlier versions, read for
  compatibility) excises its transactions on every later open, and a
  ``reset`` is durable;
* corruption is detected (checksums, sequence gaps), torn tails are
  repaired, lock contention surfaces as ``LedgerBusyError``.
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import (
    LedgerBusyError,
    LedgerCorruptError,
    LedgerError,
    PrivacyBudgetError,
)
from repro.io.atomic import RetryPolicy
from repro.privacy.accountant import make_accountant
from repro.privacy.ledger import (
    DurableAccountant,
    JournalStore,
    SQLiteStore,
    _decode_record,
    _encode_record,
    inspect_ledger,
    open_ledger,
    open_store,
    recover_ledger,
)
from repro.testing.faults import FailPoint, InjectedFault

BACKENDS = ("journal", "sqlite")

# One cost schedule per model; values chosen to exercise float
# non-associativity (0.1 + 0.25 + 0.05 commits in a fixed order).
MODELS = {
    "pure": dict(total=1.0, total_delta=0.0, costs=[(0.1, 0.0), (0.25, 0.0), (0.05, 0.0)]),
    "basic": dict(total=1.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 2e-7), (0.05, 0.0)]),
    "rdp": dict(total=1.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 1e-7), (0.05, 1e-7)]),
}


def ledger_path(tmp_path, backend):
    return tmp_path / ("budget.db" if backend == "sqlite" else "budget.journal")


def fresh_accountant(model):
    spec = MODELS[model]
    return make_accountant(spec["total"], spec["total_delta"], model=model)


def states_equal(left, right):
    """Bit-exact ledger-state comparison (tuples of floats/bools/arrays)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) and all(
            states_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    return left == right


def reopened_state(path, model):
    """Ledger state after a fresh open (what a restarted process sees)."""
    acct = open_ledger(path, fresh_accountant(model))
    try:
        return acct._ledger_state()
    finally:
        acct.close()


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FailPoint.clear()
    yield
    FailPoint.clear()


# ---------------------------------------------------------------------- #
# Record format
# ---------------------------------------------------------------------- #
class TestRecordFormat:
    def test_roundtrip(self):
        text, _ = _encode_record({"seq": 1, "op": "meta", "x": 0.1})
        record = _decode_record(text, 1)
        assert record["op"] == "meta"
        assert record["x"] == 0.1

    def test_float_repr_roundtrips_exactly(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text, _ = _encode_record({"seq": 1, "op": "intent", "eps": value})
        assert _decode_record(text, 1)["eps"] == value

    def test_checksum_mismatch_raises(self):
        text, _ = _encode_record({"seq": 1, "op": "meta", "x": 1.0})
        tampered = text.replace('"x":1.0', '"x":2.0')
        with pytest.raises(LedgerCorruptError):
            _decode_record(tampered, 1)

    def test_sequence_gap_raises(self):
        text, _ = _encode_record({"seq": 3, "op": "meta"})
        with pytest.raises(LedgerCorruptError):
            _decode_record(text, 2)

    def test_garbage_raises(self):
        with pytest.raises(LedgerCorruptError):
            _decode_record("not json at all", 1)


# ---------------------------------------------------------------------- #
# Backend routing
# ---------------------------------------------------------------------- #
class TestOpenStore:
    def test_suffix_routes_to_sqlite(self, tmp_path):
        for name in ("a.db", "b.sqlite", "c.sqlite3"):
            store = open_store(tmp_path / name)
            assert isinstance(store, SQLiteStore)
            store.close()

    def test_default_routes_to_journal(self, tmp_path):
        store = open_store(tmp_path / "budget.journal")
        assert isinstance(store, JournalStore)

    def test_magic_routes_existing_sqlite_file(self, tmp_path):
        odd_name = tmp_path / "budget.ledger"
        store = open_store(odd_name, backend="sqlite")
        with store.transact():
            store.append({"op": "meta"})
        store.close()
        assert isinstance(open_store(odd_name), SQLiteStore)

    def test_unknown_backend_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            open_store(tmp_path / "x", backend="parchment")


# ---------------------------------------------------------------------- #
# Durable accounting: bit-identical replay
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", sorted(MODELS))
class TestDurableReplay:
    def test_replay_is_bit_identical(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        for cost in MODELS[model]["costs"]:
            acct.spend(*cost)
        live = acct._ledger_state()
        live_spent = (acct.spent_epsilon, acct.spent_delta)
        acct.close()

        # An in-memory control performing the same arithmetic in the same
        # order must land on the same bits: the ledger journals costs, not
        # states, and replays them through _commit_state in commit order.
        control = fresh_accountant(model)
        for cost in MODELS[model]["costs"]:
            control.spend(*cost)

        recovered = open_ledger(path, fresh_accountant(model))
        assert states_equal(recovered._ledger_state(), live)
        assert states_equal(recovered._ledger_state(), control._ledger_state())
        assert (recovered.spent_epsilon, recovered.spent_delta) == live_spent
        recovered.close()

    def test_spend_mirrors_inner_and_reports(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        inner = fresh_accountant(model)
        acct = open_ledger(path, inner)
        assert acct.name == inner.name  # audit label is the model's
        cost = MODELS[model]["costs"][0]
        acct.spend(*cost)
        assert acct.spent_epsilon == inner.spent_epsilon
        assert acct.remaining_epsilon == inner.remaining_epsilon
        assert acct.total_epsilon == MODELS[model]["total"]
        acct.close()

    def test_admission_failure_leaves_ledger_untouched(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        acct.spend(*MODELS[model]["costs"][0])
        before = acct._ledger_state()
        with pytest.raises(PrivacyBudgetError):
            acct.spend(MODELS[model]["total"] * 10.0, MODELS[model]["total_delta"])
        assert states_equal(acct._ledger_state(), before)
        acct.close()
        assert states_equal(reopened_state(path, model), before)

    def test_injected_write_fault_rolls_back_in_memory(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        acct.spend(*MODELS[model]["costs"][0])
        before = acct._ledger_state()
        FailPoint.error_at("ledger.commit.before_append")
        with pytest.raises(InjectedFault):
            acct.spend(*MODELS[model]["costs"][1])
        FailPoint.clear()
        # The failed spend is rolled back live and absent after reopen.
        assert states_equal(acct._ledger_state(), before)
        acct.close()
        assert states_equal(reopened_state(path, model), before)

    def test_meta_mismatch_on_reopen_raises(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        open_ledger(path, fresh_accountant(model)).close()
        spec = MODELS[model]
        other = make_accountant(spec["total"] * 2.0, spec["total_delta"], model=model)
        with pytest.raises(LedgerError):
            open_ledger(path, other)

    def test_spend_many_commits_as_one_transaction(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        realized = []
        acct.spend_many(MODELS[model]["costs"], realized_out=realized)
        assert len(realized) == len(MODELS[model]["costs"])
        live = acct._ledger_state()
        acct.close()
        summary = inspect_ledger(path)
        assert summary["committed"] == 1
        assert summary["costs"] == len(MODELS[model]["costs"])
        assert states_equal(reopened_state(path, model), live)


# ---------------------------------------------------------------------- #
# Cross-model guards / wrapper constraints
# ---------------------------------------------------------------------- #
class TestWrapperGuards:
    def test_refuses_double_wrap(self, tmp_path):
        acct = open_ledger(tmp_path / "a.journal", fresh_accountant("pure"))
        with pytest.raises(LedgerError):
            DurableAccountant(acct, open_store(tmp_path / "b.journal"))
        acct.close()

    def test_refuses_non_accountant(self, tmp_path):
        with pytest.raises(LedgerError):
            DurableAccountant(object(), open_store(tmp_path / "a.journal"))

    def test_refuses_pre_spent_accountant(self, tmp_path):
        inner = fresh_accountant("pure")
        inner.spend(0.1)
        with pytest.raises(LedgerError):
            open_ledger(tmp_path / "a.journal", inner)

    def test_model_mismatch_across_models_raises(self, tmp_path):
        path = tmp_path / "budget.journal"
        open_ledger(path, fresh_accountant("pure")).close()
        with pytest.raises(LedgerError):
            open_ledger(path, make_accountant(1.0, 1e-5, model="basic"))


# ---------------------------------------------------------------------- #
# Exact exhaustion
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestExactExhaustion:
    def test_twenty_nickels_drain_exactly(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, make_accountant(1.0, 0.0, model="pure"))
        for _ in range(20):
            acct.spend(0.05)
        assert acct.spent_epsilon == 1.0  # float dust clamped at the boundary
        assert acct.remaining_epsilon == 0.0
        with pytest.raises(PrivacyBudgetError):
            acct.spend(0.05)
        acct.close()
        recovered = open_ledger(path, make_accountant(1.0, 0.0, model="pure"))
        assert recovered.spent_epsilon == 1.0
        with pytest.raises(PrivacyBudgetError):
            recovered.spend(0.05)
        recovered.close()


# ---------------------------------------------------------------------- #
# A SQLite COMMIT that fails
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("model", sorted(MODELS))
class TestSQLiteCommitFailure:
    """A spend whose SQLite COMMIT fails (``sqlite.txn.before_commit``)
    rolls the store's transaction back with the mirror, so the mirror
    matches the disk and the next spend can lock the store; a spend that
    fails after its COMMIT landed (``sqlite.txn.after_commit``) is read
    back by the next sync."""

    @staticmethod
    def spend_keyed(acct, cost, key):
        [outcome] = acct.spend_keyed(
            [(cost, key)], lambda positions, realized: [{"key": key}]
        )
        return outcome

    @staticmethod
    def control_state(model, costs):
        control = fresh_accountant(model)
        for cost in costs:
            control.spend(*cost)
        return control._ledger_state()

    def test_failed_commit_rolls_back_and_the_next_spend_succeeds(
        self, tmp_path, model
    ):
        path = ledger_path(tmp_path, "sqlite")
        cost = MODELS[model]["costs"][0]
        acct = open_ledger(path, fresh_accountant(model))
        untouched = acct._ledger_state()
        FailPoint.error_at("sqlite.txn.before_commit")
        with pytest.raises(InjectedFault):
            self.spend_keyed(acct, cost, "K1")
        FailPoint.clear()
        assert states_equal(acct._ledger_state(), untouched)
        assert states_equal(reopened_state(path, model), untouched)
        assert acct.result_for("K1") is None
        assert self.spend_keyed(acct, cost, "K1") == ({"key": "K1"}, False)
        live = acct._ledger_state()
        acct.close()
        assert states_equal(live, self.control_state(model, [cost]))
        assert states_equal(reopened_state(path, model), live)

    def test_landed_commit_is_read_back_by_the_next_sync(self, tmp_path, model):
        path = ledger_path(tmp_path, "sqlite")
        first, second = MODELS[model]["costs"][:2]
        acct = open_ledger(path, fresh_accountant(model))
        FailPoint.error_at("sqlite.txn.after_commit")
        with pytest.raises(InjectedFault):
            self.spend_keyed(acct, first, "K1")
        FailPoint.clear()
        acct.sync()
        assert states_equal(acct._ledger_state(), self.control_state(model, [first]))
        assert self.spend_keyed(acct, second, "K1") == ({"key": "K1"}, True)
        acct.spend(*second)
        live = acct._ledger_state()
        acct.close()
        assert states_equal(live, self.control_state(model, [first, second]))
        assert states_equal(reopened_state(path, model), live)


# ---------------------------------------------------------------------- #
# Durable history edits: legacy rollback records and reset
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestSnapshotRestore:
    def test_restore_excises_spend_many_durably(
        self, tmp_path, backend, legacy_rollback
    ):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        keep = acct._ledger_state()
        realized = []
        acct.spend_many([(0.2, 0.0), (0.05, 0.0)], realized_out=realized)
        legacy_rollback(path)
        acct.sync()
        assert states_equal(acct._ledger_state(), keep)
        acct.close()
        # Rolled-back transactions are excised from replay forever — a
        # fresh open must NOT resurrect them.
        assert states_equal(reopened_state(path, "pure"), keep)
        summary = inspect_ledger(path)
        assert summary["rolled_back"] == 1
        assert summary["spent_epsilon"] == 0.1

    def test_reset_is_durable(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.4)
        acct.reset()
        assert acct.spent_epsilon == 0.0
        acct.close()
        recovered = open_ledger(path, fresh_accountant("pure"))
        assert recovered.spent_epsilon == 0.0
        recovered.close()


# ---------------------------------------------------------------------- #
# Corruption, torn tails, contention
# ---------------------------------------------------------------------- #
class TestJournalIntegrity:
    def test_mid_stream_corruption_raises(self, tmp_path):
        path = tmp_path / "budget.journal"
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        acct.spend(0.2)
        acct.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"intent", b"lntent", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(LedgerCorruptError):
            open_ledger(path, fresh_accountant("pure"))

    def test_torn_tail_is_tolerated_and_repaired(self, tmp_path):
        path = tmp_path / "budget.journal"
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        live = acct._ledger_state()
        acct.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq":99,"op":"intent","truncated')  # no newline
        # Lock-free inspect reports the torn bytes without raising.
        summary = inspect_ledger(path)
        assert summary["torn_tail_bytes"] > 0
        assert summary["spent_epsilon"] == 0.1
        # The next locked open repairs the tail in place.
        recovered = open_ledger(path, fresh_accountant("pure"))
        assert states_equal(recovered._ledger_state(), live)
        recovered.close()
        assert inspect_ledger(path)["torn_tail_bytes"] == 0
        assert not path.read_bytes().endswith(b"truncated")

    def test_missing_meta_header_raises(self, tmp_path):
        path = tmp_path / "budget.journal"
        store = JournalStore(path)
        with store.transact():
            store.append({"op": "commit", "txn": "x"})
        with pytest.raises(LedgerCorruptError):
            open_ledger(path, fresh_accountant("pure"))


@pytest.mark.parametrize("backend", BACKENDS)
class TestContention:
    def test_held_lock_raises_busy_after_bounded_retry(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        open_ledger(path, fresh_accountant("pure")).close()
        retry = RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002)
        holder = open_store(path, retry=retry)
        contender = open_store(path, retry=retry)
        with holder.transact():
            with pytest.raises(LedgerBusyError):
                with contender.transact():
                    pass  # pragma: no cover
        holder.close()
        contender.close()

    def test_lock_released_after_transaction(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        open_ledger(path, fresh_accountant("pure")).close()
        first = open_store(path)
        second = open_store(path)
        with first.transact():
            pass
        with second.transact():
            pass  # must not raise: the first transaction released the lock
        first.close()
        second.close()


# ---------------------------------------------------------------------- #
# Inspection / recovery / CLI
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestInspectRecover:
    def test_inspect_summary_fields(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        acct.spend(0.25)
        acct.close()
        summary = inspect_ledger(path)
        assert summary["backend"] == backend
        assert summary["model"] == "pure-dp"
        assert summary["committed"] == 2
        assert summary["costs"] == 2
        assert summary["dangling_intents"] == []
        assert summary["spent_epsilon"] == 0.1 + 0.25
        assert summary["remaining_epsilon"] == 1.0 - (0.1 + 0.25)

    def test_recover_drops_dangling_intent(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        acct.close()
        # A crashed writer's trace: an intent with no commit.
        store = open_store(path)
        with store.transact():
            store.append({"op": "intent", "txn": "dead-beef", "costs": [[0.5, 0.0]]})
        store.close()
        before = inspect_ledger(path)
        assert before["dangling_intents"] == ["dead-beef"]
        assert before["spent_epsilon"] == 0.1  # never replayed
        after = recover_ledger(path)
        assert after["dangling_intents"] == []
        assert after["spent_epsilon"] == 0.1
        # And the compacted ledger still replays identically.
        recovered = open_ledger(path, fresh_accountant("pure"))
        assert recovered.spent_epsilon == 0.1
        recovered.close()

    def test_recover_flattens_rollbacks(self, tmp_path, backend, legacy_rollback):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        acct.spend(0.2)
        legacy_rollback(path)
        acct.close()
        summary = recover_ledger(path)
        assert summary["rolled_back"] == 0  # excised records are gone
        assert summary["spent_epsilon"] == 0.1

    def test_inspect_missing_ledger_raises(self, tmp_path, backend):
        with pytest.raises(LedgerError):
            inspect_ledger(ledger_path(tmp_path, backend))


class TestLedgerCLI:
    def _spend_some(self, path):
        acct = open_ledger(path, fresh_accountant("pure"))
        acct.spend(0.1)
        acct.close()

    def test_inspect_output(self, tmp_path, capsys):
        import io as _io

        path = tmp_path / "budget.journal"
        self._spend_some(path)
        out = _io.StringIO()
        assert cli_main(["ledger", "inspect", "--ledger", str(path)], out=out) == 0
        text = out.getvalue()
        assert "journal backend" in text
        assert "spent_epsilon=0.1" in text

    def test_recover_output(self, tmp_path):
        import io as _io

        path = tmp_path / "budget.db"
        self._spend_some(path)
        out = _io.StringIO()
        assert cli_main(["ledger", "recover", "--ledger", str(path)], out=out) == 0
        assert "recovered" in out.getvalue()

    def test_missing_action_or_path_exit_2(self, tmp_path):
        import io as _io

        out = _io.StringIO()
        assert cli_main(["ledger", "--ledger", "x"], out=out) == 2
        out = _io.StringIO()
        assert cli_main(["ledger", "inspect"], out=out) == 2


# ---------------------------------------------------------------------- #
# Engine integration
# ---------------------------------------------------------------------- #
class TestEngineLedger:
    def _engine(self, path, **kwargs):
        from repro.engine import PrivateQueryEngine

        return PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, seed=0, ledger_path=path, **kwargs
        )

    def test_spends_survive_reopen(self, tmp_path):
        from repro.workloads import wrange

        path = tmp_path / "budget.journal"
        engine = self._engine(path)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        release = engine.execute(plan, epsilon=0.2)
        assert release.metadata["accountant"] == "pure-dp"
        assert release.metadata["realized"] == {"epsilon": 0.2, "delta": 0.0}
        reopened = self._engine(path)
        assert reopened.accountant.spent_epsilon == 0.2

    def test_execute_many_rollback_is_durable(self, tmp_path, monkeypatch):
        from repro.workloads import wrange

        path = tmp_path / "budget.journal"
        engine = self._engine(path)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        engine.execute(plan, epsilon=0.1)

        def explode(*args, **kwargs):
            raise RuntimeError("mid-batch failure")

        monkeypatch.setattr(engine, "_produce_batch", explode, raising=True)
        with pytest.raises(RuntimeError):
            engine.execute_many([(plan, 0.2), (plan, 0.2)])
        # The batch charge was rolled back live and durably.
        assert engine.accountant.spent_epsilon == 0.1
        assert self._engine(path).accountant.spent_epsilon == 0.1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_unkeyed_batch_journals_nothing(self, tmp_path, monkeypatch, backend):
        from repro.workloads import wrange

        path = ledger_path(tmp_path, backend)
        engine = self._engine(path)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        engine.execute(plan, epsilon=0.1)
        store = open_store(path)
        before, _ = store.scan()

        def explode(*args, **kwargs):
            raise RuntimeError("mid-batch failure")

        monkeypatch.setattr(engine, "_produce_batch", explode, raising=True)
        with pytest.raises(RuntimeError):
            engine.execute_many([(plan, 0.2), (plan, 0.2)])
        # Nothing was charged, so nothing reached the stream: no intent,
        # no commit, no rollback record.
        after, _ = store.scan()
        store.close()
        assert after == before
        assert engine.accountant.spent_epsilon == 0.1
