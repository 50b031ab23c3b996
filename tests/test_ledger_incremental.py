"""Incremental ledger sync + checkpoint compaction (PR 7 satellite).

The load-bearing claims:

* a warm handle's sync is **O(new records)** — the store-level
  ``scan_new`` resumes from a verified tail cursor instead of re-reading
  the stream — yet the mirrored state stays **bit-identical** to a cold
  full replay after every operation (spends, batches, legacy rollback
  records, resets, cross-handle interleavings);
* the cursor is a hint, never an assumption: compaction or truncation by
  another process fails its verification and forces a full rescan;
* checkpoint **compaction** (``compact_every``) bounds the stream to the
  live transactions without perturbing the replayed state, and a
  checkpoint failure never fails the spend that triggered it;
* after an ambiguous write failure the handle drops its cursor and the
  next transaction re-verifies the stream end to end, so a durable-but-
  rolled-back-in-memory commit is recovered, not silently skipped;
* a journal transaction reads only the bytes past its verified cursor:
  the records it decodes and the bytes it reads do not grow with the
  journal, while a foreign torn tail is still repaired, a foreign
  compaction still forces a full verified parse, and tampered history is
  still reported by every whole-stream reader.
"""

import numpy as np
import pytest

from repro.exceptions import LedgerCorruptError, LedgerError, PrivacyBudgetError
from repro.privacy import ledger as ledger_module
from repro.privacy.accountant import make_accountant
from repro.privacy.ledger import (
    JournalStore,
    inspect_ledger,
    ledger_health,
    open_ledger,
    open_store,
    recover_ledger,
)
from repro.testing.faults import FailPoint, InjectedFault

BACKENDS = ("journal", "sqlite")

MODELS = {
    "pure": dict(total=4.0, total_delta=0.0, costs=[(0.1, 0.0), (0.25, 0.0), (0.05, 0.0)]),
    "basic": dict(total=4.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 2e-7), (0.05, 0.0)]),
    "rdp": dict(total=4.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 1e-7), (0.05, 1e-7)]),
}


def ledger_path(tmp_path, backend):
    return tmp_path / ("budget.db" if backend == "sqlite" else "budget.journal")


def fresh_accountant(model="basic"):
    spec = MODELS[model]
    return make_accountant(spec["total"], spec["total_delta"], model=model)


def states_equal(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) and all(
            states_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    return left == right


def cold_replay_state(path, model="basic"):
    """The state a restarted process rebuilds by full replay."""
    acct = open_ledger(path, fresh_accountant(model))
    try:
        return acct._ledger_state()
    finally:
        acct.close()


def assert_matches_cold_replay(acct, path, model="basic"):
    assert states_equal(acct._ledger_state(), cold_replay_state(path, model))


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FailPoint.clear()
    yield
    FailPoint.clear()


# ---------------------------------------------------------------------- #
# Store-level scan_new
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestScanNew:
    def test_resumes_after_full_scan(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        reader = open_store(path, backend=backend)
        records, _, resumed = reader.scan_new()
        assert not resumed  # cold: no cursor yet
        assert [r["op"] for r in records] == ["meta", "intent", "commit"]
        records, _, resumed = reader.scan_new()
        assert resumed and records == []
        writer.spend(0.2)
        records, _, resumed = reader.scan_new()
        assert resumed
        assert [r["op"] for r in records] == ["intent", "commit"]
        writer.close()
        reader.close()

    def test_prefix_preserving_compaction_resumes(self, tmp_path, backend):
        """A checkpoint that only drops records *after* the cursor leaves
        the prefix byte-identical (same payloads, same seq, same crc), so
        resuming from the verified cursor is still exact."""
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        for _ in range(4):
            writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()  # establish the cursor at the tail
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.1)
        compactor.close()
        records, _, resumed = reader.scan_new()
        assert resumed  # prefix unchanged: the cursor verified
        assert [r["op"] for r in records] == ["intent", "commit"]
        writer.close()
        reader.close()

    def test_rewrite_under_cursor_forces_full_rescan(
        self, tmp_path, backend, legacy_rollback
    ):
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        for _ in range(3):
            writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()  # cursor at the last pre-rollback commit
        # The rollback excises the record under the cursor, and the next
        # checkpoint physically rewrites the stream without it: the
        # cursor's verification must fail and force a full rescan.
        legacy_rollback(path, slice(-3, None))
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.05)
        compactor.close()
        records, _, resumed = reader.scan_new()
        assert not resumed  # cursor failed verification -> full stream
        assert records[0]["op"] == "meta"
        assert sum(1 for r in records if r["op"] == "commit") == 2
        writer.close()
        reader.close()

    def test_replaced_file_forces_full_rescan(self, tmp_path, backend):
        if backend == "sqlite":
            pytest.skip(
                "deleting a sqlite db under an open connection keeps the "
                "old inode visible — operator error, not a sync path"
            )
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()
        writer.close()
        path.unlink()  # losing the file outright must cold-start
        fresh = open_ledger(path, fresh_accountant())
        fresh.spend(0.3)
        fresh.close()
        records, _, resumed = reader.scan_new()
        assert not resumed
        assert [r["op"] for r in records] == ["meta", "intent", "commit"]
        reader.close()


# ---------------------------------------------------------------------- #
# Warm-handle sync == cold full replay, bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", sorted(MODELS))
class TestBitIdentity:
    def test_spend_stream(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        for eps, delta in MODELS[model]["costs"]:
            acct.spend(eps, delta)
        acct.spend_many(MODELS[model]["costs"])
        assert_matches_cold_replay(acct, path, model)
        acct.close()

    def test_rollback_and_reset(self, tmp_path, backend, model, legacy_rollback):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        acct.spend(*MODELS[model]["costs"][0])
        acct.spend_many(MODELS[model]["costs"])
        legacy_rollback(path)
        acct.sync()  # folds the rollback record incrementally
        assert_matches_cold_replay(acct, path, model)
        acct.spend(*MODELS[model]["costs"][1])
        assert_matches_cold_replay(acct, path, model)
        acct.reset()
        assert_matches_cold_replay(acct, path, model)
        acct.close()

    def test_two_warm_handles_interleaved(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        a = open_ledger(path, fresh_accountant(model))
        b = open_ledger(path, fresh_accountant(model))
        costs = MODELS[model]["costs"]
        for i, (eps, delta) in enumerate(costs * 2):
            (a if i % 2 == 0 else b).spend(eps, delta)
        a.sync()
        b.sync()
        assert states_equal(a._ledger_state(), b._ledger_state())
        assert_matches_cold_replay(a, path, model)
        a.close()
        b.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncrementalNotReplay:
    def test_warm_sync_consumes_only_new_records(self, tmp_path, backend):
        """The whole point: a warm handle's sync must resume, not replay."""
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        other = open_ledger(path, fresh_accountant())
        for _ in range(10):
            other.spend(0.05)
        seen = []
        original = acct._store.scan_new

        def spying_scan_new():
            result = original()
            seen.append((len(result[0]), result[2]))
            return result

        acct._store.scan_new = spying_scan_new
        acct.spend(0.1)
        acct._store.scan_new = original
        # One sync, resumed, exactly the 20 interim records — not the 23
        # a full replay would re-read.
        assert seen == [(20, True)]
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()

    def test_exact_exhaustion_through_warm_handle(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        other = open_ledger(path, fresh_accountant())
        total = MODELS["basic"]["total"]
        for _ in range(7):
            other.spend(total / 8)
        acct.spend(total / 8)  # the warm handle lands the exact last nickel
        assert acct.remaining_epsilon == 0.0
        with pytest.raises(PrivacyBudgetError):
            other.spend(total / 8)
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()


# ---------------------------------------------------------------------- #
# Checkpoint compaction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointCompaction:
    def test_bounds_stream_and_preserves_state(
        self, tmp_path, backend, legacy_rollback
    ):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(), compact_every=6)
        for i in range(12):
            acct.spend(0.05)
            if i == 7:
                legacy_rollback(path, slice(-4, None))
        # 12 spends; the rollback record names spends 4-7 -> 8 live
        # transactions. The stream holds at most
        # meta + intent/commit per live txn + the records appended since
        # the last checkpoint fired.
        info = inspect_ledger(path)
        assert info["committed"] == 8
        assert info["records"] <= 1 + 2 * 8 + 2
        assert info["rolled_back"] == 0  # compaction dropped the history
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_disabled_by_default(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        for _ in range(10):
            acct.spend(0.05)
        assert inspect_ledger(path)["records"] == 1 + 2 * 10
        acct.close()

    def test_invalid_compact_every_raises(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        with pytest.raises(LedgerError, match="compact_every"):
            open_ledger(path, fresh_accountant(), compact_every=0)

    def test_checkpoint_survives_other_handles(self, tmp_path, backend):
        """A compaction must not lose spends other processes committed."""
        path = ledger_path(tmp_path, backend)
        compacting = open_ledger(path, fresh_accountant(), compact_every=4)
        plain = open_ledger(path, fresh_accountant())
        for _ in range(6):
            plain.spend(0.1)
            compacting.spend(0.05)
        compacting.sync()
        plain.sync()
        assert states_equal(compacting._ledger_state(), plain._ledger_state())
        assert_matches_cold_replay(compacting, path)
        assert inspect_ledger(path)["committed"] == 12
        compacting.close()
        plain.close()

class TestCheckpointFailure:
    def test_journal_checkpoint_failure_never_fails_the_spend(self, tmp_path):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant(), compact_every=4)
        for _ in range(2):
            acct.spend(0.05)
        FailPoint.error_at("journal.compact.before_replace")
        acct.spend(0.05)  # trips the threshold; checkpoint fails quietly
        FailPoint.clear()
        assert acct.spent_epsilon == pytest.approx(0.15)
        assert inspect_ledger(path)["committed"] == 3
        assert_matches_cold_replay(acct, path)
        acct.spend(0.05)  # next spend retries the checkpoint and succeeds
        assert inspect_ledger(path)["records"] == 1 + 2 * 4
        assert_matches_cold_replay(acct, path)
        acct.close()


# ---------------------------------------------------------------------- #
# Dirty-handle recovery (ambiguous write failures)
# ---------------------------------------------------------------------- #
class TestDirtyResync:
    def test_durable_commit_rolled_back_in_memory_is_recovered(self, tmp_path):
        """If the failure lands *after* both records hit the disk, the
        spend is durable even though the handle rolled it back in memory.
        The dirty flag must force the next sync to rediscover it —
        otherwise the handle undercounts and can overspend."""
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.25)
        FailPoint.error_at("ledger.commit.after_append")
        with pytest.raises(InjectedFault):
            acct.spend(0.5)
        FailPoint.clear()
        # In-memory: rolled back (the spend never returned).
        assert acct._inner.spent_epsilon == pytest.approx(0.25)
        # On disk: durable. The next sync must pick it up.
        acct.sync()
        assert acct.spent_epsilon == pytest.approx(0.75)
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_failed_append_leaves_handle_consistent(self, tmp_path):
        """Failure *before* anything is written: nothing durable, and the
        handle must keep serving with correct state."""
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.25)
        FailPoint.error_at("ledger.intent.before_append")
        with pytest.raises(InjectedFault):
            acct.spend(0.5)
        FailPoint.clear()
        acct.spend(0.1)
        assert acct.spent_epsilon == pytest.approx(0.35)
        assert_matches_cold_replay(acct, path)
        acct.close()


# ---------------------------------------------------------------------- #
# Journal tail reads: a transaction's work does not grow with the journal
# ---------------------------------------------------------------------- #
RESULT = {"values": [0.5] * 8}


def produce(positions, realized):
    return [RESULT] * len(positions)


class ReadCounter:
    """Counts ``_decode_record`` calls and the offsets and bytes of every
    journal read while installed."""

    def __init__(self, monkeypatch):
        self.decodes = 0
        self.reads = []  # (offset, bytes) per read
        decode = ledger_module._decode_record
        read_from = JournalStore._read_from

        def counting_decode(text, expected_seq):
            self.decodes += 1
            return decode(text, expected_seq)

        def counting_read(store, offset):
            data = read_from(store, offset)
            self.reads.append((offset, 0 if data is None else len(data)))
            return data

        monkeypatch.setattr(ledger_module, "_decode_record", counting_decode)
        monkeypatch.setattr(JournalStore, "_read_from", counting_read)

    @property
    def bytes_read(self):
        return sum(size for _, size in self.reads)


class TestTransactionAgeIndependence:
    def measure(self, tmp_path, monkeypatch, batches):
        """One keyed spend on a journal after ``batches`` prior keyed
        batches, with another writer's batch in between."""
        path = tmp_path / f"aged-{batches}.journal"
        acct = open_ledger(path, fresh_accountant())
        other = open_ledger(path, fresh_accountant())
        for index in range(batches):
            acct.spend_keyed([((0.001, 0.0), f"k{index}")], produce)
        other.spend_keyed([((0.001, 0.0), "foreign")], produce)
        with monkeypatch.context() as patch:
            counter = ReadCounter(patch)
            acct.spend_keyed([((0.001, 0.0), "fresh")], produce)
        assert acct.spent_epsilon == pytest.approx(0.001 * (batches + 2))
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()
        return counter

    def test_keyed_spend_cost_is_independent_of_journal_age(
        self, tmp_path, monkeypatch
    ):
        young = self.measure(tmp_path, monkeypatch, 10)
        old = self.measure(tmp_path, monkeypatch, 500)
        # The sync decodes the other writer's intent and commit, and
        # nothing else; the repair only looks for the last newline.
        assert young.decodes == old.decodes == 2
        assert len(young.reads) == len(old.reads) == 2
        # Each read covers the cursor record and the two foreign records;
        # the only bytes that differ are the older journal's wider
        # sequence numbers (1001-1003 against 21-23).
        widening = 3 * (len("1001") - len("21"))
        assert old.bytes_read - young.bytes_read == len(old.reads) * widening


class TestOpenDecodesOnce:
    @pytest.mark.parametrize("torn", [False, True])
    def test_open_decodes_each_record_once(self, tmp_path, monkeypatch, torn):
        path = ledger_path(tmp_path, "journal")
        writer = open_ledger(path, fresh_accountant())
        for index in range(50):
            writer.spend_keyed([((0.001, 0.0), f"k{index}")], produce)
        writer.close()
        if torn:
            # A writer died halfway through its next record.
            with open(path, "ab") as fh:
                fh.write(b'{"costs":[[0.3,0.0]],"crc":"0123')
        records, _ = open_store(path).scan()
        assert len(records) == 101
        with monkeypatch.context() as patch:
            counter = ReadCounter(patch)
            acct = open_ledger(path, fresh_accountant())
        # One whole-file read that verifies every checksum, then the
        # transaction's tail reads from the cursor.
        assert counter.decodes == len(records)
        assert [offset == 0 for offset, _ in counter.reads] == [True, False, False]
        assert acct.spent_epsilon == pytest.approx(0.05)
        assert open_store(path).scan() == (records, 0)
        assert_matches_cold_replay(acct, path)
        acct.close()


class TestJournalTailRead:
    def test_foreign_torn_tail_is_truncated_and_seq_continues(
        self, tmp_path, monkeypatch
    ):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.1)
        other = open_ledger(path, fresh_accountant())
        other.spend(0.2)
        # Another writer dies halfway through its next record.
        with open(path, "ab") as fh:
            fh.write(b'{"costs":[[0.3,0.0]],"crc":"0123')
        with monkeypatch.context() as patch:
            counter = ReadCounter(patch)
            acct.spend(0.05)
        # Only tail reads from the cursor, never the whole file.
        assert all(offset > 0 for offset, _ in counter.reads)
        records, torn = open_store(path).scan()
        assert torn == 0
        assert [record["seq"] for record in records] == list(range(1, 8))
        assert acct.spent_epsilon == pytest.approx(0.35)
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()

    def test_foreign_compaction_forces_full_verified_parse(
        self, tmp_path, monkeypatch, legacy_rollback
    ):
        path = ledger_path(tmp_path, "journal")
        other = open_ledger(path, fresh_accountant())
        other.spend(0.1)
        other.spend(0.2)
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.05)  # cursor on acct's own commit
        # A rollback record excises the other writer's second spend and a
        # checkpoint rewrites the stream without it: acct's cursor record
        # moves.
        legacy_rollback(path, slice(1, 2))
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.01)
        compactor.close()
        records, _ = open_store(path).scan()
        with monkeypatch.context() as patch:
            counter = ReadCounter(patch)
            acct.spend(0.02)
        # The repair and the sync each try the cursor, find it moved, and
        # fall back to reading the whole stream; only the sync decodes
        # and verifies every record.
        assert [offset == 0 for offset, _ in counter.reads] == [
            False, True, False, True
        ]
        assert counter.decodes == len(records)
        assert acct.spent_epsilon == pytest.approx(0.1 + 0.05 + 0.01 + 0.02)
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()

    def test_write_failure_forces_full_parse_in_repair(self, tmp_path, monkeypatch):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.25)
        FailPoint.error_at("ledger.commit.after_append")
        with pytest.raises(InjectedFault):
            acct.spend(0.5)
        FailPoint.clear()
        assert acct.store._tail_cursor is None  # dropped before any repair
        size = path.stat().st_size
        with monkeypatch.context() as patch:
            counter = ReadCounter(patch)
            acct.spend(0.1)
        # The repair is the transaction's first read: the whole file.
        assert counter.reads[0] == (0, size)
        assert acct.spent_epsilon == pytest.approx(0.85)
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_history_tampered_under_open_handle_is_reported(self, tmp_path):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        for _ in range(3):
            acct.spend(0.1)
        lines = path.read_bytes().split(b"\n")
        assert b'"op":"intent"' in lines[3]
        lines[3] = lines[3].replace(b"0.1", b"0.2", 1)
        path.write_bytes(b"\n".join(lines))
        # The open handle's transactions read only past its cursor, so
        # they do not see the edit; every whole-stream reader does.
        acct.spend(0.1)
        with pytest.raises(LedgerCorruptError):
            open_ledger(path, fresh_accountant())
        with pytest.raises(LedgerCorruptError):
            inspect_ledger(path)
        with pytest.raises(LedgerCorruptError):
            recover_ledger(path)
        assert ledger_health(path)["ok"] is False
        acct.close()
