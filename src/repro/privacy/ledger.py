"""Durable, crash-safe, multi-process budget ledger.

Every privacy guarantee this package makes is only as strong as its budget
accounting, yet the accountants of :mod:`repro.privacy.accountant` live in
process memory: a crash mid-batch loses the ledger, a restart silently
resets spent epsilon to zero, and two engine processes sharing a plan
directory can each spend the full budget. This module makes *any*
:class:`~repro.privacy.accountant.BudgetAccountant` durable and safe
against both failure modes:

* :class:`LedgerStore` is the storage protocol — an ordered, checksummed
  stream of records plus a cross-process exclusive transaction — with two
  backends: :class:`JournalStore` (append-only JSONL journal: every record
  is fsynced, a torn tail from a crashed writer is detected by checksum
  and repaired, compaction rotates via ``os.replace``) and
  :class:`SQLiteStore` (WAL-mode SQLite, ``BEGIN IMMEDIATE``
  transactions, ``synchronous=FULL``). A transaction reads only the
  records past the store's verified tail cursor, so its cost does not
  grow with the ledger; the whole stream's checksums are verified when a
  ledger is opened, by :meth:`LedgerStore.scan` (``inspect_ledger``,
  ``ledger_health``, ``recover_ledger``) and whenever the cursor is
  missing or fails its check.
* :class:`DurableAccountant` wraps an in-memory accountant with
  **write-ahead intent/commit records**: a spend is admitted under the
  store's exclusive lock, journaled as an ``intent`` (the validated
  costs) followed by a ``commit`` marker, and only a committed intent is
  replayed on open. A crash at *any* instant therefore leaves the spend
  either fully committed or fully absent — never partial — which the
  fault-injection matrix in ``tests/test_ledger_faults.py`` asserts for
  every registered failpoint on the write path
  (:func:`repro.testing.faults.ledger_write_failpoints`).

**One transaction, three hooks.** The spend transaction itself is
:class:`~repro.privacy.accountant.BudgetAccountant`'s, shared with the
in-memory accountants; :class:`DurableAccountant` plugs the ledger in
through ``_transaction()`` (the store's lock, sync and meta check, then
the checkpoint), ``_lookup(key)`` (the fold's dedup index) and
``_record(validated, keys, payloads)`` (append intent + commit, mirror
them). A failure after admission, the store's own commit included, rolls
the mirror back and drops the tail cursor, so the next sync re-reads the
stream.

**Bit-identical replay.** The journal stores *costs*, not states: replay
rebuilds the ledger by pushing each committed cost through the inner
accountant's ``_commit_state`` hook in commit order — exactly the
arithmetic the original ``spend`` performed. Scalar sums and RDP curves
alike reproduce the in-memory state to the last bit (float addition is not
associative, so order preservation is load-bearing), and the per-release
``realized`` audit trail of a recovered engine matches the uninterrupted
run exactly.

**Multi-process atomicity.** The spend path — sync from the store, check
admission, append intent + commit — runs under the store's exclusive
cross-process lock (``flock`` for the journal, ``BEGIN IMMEDIATE`` for
SQLite), so N processes draining one budget serialize their admissions
against the shared ledger and can never jointly overspend; exact
exhaustion (``spent == total``, float-dust clamped) behaves precisely as
it does for a single in-memory accountant. Lock acquisition is bounded:
after the retry-with-backoff policy is exhausted,
:class:`repro.exceptions.LedgerBusyError` is raised rather than blocking
forever.

**One reader.** Opening a ledger, every transaction's sync, checkpoint
compaction, :func:`inspect_ledger`, :func:`recover_ledger` and
:func:`ledger_health` all read the record stream through one fold
(``_LedgerFold``), the only code that interprets a record's ``op``.
Ledgers written by earlier versions may hold ``rollback`` records (a
durable undo naming transactions to excise from replay); they are read
for compatibility and no longer written — a spend whose release fails
journals nothing, so there is nothing to undo.

**Exactly-once releases.** A durable ``spend_keyed`` extends the
intent/commit protocol into a durable *result journal*: the intent
record carries the caller's idempotency ``keys`` and the commit record
stores the released ``results`` (checksummed like every record), so a
retried key — in-flight, after a SIGKILL, or after a full restart —
returns the stored release with **zero additional charge**. The dedup
check runs *inside* the exclusive spend transaction, so two processes
racing one key serialize: one charges, the other replays. A dangling
keyed intent (a writer killed between intent and commit) reconciles
definitively at recovery time: the charge never committed, so the key is
freed for retry — a keyed spend always lands on exactly
*charged-with-replayable-result* or *uncharged-with-free-key*, never a
third state.

**Record shapes (format 3).** Every record is one canonical JSON object
(sorted keys, no spaces) with its ``seq`` and ``crc``; both backends share
this codec. ``meta``: ``{"op": "meta", "format": 3, "model",
"total_epsilon", "total_delta", "alphas"}``. ``intent``: ``{"op":
"intent", "txn", "costs": [cost record, ...], "keys": [key or null,
...]}`` (``keys`` only when keyed). ``commit``: ``{"op": "commit",
"txn"}``, plus for a keyed transaction ``"heads"`` and ``"results"``:

* ``heads`` — each distinct plan-level field set of the transaction's
  releases once (the engine's: ``mechanism``, ``workload_key``,
  ``plan_key``, ``shape``, ``accountant``, ``expected_error``,
  ``postprocess``);
* ``results`` — aligned with ``keys``: ``null`` where there is no stored
  result, ``[head index, base64 of the little-endian float64 answers,
  realized epsilon, realized delta]`` for a release (bit-exact by
  construction; the cost and (epsilon, delta) are the intent's at the
  same position, not repeated), ``{"value": ...}`` for any other JSON
  result a ``spend_keyed`` caller stored.

The dedup index keeps these encoded entries and decodes one only when a
key hits it. Formats 1 and 2 (results as JSON payloads, without
``heads``) replay bit-identically and their results still dedup; a
format-2 ledger may carry format-3 commits appended later. Only format 3
is written — by spends, checkpoint compaction and :func:`recover_ledger`,
whose rewrite stamps the meta header ``format: 3`` and carries a legacy
JSON result over as a ``{"value": ...}`` entry.

Entry points: ``PrivateQueryEngine(..., ledger_path=...)`` wraps the
engine's accountant automatically; :func:`open_ledger` does the same for a
bare accountant; :func:`inspect_ledger` / :func:`recover_ledger` back the
CLI's ``ledger inspect`` / ``ledger recover`` targets.
"""

from __future__ import annotations

import abc
import base64
import hashlib
import json
import logging
import os
import sqlite3
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.exceptions import (
    LedgerBusyError,
    LedgerCorruptError,
    LedgerError,
    PrivacyBudgetError,
)
from repro.io.atomic import RetryPolicy, fsync_directory, retry_with_backoff
from repro.privacy.accountant import BudgetAccountant, StoredRelease, make_accountant
from repro.privacy.cost import (
    NoiseCost,
    charged_pair,
    cost_from_record,
    cost_record,
)
from repro.testing.faults import failpoints, fire

try:  # POSIX cross-process file locks; Windows falls back to O_EXCL below.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "LEDGER_FORMAT_VERSION",
    "ACCEPTED_LEDGER_FORMATS",
    "LedgerStore",
    "JournalStore",
    "SQLiteStore",
    "DurableAccountant",
    "open_store",
    "open_ledger",
    "accountant_from_meta",
    "inspect_ledger",
    "ledger_health",
    "recover_ledger",
]

logger = logging.getLogger(__name__)

# Format 3 (compact results): a keyed commit stores each release as the
# base64 of its float64 bytes plus what differs from the intent's cost
# record, with the plan-level fields once per commit (see the module
# docstring). Format 2 (typed costs) let an intent's "costs" mix the
# legacy [epsilon, delta] lists with NoiseCost record dicts; format 1
# (scalar pairs only) is a strict subset. Both still replay, through the
# same cost shim (repro.privacy.cost.cost_from_record) bit-identically,
# and their commits' JSON results still dedup. Only format 3 is written.
LEDGER_FORMAT_VERSION = 3

#: Meta-header formats this reader replays. Unknown *fields* in the meta
#: header only warn (forward compatibility); an unknown *format number* is
#: a genuinely incompatible stream and still refuses.
ACCEPTED_LEDGER_FORMATS = (1, 2, 3)

#: Byte layout of a format-3 stored release vector.
_VALUES_DTYPE = np.dtype("<f8")

#: Path suffixes routed to the SQLite backend by ``backend="auto"``.
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


# ---------------------------------------------------------------------- #
# Record encoding (shared by both backends)
# ---------------------------------------------------------------------- #
def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _record_crc(record):
    """SHA-1 of the canonical JSON of ``record`` minus its ``crc`` field.

    ``json.dumps`` renders floats with ``repr`` (shortest round-trip), so
    the checksum — and replay — see exactly the bits the writer spent.
    """
    body = {key: value for key, value in record.items() if key != "crc"}
    return hashlib.sha1(_canonical_json(body).encode("utf-8")).hexdigest()


def _encode_record(record):
    """Return ``(line, crc)``: the canonical JSON of ``record`` with its
    checksum, and that checksum.

    The record is serialised once, as the members sorting before and after
    ``"crc"``: the checksum is taken over their join (exactly
    :func:`_record_crc`'s body), and the line puts the ``crc`` member
    between them — byte-identical to dumping the checksummed record."""
    head = _canonical_json({k: v for k, v in record.items() if k < "crc"})[1:-1]
    tail = _canonical_json({k: v for k, v in record.items() if k > "crc"})[1:-1]
    body = ",".join(part for part in (head, tail) if part)
    crc = hashlib.sha1(("{" + body + "}").encode("utf-8")).hexdigest()
    line = ",".join(part for part in (head, f'"crc":"{crc}"', tail) if part)
    return "{" + line + "}", crc


def _decode_record(text, expected_seq):
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise LedgerCorruptError(f"undecodable ledger record: {exc}") from exc
    if not isinstance(record, dict) or "crc" not in record or "seq" not in record:
        raise LedgerCorruptError("ledger record missing seq/crc fields")
    if record["crc"] != _record_crc(record):
        raise LedgerCorruptError(
            f"ledger record {record.get('seq')} failed its checksum"
        )
    if expected_seq is not None and record["seq"] != expected_seq:
        raise LedgerCorruptError(
            f"ledger sequence gap: expected record {expected_seq}, "
            f"found {record['seq']}"
        )
    return record


def _txn_id():
    return f"{os.getpid()}-{uuid.uuid4().hex[:12]}"


def _txn_payloads(txn, costs, keys=None, heads=None, entries=None):
    """The ``intent`` and ``commit`` payloads of one transaction: the
    intent holds the costs (and the idempotency ``keys`` of a keyed
    transaction), the commit its encoded results (``heads`` and
    ``entries`` from :func:`_encode_results`)."""
    intent = {"op": "intent", "txn": txn, "costs": [cost_record(c) for c in costs]}
    commit = {"op": "commit", "txn": txn}
    if keys is not None:
        intent["keys"] = keys
        commit["heads"] = heads
        commit["results"] = entries
    return intent, commit


def _encode_results(results):
    """Encode a keyed transaction's stored results for a format-3 commit.

    Returns ``(heads, entries)``: ``heads`` lists each distinct
    :class:`StoredRelease` head once (by identity: the producer shares one
    dict per batch group); ``entries`` is aligned with ``results`` —
    ``null`` where there is no result, ``[head index, base64 of the
    little-endian float64 values, realized epsilon, realized delta]`` for
    a release, ``{"value": result}`` for any other JSON-able result. The
    release's cost is not repeated: it is the intent's cost at the same
    position."""
    heads, slots, entries = [], {}, []
    for result in results:
        if result is None:
            entries.append(None)
        elif isinstance(result, StoredRelease):
            values = result.values
            if values.dtype != np.float64:
                raise LedgerError(
                    f"stored release values must be float64, got {values.dtype}"
                )
            slot = slots.get(id(result.head))
            if slot is None:
                slot = slots[id(result.head)] = len(heads)
                heads.append(result.head)
            encoded = base64.b64encode(values.astype(_VALUES_DTYPE, copy=False).tobytes())
            realized_epsilon, realized_delta = result.realized
            entries.append([
                slot, encoded.decode("ascii"),
                float(realized_epsilon), float(realized_delta),
            ])
        else:
            entries.append({"value": result})
    return heads, entries


def _decode_result(heads, entry, cost):
    """Inverse of :func:`_encode_results` for one entry (``heads`` is
    ``None`` for a format-1/2 commit, whose results are stored verbatim).
    ``cost`` is the intent's cost at the entry's position."""
    if heads is None or entry is None:
        return entry
    try:
        if isinstance(entry, dict):
            return entry["value"]
        slot, encoded, realized_epsilon, realized_delta = entry
        values = np.frombuffer(
            base64.b64decode(encoded, validate=True), dtype=_VALUES_DTYPE
        )
        return StoredRelease(
            values, heads[slot], (realized_epsilon, realized_delta), cost
        )
    except (ValueError, TypeError, IndexError, KeyError) as exc:  # incl. binascii.Error
        raise LedgerCorruptError(f"undecodable stored result: {exc!r}") from exc


def _committed_cost(cost):
    """Normalize a validated cost for the mirror and the journal: typed
    costs stay typed (journaled as record dicts), pairs become plain
    float tuples (journaled as the legacy [epsilon, delta] lists)."""
    if isinstance(cost, NoiseCost):
        return cost
    epsilon, delta = cost
    return (float(epsilon), float(delta))


# ---------------------------------------------------------------------- #
# Storage protocol
# ---------------------------------------------------------------------- #
class LedgerStore(abc.ABC):
    """Ordered, checksummed record stream + cross-process transactions.

    The contract :class:`DurableAccountant` relies on:

    * :meth:`scan` — read every durable record in commit order (safe
      without the lock: a concurrent writer's torn tail is tolerated and
      reported, never misparsed).
    * :meth:`scan_new` — the incremental form: return only the records
      appended since this store instance last read the stream, by
      verifying a backend-specific tail cursor against the stream before
      trusting it (``resumed=False`` signals the cursor could not be
      verified — e.g. another process compacted — and the returned
      records are the **whole** stream again, verified end to end).
      Spends are O(new records) because of this method; the base
      implementation degrades to a full :meth:`scan`.
    * :meth:`transact` — exclusive cross-process critical section; all
      :meth:`append` / :meth:`compact` calls happen inside one. For the
      journal this is an ``flock`` plus a torn-tail repair that reads
      only the bytes past the verified cursor (the whole file only when
      there is no verified cursor); for SQLite a ``BEGIN IMMEDIATE``
      transaction whose appends become durable atomically at commit.
      Whole-stream checksum verification is :meth:`scan`'s job. Raises
      :class:`~repro.exceptions.LedgerBusyError` when the bounded
      retry-with-backoff policy cannot acquire the lock.
    * :meth:`append` — add one record (``seq`` and ``crc`` are assigned
      by the store). ``point`` names the failpoint prefix fired around
      the write (``{point}.before_append`` / ``.torn`` /
      ``.after_append``) so the fault matrix can kill a writer at every
      instant of the protocol.
    * :meth:`compact` — atomically replace the whole stream with fresh
      records (recovery/rotation).
    """

    backend = "store"

    @abc.abstractmethod
    def scan(self):
        """Return ``(records, torn_tail_bytes)`` — all durable records in
        order, plus the size of any trailing torn write (journal only)."""

    def scan_new(self):
        """Return ``(new_records, torn_tail_bytes, resumed)``.

        ``resumed=True``: ``new_records`` holds only the records appended
        since this instance last read (or wrote) the stream, in order.
        ``resumed=False``: the tail position could not be verified (first
        read, or the stream was rewritten underneath us) and
        ``new_records`` is the complete stream. Backends without an
        incremental path fall back to a full scan.
        """
        records, torn = self.scan()
        return records, torn, False

    def invalidate_cursor(self):
        """Forget the incremental-scan position (if the backend keeps
        one): the next transaction and :meth:`scan_new` read and verify
        the whole stream. Called right after an ambiguous write failure,
        when the caller's rolled-back mirror can no longer assume the
        cursor and the mirror agree on what has been applied — the cursor
        may sit past durable records the mirror never applied."""
        self._tail_cursor = None

    @abc.abstractmethod
    def transact(self):
        """Context manager: exclusive cross-process critical section. Its
        entry reads only what lies past the verified tail cursor, never
        the whole stream; whole-stream verification is :meth:`scan`'s."""

    @abc.abstractmethod
    def append(self, payload, point=None):
        """Durably append one record (inside :meth:`transact` only)."""

    @abc.abstractmethod
    def compact(self, payloads):
        """Atomically rewrite the stream as ``payloads`` (seq renumbered,
        checksums recomputed); inside :meth:`transact` only."""

    def close(self):
        """Release any OS resources. Idempotent."""


class JournalStore(LedgerStore):
    """Append-only checksummed JSONL journal with fsync durability.

    One record per line; every append is flushed and fsynced before the
    spend is considered committed. A crashed writer can leave at most a
    *torn tail* — a final line without its newline — which the checksummed
    format detects unambiguously (our writes are single ``line + "\\n"``
    buffers, and the JSON contains no raw newline, so any partial write
    lacks the terminator). The tail is truncated on the next locked
    transaction; corruption anywhere *before* the tail (a checksum
    mismatch or sequence gap) is unrepairable tampering/rot and raises
    :class:`~repro.exceptions.LedgerCorruptError`.

    **Tail reads.** The store keeps a cursor on the last complete record
    it has seen: its offset, ``seq`` and exact bytes. A transaction and
    :meth:`scan_new` seek to the cursor, read the cursor record plus the
    bytes after it, check that the record is byte-for-byte unchanged, and
    parse and checksum only the records after it — so their cost does not
    grow with the journal. Without a cursor (first open, or after an
    ambiguous write failure invalidated it) or when it fails its check
    (another process compacted or replaced the file), the whole stream is
    read and verified from its first record. :meth:`scan` always verifies
    the whole stream, so opening a ledger, ``inspect_ledger``,
    ``ledger_health`` and ``recover_ledger`` check every record's checksum.

    The cross-process lock is ``flock`` on a sibling ``<name>.lock`` file,
    acquired non-blocking under the store's :class:`RetryPolicy`.
    """

    backend = "journal"

    def __init__(self, path, retry=None):
        self.path = Path(path)
        self.retry = retry or RetryPolicy()
        self._last_seq = 0
        self._lock_fd = None
        # (start_offset, seq, line_bytes) of the last complete record this
        # instance has seen — the tail cursor. Always compared with the
        # file's bytes before being trusted, so it is a hint, never an
        # assumption.
        self._tail_cursor = None

    # -- locking ------------------------------------------------------- #
    @property
    def _lock_path(self):
        return self.path.with_name(self.path.name + ".lock")

    def _try_lock(self, fd):
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        else:  # pragma: no cover - non-POSIX fallback
            probe = self.path.with_name(self.path.name + ".lockdir")
            os.mkdir(probe)
            self._fallback_probe = probe

    def _unlock(self, fd):
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - unlock best effort
                pass
        else:  # pragma: no cover - non-POSIX fallback
            probe = getattr(self, "_fallback_probe", None)
            if probe is not None:
                os.rmdir(probe)
                self._fallback_probe = None

    @contextmanager
    def transact(self):
        if self._lock_fd is not None:
            raise LedgerError("JournalStore.transact does not nest")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self._lock_path), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            try:
                retry_with_backoff(
                    lambda: self._try_lock(fd), self.retry, retry_on=(OSError,)
                )
            except OSError as exc:
                raise LedgerBusyError(
                    f"could not lock budget journal {self.path} after "
                    f"{self.retry.attempts} attempts; another process holds it"
                ) from exc
            self._lock_fd = fd
            self._repair_torn_tail()
            yield self
        finally:
            self._lock_fd = None
            self._unlock(fd)
            os.close(fd)

    # -- reading ------------------------------------------------------- #
    def _read_from(self, offset):
        """The journal's bytes from ``offset`` to its end (``None`` when the
        file does not exist). Every read of the stream goes through here."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                return fh.read()
        except FileNotFoundError:
            return None

    @staticmethod
    def _parse(data, base=0, first_seq=1):
        """Parse the records in ``data`` — the stream's bytes from offset
        ``base`` — expecting sequence numbers from ``first_seq``. Returns
        ``(records, valid_end, torn_tail_bytes, cursor)``: ``valid_end`` is
        the absolute offset after the last complete record, ``cursor`` the
        tail cursor on that record (``None`` when none was parsed)."""
        records = []
        offset = 0
        line_start = None
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                # Incomplete final line: the unambiguous signature of a
                # torn write (complete writes always end in the newline).
                break
            line = data[offset:newline].decode("utf-8", errors="replace")
            records.append(_decode_record(line, first_seq + len(records)))
            line_start = offset
            offset = newline + 1
        cursor = None
        if records:
            cursor = (base + line_start, records[-1]["seq"], data[line_start:offset])
        return records, base + offset, len(data) - offset, cursor

    def _tail_bytes(self):
        """The stream's bytes past the cursor record when the cursor
        verifies, else the whole stream: ``(data, base, seq, resumed)``,
        ``base`` being the absolute offset of ``data`` and ``seq`` the
        sequence number of the record before it (0 for the whole stream)."""
        if self._tail_cursor is not None:
            start, seq, line = self._tail_cursor
            data = self._read_from(start)
            if data is not None and data.startswith(line):
                return data[len(line):], start + len(line), seq, True
        return self._read_from(0) or b"", 0, 0, False

    def _read_tail(self):
        """Read and parse the stream past the cursor (see the class
        docstring); sets the append numbering. Returns ``(records,
        valid_end, torn_tail_bytes, cursor, resumed)`` — ``resumed=False``
        means the whole stream was read and ``records`` is all of it."""
        data, base, seq, resumed = self._tail_bytes()
        parsed = self._parse(data, base=base, first_seq=seq + 1)
        self._last_seq = seq + len(parsed[0])
        return (*parsed, resumed)

    def scan(self):
        self._tail_cursor = None
        records, torn, _ = self.scan_new()
        return records, torn

    def scan_new(self):
        """Incremental scan: the tail read of the class docstring, moving
        the cursor past the records it returns. A compaction by another
        process rewrites offsets and/or content, failing the cursor check
        and forcing a full verified scan."""
        records, _, torn, cursor, resumed = self._read_tail()
        if cursor is not None or not resumed:
            self._tail_cursor = cursor
        return records, torn, resumed

    def _repair_torn_tail(self):
        """Truncate a torn final record (lock held), reading only the bytes
        past the verified cursor — a torn tail can only sit after the last
        newline — or the whole stream when there is no verified cursor.
        The lost bytes were never acknowledged as committed — dropping
        them is the *correct* recovery, not data loss. Nothing is decoded
        here: the torn tail is whatever follows the last newline and the
        append numbering (``_last_seq``) counts the newlines before it.
        Checksum and sequence verification is ``scan_new``'s, which every
        transaction runs under the same lock; the cursor is left alone,
        since it tracks what the *caller* has consumed."""
        data, base, seq, _ = self._tail_bytes()
        complete = data.rfind(b"\n") + 1
        self._last_seq = seq + data.count(b"\n")
        if complete < len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(base + complete)
                fh.flush()
                os.fsync(fh.fileno())

    # -- writing ------------------------------------------------------- #
    def append(self, payload, point=None):
        if self._lock_fd is None:
            raise LedgerError("JournalStore.append requires an open transact()")
        seq = self._last_seq + 1
        text, _ = _encode_record({"seq": seq, **payload})
        line = (text + "\n").encode("utf-8")
        created = not self.path.exists()
        if point is not None:
            fire(f"{point}.before_append")
        with open(self.path, "ab") as fh:
            start = fh.tell()
            if point is not None:
                failpoints.guarded_write(fh, line, f"{point}.torn")
            else:
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            fsync_directory(self.path.parent)
        if point is not None:
            fire(f"{point}.after_append")
        self._last_seq = seq
        self._tail_cursor = (start, seq, line)

    def compact(self, payloads):
        if self._lock_fd is None:
            raise LedgerError("JournalStore.compact requires an open transact()")
        lines = [
            (_encode_record({"seq": index + 1, **payload})[0] + "\n").encode("utf-8")
            for index, payload in enumerate(payloads)
        ]
        staging = self.path.with_name(
            f"{self.path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.compact.tmp"
        )
        try:
            with open(staging, "wb") as fh:
                fh.write(b"".join(lines))
                fh.flush()
                os.fsync(fh.fileno())
            fire("journal.compact.before_replace")
            os.replace(staging, self.path)
            fire("journal.compact.after_replace")
            fsync_directory(self.path.parent)
        finally:
            try:
                staging.unlink(missing_ok=True)
            except OSError:
                pass
        self._last_seq = len(payloads)
        self._tail_cursor = None
        if lines:
            start = sum(len(line) for line in lines[:-1])
            self._tail_cursor = (start, len(lines), lines[-1])


class SQLiteStore(LedgerStore):
    """SQLite-WAL ledger backend.

    Records live in one ``ledger(seq, payload)`` table (payload = the same
    checksummed JSON the journal writes, so both backends share integrity
    checks and replay). Durability and mutual exclusion come from SQLite
    itself: the spend path runs inside ``BEGIN IMMEDIATE`` (a cross-process
    write lock) and becomes durable atomically at ``COMMIT`` under
    ``synchronous=FULL`` — a crash anywhere inside the transaction leaves
    no trace of it. Lock contention surfaces as
    :class:`~repro.exceptions.LedgerBusyError` after the bounded retry
    policy, mirroring the journal backend.
    """

    backend = "sqlite"

    def __init__(self, path, retry=None):
        self.path = Path(path)
        self.retry = retry or RetryPolicy()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # timeout=0: sqlite must not block internally — contention is
        # handled by our own bounded retry loop.
        self._conn = sqlite3.connect(str(self.path), timeout=0.0, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        retry_with_backoff(
            lambda: self._conn.execute(
                "CREATE TABLE IF NOT EXISTS ledger ("
                "seq INTEGER PRIMARY KEY, payload TEXT NOT NULL)"
            ),
            self.retry,
            retry_on=(sqlite3.OperationalError,),
        )
        self._in_txn = False
        self._txn_guarded = False
        # (seq, crc) of the last record this instance has seen; verified
        # by re-reading that row before an incremental scan trusts it.
        self._tail_cursor = None

    @contextmanager
    def transact(self):
        if self._in_txn:
            raise LedgerError("SQLiteStore.transact does not nest")
        try:
            retry_with_backoff(
                lambda: self._conn.execute("BEGIN IMMEDIATE"),
                self.retry,
                retry_on=(sqlite3.OperationalError,),
            )
        except sqlite3.OperationalError as exc:
            raise LedgerBusyError(
                f"could not lock budget ledger {self.path} after "
                f"{self.retry.attempts} attempts; another process holds it"
            ) from exc
        self._in_txn = True
        self._txn_guarded = False
        # The txn failpoints cover the spend protocol's point of no
        # return; fire them only for transactions that wrote guarded
        # (spend-path) records, not for opens/scans, so the crash matrix
        # kills the worker mid-spend rather than mid-open. A failed COMMIT
        # (or its failpoint) rolls back like a failed body: otherwise the
        # connection would stay inside the transaction and every later
        # BEGIN IMMEDIATE would fail.
        try:
            yield self
            if self._txn_guarded:
                fire("sqlite.txn.before_commit")
            self._conn.execute("COMMIT")
        except BaseException:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.OperationalError:  # no transaction left to roll back
                pass
            raise
        finally:
            self._in_txn = False
        if self._txn_guarded:
            fire("sqlite.txn.after_commit")

    def scan(self):
        rows = self._conn.execute(
            "SELECT seq, payload FROM ledger ORDER BY seq"
        ).fetchall()
        records = []
        for index, (seq, payload) in enumerate(rows):
            record = _decode_record(payload, index + 1)
            if record["seq"] != seq:
                raise LedgerCorruptError(
                    f"ledger row {seq} holds a record claiming seq {record['seq']}"
                )
            records.append(record)
        self._tail_cursor = (
            (records[-1]["seq"], records[-1]["crc"]) if records else None
        )
        return records, 0

    def scan_new(self):
        """Incremental scan: fetch only rows past the cursor seq, after
        verifying the cursor row still holds the record it held (a compact
        renumbers from 1, failing the check and forcing a full rescan)."""
        cursor = self._tail_cursor
        if cursor is None:
            records, torn = self.scan()
            return records, torn, False
        seq, crc = cursor
        row = self._conn.execute(
            "SELECT payload FROM ledger WHERE seq = ?", (seq,)
        ).fetchone()
        verified = False
        if row is not None:
            try:
                record = json.loads(row[0])
            except ValueError:
                record = None
            verified = (
                isinstance(record, dict)
                and record.get("seq") == seq
                and record.get("crc") == crc
            )
        if not verified:
            records, torn = self.scan()
            return records, torn, False
        rows = self._conn.execute(
            "SELECT seq, payload FROM ledger WHERE seq > ? ORDER BY seq", (seq,)
        ).fetchall()
        records = []
        for index, (row_seq, payload) in enumerate(rows):
            record = _decode_record(payload, seq + index + 1)
            if record["seq"] != row_seq:
                raise LedgerCorruptError(
                    f"ledger row {row_seq} holds a record claiming seq {record['seq']}"
                )
            records.append(record)
        if records:
            self._tail_cursor = (records[-1]["seq"], records[-1]["crc"])
        return records, 0, True

    def _next_seq(self):
        row = self._conn.execute("SELECT COALESCE(MAX(seq), 0) FROM ledger").fetchone()
        return int(row[0]) + 1

    def append(self, payload, point=None):
        if not self._in_txn:
            raise LedgerError("SQLiteStore.append requires an open transact()")
        record = {"seq": self._next_seq(), **payload}
        if point is not None:
            self._txn_guarded = True
            fire(f"{point}.before_append")
        line, crc = _encode_record(record)
        self._conn.execute(
            "INSERT INTO ledger (seq, payload) VALUES (?, ?)", (record["seq"], line)
        )
        if point is not None:
            fire(f"{point}.after_append")
        self._tail_cursor = (record["seq"], crc)

    def compact(self, payloads):
        if not self._in_txn:
            raise LedgerError("SQLiteStore.compact requires an open transact()")
        self._conn.execute("DELETE FROM ledger")
        self._tail_cursor = None
        for seq, payload in enumerate(payloads, start=1):
            line, crc = _encode_record({"seq": seq, **payload})
            self._conn.execute(
                "INSERT INTO ledger (seq, payload) VALUES (?, ?)", (seq, line)
            )
            self._tail_cursor = (seq, crc)

    def close(self):
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover
            pass


def open_store(path, backend="auto", retry=None):
    """Build the :class:`LedgerStore` for ``path``.

    ``backend="auto"`` routes ``.db``/``.sqlite``/``.sqlite3`` suffixes —
    or an existing file bearing the SQLite magic — to :class:`SQLiteStore`
    and everything else to :class:`JournalStore`.
    """
    path = Path(path)
    if backend == "auto":
        backend = "journal"
        if path.suffix.lower() in _SQLITE_SUFFIXES:
            backend = "sqlite"
        elif path.is_file():
            with open(path, "rb") as fh:
                if fh.read(16).startswith(b"SQLite format 3"):
                    backend = "sqlite"
    if backend == "journal":
        return JournalStore(path, retry=retry)
    if backend == "sqlite":
        return SQLiteStore(path, retry=retry)
    raise LedgerError(
        f"unknown ledger backend {backend!r}; choose 'auto', 'journal' or 'sqlite'"
    )


# ---------------------------------------------------------------------- #
# Replay: the one reader of the record stream
# ---------------------------------------------------------------------- #
class _LedgerFold:
    """The replayed bookkeeping of one record stream, folded record by
    record — the only code that interprets a record's ``op``.

    Holds the ``meta`` header, pending ``intents`` (txn -> ``(costs,
    keys)``), the ``committed`` ``(txn, costs)`` pairs in commit order, the
    result journal (``keyed``: txn -> ``{"keys", "costs", "heads",
    "results"}``, the commit's results as encoded on disk — ``heads`` is
    ``None`` for a format-1/2 commit — indexed by key in ``keys``; a
    result is decoded only when :meth:`lookup` hits it), the
    ``rolled_back`` and ``resets`` counts and the number of ``records``
    folded. With an ``accountant``, every commit's
    costs are pushed through its ``_commit_state`` hook in commit order —
    the exact arithmetic the original spends performed, so the state is
    bit-identical to the in-memory ledger at that record. Plain commits
    apply incrementally on top of the current state; a history-editing
    record (``rollback``/``reset``) triggers one from-scratch recompute
    at the end of the batch, again the same arithmetic. Without an
    accountant only the bookkeeping is kept (``ledger_health``).

    Intents without a commit (a crashed writer) are never applied;
    ``rollback`` records excise the transactions they name; ``reset``
    clears everything before it. ``rollback`` records are read for
    compatibility with ledgers written by earlier versions and are no
    longer written. ``check_meta`` (optional) validates the meta header
    when it arrives.
    """

    def __init__(self, path, accountant=None, check_meta=None):
        self.path = path
        self.accountant = accountant
        self.check_meta = check_meta
        self.meta = None
        self.intents = {}
        self.committed = []
        self.keyed = {}
        self.keys = {}
        self.rolled_back = 0
        self.resets = 0
        self.records = 0
        if accountant is not None:
            accountant._set_ledger_state(accountant._fresh_state())

    def apply(self, records):
        """Fold ``records`` (the stream's next records, in order)."""
        recompute = False
        for record in records:
            op = record.get("op")
            self.records += 1
            if op == "meta":
                if self.meta is not None:
                    raise LedgerCorruptError("duplicate ledger meta header")
                if self.check_meta is not None:
                    self.check_meta(record)
                self.meta = record
            elif self.meta is None:
                raise LedgerCorruptError(
                    f"budget ledger {self.path} has records but no meta header"
                )
            elif op == "intent":
                txn = record["txn"]
                if txn in self.intents:
                    raise LedgerCorruptError(f"duplicate intent for txn {txn!r}")
                costs = [cost_from_record(entry) for entry in record["costs"]]
                keys = record.get("keys")
                if keys is not None and len(keys) != len(costs):
                    raise LedgerCorruptError(
                        f"intent for txn {txn!r} carries {len(keys)} keys "
                        f"for {len(costs)} costs"
                    )
                self.intents[txn] = (costs, keys)
            elif op == "commit":
                txn = record["txn"]
                entry = self.intents.pop(txn, None)
                if entry is None:
                    raise LedgerCorruptError(f"commit for unknown txn {txn!r}")
                costs, keys = entry
                self._commit(txn, costs, keys, record)
                if self.accountant is not None and not recompute:
                    state = self.accountant._ledger_state()
                    for cost in costs:
                        state = self.accountant._commit_state(cost, state)
                    self.accountant._set_ledger_state(state)
            elif op == "rollback":
                undo = set(record["txns"])
                survivors = [
                    (txn, costs) for txn, costs in self.committed if txn not in undo
                ]
                self.rolled_back += len(self.committed) - len(survivors)
                self.committed = survivors
                self.keyed = {
                    txn: entry for txn, entry in self.keyed.items() if txn not in undo
                }
                self.keys = {
                    key: ref for key, ref in self.keys.items() if ref[0] not in undo
                }
                recompute = True
            elif op == "reset":
                self.resets += 1
                self.committed = []
                self.keyed = {}
                self.keys = {}
                recompute = True
            else:
                raise LedgerCorruptError(f"unknown ledger record op {op!r}")
        if recompute:
            self.replay()

    def _commit(self, txn, costs, keys, commit):
        self.committed.append((txn, costs))
        results = commit.get("results")
        if keys is None or results is None:
            return
        if len(results) != len(keys):
            raise LedgerCorruptError(
                f"commit for txn {txn!r} carries {len(results)} results for "
                f"{len(keys)} keys"
            )
        self.keyed[txn] = {
            "keys": keys, "costs": costs,
            "heads": commit.get("heads"), "results": results,
        }
        # First writer wins: a key can only appear twice if an earlier
        # holder was rolled back and re-spent, in which case the live txn
        # re-indexes.
        for index, key in enumerate(keys):
            if key is not None and key not in self.keys:
                self.keys[key] = (txn, index)

    def mirror(self, txn, costs, keys, commit):
        """Fold the intent/commit pair this process just appended, for a
        spend its accountant has already charged: O(1), no re-parse and
        no state change. ``keys`` is ``None`` when unkeyed; ``commit`` is
        the commit payload as appended."""
        self._commit(txn, costs, keys, commit)
        self.records += 2

    def replay(self):
        """Rebuild the accountant's state from the committed costs, from
        scratch, in commit order."""
        if self.accountant is None:
            return
        state = self.accountant._fresh_state()
        for _, costs in self.committed:
            for cost in costs:
                state = self.accountant._commit_state(cost, state)
        self.accountant._set_ledger_state(state)

    def lookup(self, key):
        """The stored result for idempotency ``key``, or ``None`` if no
        live transaction committed one."""
        ref = self.keys.get(key)
        if ref is None:
            return None
        txn, index = ref
        entry = self.keyed[txn]
        return _decode_result(
            entry["heads"], entry["results"][index], entry["costs"][index]
        )

    @property
    def dangling_intents(self):
        """Txn ids of intents with no commit (crashed writers), sorted."""
        return sorted(self.intents)

    @property
    def orphaned_keys(self):
        """Idempotency keys of dangling intents: charges that never
        committed, so the keys are free for retry."""
        return sorted(
            key
            for _, keys in self.intents.values()
            if keys is not None
            for key in keys
            if key is not None
        )

    @property
    def keyed_results(self):
        """Number of stored results the dedup index can replay."""
        return sum(
            sum(1 for result in entry["results"] if result is not None)
            for entry in self.keyed.values()
        )

    def compaction_payloads(self):
        """The stream as a checkpoint, in format 3: a clean ``meta`` plus
        one intent/commit pair per surviving transaction, in commit order.
        The dedup index survives: keys and stored results ride along with
        their txn (format-3 results as they are, a format-1/2 commit's
        JSON results each as a ``{"value": ...}`` entry). Replaying it
        reproduces this fold's state bit for bit; what it drops (dangling
        intents, applied rollbacks and resets) is exactly what replay
        already ignored."""
        meta = {key: value for key, value in self.meta.items() if key not in ("seq", "crc")}
        payloads = [{**meta, "format": LEDGER_FORMAT_VERSION}]
        for txn, costs in self.committed:
            entry = self.keyed.get(txn)
            if entry is None:
                payloads.extend(_txn_payloads(txn, costs))
                continue
            heads, entries = entry["heads"], entry["results"]
            if heads is None:
                heads = []
                entries = [None if result is None else {"value": result}
                           for result in entries]
            payloads.extend(_txn_payloads(txn, costs, entry["keys"], heads, entries))
        return payloads

    def compacted(self, payloads):
        """The stream was rewritten as ``payloads``
        (:meth:`compaction_payloads`): only the stream bookkeeping resets."""
        self.intents = {}
        self.rolled_back = 0
        self.resets = 0
        self.records = len(payloads)


def accountant_from_meta(meta):
    """Rebuild the in-memory accountant a ledger's meta header describes —
    how ``ledger inspect``/``recover`` replay without the creating engine."""
    model = meta.get("model")
    total_epsilon = meta.get("total_epsilon")
    total_delta = meta.get("total_delta", 0.0)
    if model == "rdp":
        from repro.privacy.rdp import RDPAccountant

        alphas = meta.get("alphas")
        return RDPAccountant(total_epsilon, total_delta, alphas=alphas)
    try:
        return make_accountant(total_epsilon, total_delta, model=model)
    except PrivacyBudgetError as exc:
        raise LedgerError(
            f"ledger meta header names unknown accountant model {model!r}"
        ) from exc


# ---------------------------------------------------------------------- #
# The durable wrapper
# ---------------------------------------------------------------------- #
class DurableAccountant(BudgetAccountant):
    """Crash-safe, multi-process wrapper around any in-memory accountant.

    All accounting arithmetic (validation, admission, composition,
    reporting) delegates to the wrapped ``accountant`` — this class adds
    only durability and mutual exclusion:

    * ``spend``/``spend_many``/``spend_keyed`` are the base class's one
      transaction, run through this class's three hooks under the
      store's exclusive cross-process lock: replay any records other
      processes committed, admit against that synced state with the
      inner accountant's arithmetic (preserving its all-or-nothing and
      float-dust semantics exactly), build the results (keyed spends),
      then write an ``intent`` record holding the validated costs
      followed by a ``commit`` marker. Only the commit makes the spend
      real; the fault matrix kills writers at every instrumented instant
      and recovery always lands on *pre* or *post*, bit-identically.
    * Read properties (``spent_epsilon`` …) serve the last synced state
      without touching the disk; ``can_spend`` and :meth:`sync` refresh
      from the store first (lock-free — committed records only).

    The first open of a path writes a ``meta`` header (model, totals,
    RDP alpha grid); every later open verifies its accountant against it,
    so one ledger can never be driven by two incompatible budgets.

    **Incremental sync.** Syncs go through the store's :meth:`scan_new`:
    the wrapper keeps the replayed bookkeeping (committed transactions,
    dangling intents, the dedup index) in one ``_LedgerFold`` and folds
    only the records appended since its last read, pushing new commits
    through ``_commit_state`` in commit order — the same arithmetic, in
    the same order, as a full replay, so the state stays bit-identical to
    one (the invariant ``tests/test_ledger_incremental.py`` pins). Its own
    intent/commit pair is mirrored into the fold without re-reading it. A
    reset (or a legacy rollback) record recomputes the state from
    scratch; an unverifiable tail cursor (another process compacted)
    starts a fresh fold over the whole stream. Spends are therefore O(new
    records), not O(whole stream).

    ``compact_every`` (records; ``None`` = never) adds periodic
    checkpoint compaction: when the stream exceeds the threshold, the
    spend that noticed rewrites it — in its own exclusive transaction,
    right after — as a clean ``meta`` + intent/commit pair per surviving
    transaction (exactly :func:`recover_ledger`'s rewrite), so long-lived
    serving ledgers stay bounded by their *live* spend history instead of
    growing with every request ever served.
    """

    def __init__(self, accountant, store, compact_every=None):
        if isinstance(accountant, DurableAccountant):
            raise LedgerError("DurableAccountant cannot wrap another DurableAccountant")
        if not isinstance(accountant, BudgetAccountant):
            raise LedgerError(
                "DurableAccountant wraps a BudgetAccountant; got "
                f"{type(accountant).__name__}"
            )
        if accountant.spent_epsilon != 0.0 or accountant.spent_delta != 0.0:
            raise LedgerError(
                "DurableAccountant wraps a freshly-constructed accountant; "
                "the ledger is the single source of spend state (reopen the "
                "ledger with a fresh accountant to recover prior spending)"
            )
        super().__init__(accountant.total_epsilon, accountant.total_delta)
        #: Audit label: the *model* name of the wrapped accountant, so
        #: Release.metadata["accountant"] reads the same with or without a
        #: durable ledger underneath.
        self.name = accountant.name
        self._inner = accountant
        self._store = store
        if compact_every is not None:
            compact_every = int(compact_every)
            if compact_every <= 0:
                raise LedgerError("compact_every must be a positive record count")
        self._compact_every = compact_every
        self._fold = None
        # Fold lock-free first: the read sets the tail cursor, so the
        # transaction's repair and sync decode only what came after it.
        self.sync()
        with self._store.transact():
            self.sync()
            if self._fold.meta is None:
                # First open of an empty stream (the fold refuses records
                # before a meta header): write the header. The store's
                # append advances its own tail cursor past the record, so
                # mirror it into the fold directly instead of re-scanning.
                meta = self._meta_payload()
                self._store.append(meta)
                self._fold.meta, self._fold.records = meta, 1

    # -- plumbing ------------------------------------------------------ #
    @property
    def inner(self):
        """The wrapped in-memory accountant (its state mirrors the ledger
        as of the last sync)."""
        return self._inner

    @property
    def store(self):
        """The :class:`LedgerStore` backing this accountant."""
        return self._store

    @property
    def path(self):
        return self._store.path

    def close(self):
        self._store.close()

    def _meta_payload(self):
        alphas = getattr(self._inner, "alphas", None)
        return {
            "op": "meta",
            "format": LEDGER_FORMAT_VERSION,
            "model": self._inner.name,
            "total_epsilon": float(self._inner.total_epsilon),
            "total_delta": float(self._inner.total_delta),
            "alphas": None if alphas is None else [float(a) for a in alphas],
        }

    def _check_meta(self, meta):
        expected = self._meta_payload()
        for key in ("model", "total_epsilon", "total_delta", "alphas"):
            if meta.get(key) != expected[key]:
                raise LedgerError(
                    f"budget ledger {self._store.path} was created with "
                    f"{key}={meta.get(key)!r}; this accountant has "
                    f"{key}={expected[key]!r} — one ledger cannot serve two "
                    "budget configurations"
                )
        declared = meta.get("format", 1)
        if declared not in ACCEPTED_LEDGER_FORMATS:
            raise LedgerError(
                f"budget ledger {self._store.path} declares format "
                f"{declared!r}; this reader replays formats "
                f"{ACCEPTED_LEDGER_FORMATS}"
            )
        # Forward compatibility: a newer writer may add meta fields this
        # version does not know. They cannot change what replay computes
        # (costs live in intent records, verified per record), so warn
        # instead of refusing — mixed-version deployments keep serving
        # across a schema bump.
        unknown = sorted(
            key
            for key in meta
            if key not in expected and key not in ("seq", "crc")
        )
        if unknown:
            logger.warning(
                "budget ledger %s meta header carries unknown fields %s "
                "(written by a newer version?); ignoring them",
                self._store.path,
                unknown,
            )

    # -- incremental replay ------------------------------------------ #
    def sync(self):
        """Refresh the mirror from the store; returns ``self``. Folds only
        the new records when the store's tail cursor verifies, otherwise
        starts a fresh fold over the whole stream. Every ambiguous write
        failure drops the cursor on the spot (see
        :meth:`LedgerStore.invalidate_cursor`), before the next
        transaction's torn-tail repair could trust it. Outside a
        transaction this is a lock-free read of committed records (a
        concurrent writer's torn tail is ignored)."""
        records, _, resumed = self._store.scan_new()
        if not resumed:
            self._fold = _LedgerFold(self._store.path, self._inner, self._check_meta)
        self._fold.apply(records)
        return self

    # -- delegation: one composition rule, the inner one --------------- #
    def _validate_cost(self, epsilon, delta):
        return self._inner._validate_cost(epsilon, delta)

    def _fresh_state(self):
        return self._inner._fresh_state()

    def _ledger_state(self):
        return self._inner._ledger_state()

    def _set_ledger_state(self, state):
        self._inner._set_ledger_state(state)

    def _state_spent(self, state):
        return self._inner._state_spent(state)

    def _fits_state(self, cost, state):
        return self._inner._fits_state(cost, state)

    def _commit_state(self, cost, state):
        return self._inner._commit_state(cost, state)

    # -- the spend transaction's storage hooks ------------------------- #
    @contextmanager
    def _transaction(self):
        """The store's exclusive transaction around one spend: sync and
        check the meta header on entry, checkpoint after a successful
        exit. A failure once :meth:`_record` has started writing drops the
        tail cursor (the caller rolls the mirror back): what reached the
        stream depends on the backend and the instant (a dangling intent,
        both records, a committed or a rolled-back sqlite transaction),
        so the next sync re-reads it instead of trusting the cursor."""
        self._writing = False
        try:
            with self._store.transact():
                self.sync()
                if self._fold.meta is None:
                    raise LedgerCorruptError(
                        f"budget ledger {self._store.path} has no meta header"
                    )
                yield
            if (
                self._compact_every is not None
                and self._fold.records > self._compact_every
            ):
                self._maybe_checkpoint()
        except BaseException:
            if self._writing:
                self._store.invalidate_cursor()
            raise

    def _lookup(self, key):
        return self._fold.lookup(key)

    def _record(self, validated, keys, payloads):
        """Journal an admitted spend: one ``intent`` (the costs, and the
        keys when any is set) and one ``commit`` (the encoded results of
        the keyed positions), then fold the pair into the mirror without
        re-reading it — the inner state already includes the spend."""
        heads = entries = None
        if any(key is not None for key in keys):
            heads, entries = _encode_results([
                payload if key is not None else None
                for key, payload in zip(keys, payloads)
            ])
        else:
            keys = None
        txn = _txn_id()
        costs = [_committed_cost(cost) for cost in validated]
        intent, commit = _txn_payloads(txn, costs, keys, heads, entries)
        self._writing = True
        self._store.append(intent, point="ledger.intent")
        self._store.append(commit, point="ledger.commit")
        self._fold.mirror(txn, costs, keys, commit)

    def _maybe_checkpoint(self):
        """Checkpoint compaction: rewrite the stream as ``meta`` + one
        intent/commit pair per surviving transaction (exactly the
        :func:`recover_ledger` rewrite), in its **own** exclusive
        transaction — never inside a spend's, because a sqlite compact
        shares its enclosing transaction and a mid-compact failure would
        roll the (already admitted) spend back with it. Commit order is
        preserved by the rewrite, so the replayed state is untouched by
        construction. A checkpoint failure never fails the spend that
        triggered it: the stream is left valid either way (atomic journal
        replace / sqlite rollback) and the next spend simply retries."""
        try:
            with self._store.transact():
                self.sync()
                if self._fold.meta is None or self._fold.records <= self._compact_every:
                    return
                payloads = self._fold.compaction_payloads()
                try:
                    self._store.compact(payloads)
                except BaseException:
                    self._store.invalidate_cursor()
                    raise
                self._fold.compacted(payloads)
        except LedgerBusyError:
            return  # another process holds the lock; the next spend retries
        except (LedgerError, OSError) as exc:
            logger.warning(
                "budget ledger checkpoint failed on %s (stream left valid): %s",
                self._store.path,
                exc,
            )

    def reset(self):
        """Durably forget all spending (journals a ``reset`` record)."""
        with self._store.transact():
            try:
                self.sync()
                record = {"op": "reset"}
                self._store.append(record)
                self._fold.apply([record])
            except BaseException:
                self._store.invalidate_cursor()
                raise


def open_ledger(path, accountant, backend="auto", retry=None, compact_every=None):
    """Wrap ``accountant`` in a :class:`DurableAccountant` backed by the
    ledger at ``path`` (created on first open, replayed on every later
    one). ``retry`` is the :class:`repro.io.atomic.RetryPolicy` bounding
    lock acquisition; ``compact_every`` enables checkpoint compaction
    once the stream exceeds that many records."""
    return DurableAccountant(
        accountant,
        open_store(path, backend=backend, retry=retry),
        compact_every=compact_every,
    )


# ---------------------------------------------------------------------- #
# Inspection and recovery (the CLI's `ledger` target)
# ---------------------------------------------------------------------- #
def _cost_families(committed):
    """Per-family audit breakdown of a replayed ledger's committed costs.

    Returns ``{family: {"count", "epsilon", "delta"}}`` where epsilon /
    delta sum each release's *charged* (amplified) pair — the additive
    ε-equivalent, a legible audit figure even when the live accountant is
    RDP. Pre-typed scalar costs are grouped under ``"untyped"``.
    """
    families = {}
    for _, costs in committed:
        for cost in costs:
            family = cost.family if isinstance(cost, NoiseCost) else "untyped"
            epsilon, delta = charged_pair(cost)
            entry = families.setdefault(
                family, {"count": 0, "epsilon": 0.0, "delta": 0.0}
            )
            entry["count"] += 1
            entry["epsilon"] += epsilon
            entry["delta"] += delta
    return families


def _summarize(store, torn, fold):
    accountant = fold.accountant
    spent_epsilon, spent_delta = accountant._state_spent(accountant._ledger_state())
    return {
        "path": str(store.path),
        "backend": store.backend,
        "records": fold.records,
        "committed": len(fold.committed),
        "costs": sum(len(costs) for _, costs in fold.committed),
        "keyed_results": fold.keyed_results,
        "dangling_intents": fold.dangling_intents,
        "orphaned_keys": fold.orphaned_keys,
        "rolled_back": fold.rolled_back,
        "resets": fold.resets,
        "families": _cost_families(fold.committed),
        "torn_tail_bytes": torn,
        "model": fold.meta.get("model"),
        "total_epsilon": fold.meta.get("total_epsilon"),
        "total_delta": fold.meta.get("total_delta"),
        "spent_epsilon": spent_epsilon,
        "spent_delta": spent_delta,
        "remaining_epsilon": max(fold.meta.get("total_epsilon") - spent_epsilon, 0.0),
    }


def _scan_and_fold(store, replay=True):
    """Scan the whole stream (verifying every checksum) and fold it.
    ``replay=True`` replays it into a fresh accountant rebuilt from the
    meta header; ``False`` keeps only the bookkeeping. Returns ``(fold,
    torn_tail_bytes)``."""
    records, torn = store.scan()
    fold = _LedgerFold(store.path)
    fold.apply(records)
    if fold.meta is None:
        raise LedgerError(f"budget ledger {store.path} is empty or missing")
    if replay:
        fold.accountant = accountant_from_meta(fold.meta)
        fold.replay()
    return fold, torn


def inspect_ledger(path, backend="auto"):
    """Read-only audit of a ledger: replays it with a fresh accountant and
    returns a summary dict (record/commit counts, dangling intents, torn
    tail, realized spend). Never modifies the ledger."""
    store = open_store(path, backend=backend)
    try:
        fold, torn = _scan_and_fold(store)
        return _summarize(store, torn, fold)
    finally:
        store.close()


def ledger_health(path, backend="auto"):
    """Cheap read-side liveness probe of one ledger: a scan folded without
    an accountant, no locks held for the journal read, and no
    modification. The serving tier's ``health`` op calls this per tenant;
    ``ok`` means the file exists, parses, carries a meta header, and has
    neither a torn tail nor dangling intents awaiting repair."""
    path = Path(path)
    if not path.exists():
        return {"path": str(path), "exists": False, "ok": False}
    store = open_store(path, backend=backend)
    try:
        fold, torn = _scan_and_fold(store, replay=False)
    except LedgerError as exc:
        return {
            "path": str(path), "exists": True, "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    finally:
        store.close()
    dangling = len(fold.intents)
    return {
        "path": str(path),
        "backend": store.backend,
        "exists": True,
        "records": fold.records,
        "torn_tail_bytes": torn,
        "dangling_intents": dangling,
        "keyed_results": fold.keyed_results,
        "ok": torn == 0 and dangling == 0,
    }


def recover_ledger(path, backend="auto", dry_run=False):
    """Repair and compact a ledger after a crash.

    Under the store's exclusive transaction: truncate any torn tail
    (journal backend), drop dangling intents left by killed writers, apply
    rollbacks/resets, and rewrite the stream as a clean ``meta`` +
    intent/commit pair per surviving transaction — keyed transactions keep
    their idempotency keys and stored results, so the exactly-once dedup
    index survives recovery. Orphan reconciliation is definitive: a
    dangling *keyed* intent never committed its charge, so recovery drops
    it and frees the key for retry (reported as ``reconciled_orphans`` /
    ``freed_keys``); a committed keyed transaction keeps its replayable
    result. The replayed spend state is unchanged by construction —
    recovery discards only records replay already ignored. Returns the
    post-recovery summary dict.

    ``dry_run=True`` reports what recovery *would* do — torn tail bytes,
    dangling intents, reconcilable orphaned keys — from a lock-free scan
    that never mutates the stream (no transaction is opened, so not even
    the journal backend's torn-tail repair runs)."""
    store = open_store(path, backend=backend)
    try:
        if dry_run:
            fold, torn = _scan_and_fold(store)
            report = _summarize(store, torn, fold)
        else:
            with store.transact():
                fold, _ = _scan_and_fold(store)
                store.compact(fold.compaction_payloads())
                recovered, torn = _scan_and_fold(store)
                report = _summarize(store, torn, recovered)
        report["dry_run"] = bool(dry_run)
        report["reconciled_orphans"] = len(fold.intents)
        report["freed_keys"] = fold.orphaned_keys
        return report
    finally:
        store.close()
