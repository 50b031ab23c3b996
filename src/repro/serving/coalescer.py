"""Micro-batching coalescer: concurrent requests become one worker batch.

The engine's batched release path (``execute_many``) amortizes the
per-release noise draw, GEMM and ledger round-trip — but only if someone
actually forms batches. Under a concurrent front-end, requests for the
same ``(tenant, plan)`` arrive interleaved across connections;
:class:`Coalescer` collects them in one pending bucket per key and is
**work-conserving**: an arrival schedules a dispatch pump for the next
event-loop turn (after the next I/O poll, so requests already readable
join first), and whenever a worker slot is free the pump dispatches
pending buckets, up to ``max_batch`` requests each in arrival order.
While every slot is busy, buckets keep filling. Batches therefore form
from load, not from a clock: an idle service dispatches a lone request
at once, a saturated one ships whatever queued behind the busy slots.

Semantics preserved from one-at-a-time dispatch:

* **Atomic accounting** — the worker charges the whole batch through
  ``spend_many`` (all-or-nothing). If the *batch* is refused for budget
  (the sum exceeds the remaining budget) the coalescer degrades to
  **sequential admission**: each request is retried individually, so the
  requests that do fit are served and only the ones that do not are
  refused — exactly what unbatched arrival order would have produced.
* **Ordering** — results resolve onto the originating futures in request
  order within a batch; a bucket's requests never reorder, and an
  over-full bucket dispatches as consecutive ``max_batch`` slices.
* **Drain on shutdown** — :meth:`drain` dispatches every pending bucket
  and awaits in-flight worker calls, so a graceful shutdown serves (and
  charges) everything it accepted rather than dropping queued requests.
* **Deadlines** — a request may carry a monotonic ``deadline``; a member
  whose deadline passed while it was pending (or queued for a sequential
  retry) is shed *before* dispatch — it is never charged — and fails
  with ``deadline_exceeded``. A batch never dispatches expired work.

Exactly-once additions:

* **Pending duplicate folding** — two submissions carrying the same
  idempotency ``key`` while the first is still pending *fold*: one
  request is dispatched (one spend, one noise draw) and the single
  result resolves every folded future — two replies, byte-identical.
  Duplicates of an already-dispatched key dedup at the ledger instead
  (one charge either way); ``dedup_hits`` counts those ledger replays,
  once per dispatched request however many waiters folded onto it.
* **Keyed dispatch is crash-retryable** — a batch in which every request
  carries a key is submitted with ``retry_delivered=True``: a worker
  SIGKILLed after delivery is retried once on another worker, which
  either replays the committed results from the ledger's dedup index or
  charges the still-free keys exactly once.

Fairness addition:

* **Round-robin dispatch order** — under the ``max_concurrent`` batch
  cap, pending buckets dispatch round-robin across ``(tenant, plan)``
  keys (least recently dispatched key first), so one hot tenant
  saturating ``max_batch`` cannot monopolise the worker pool while a
  quiet tenant's single request starves behind it.
"""

from __future__ import annotations

import asyncio
import functools
import time

from repro.exceptions import ReproError
from repro.serving.worker import WorkerCrashError

__all__ = ["Coalescer", "RemoteExecutionError", "RETRY_AFTER_HINT"]

#: ``retry_after`` hint (seconds) attached to every shed or busy refusal
#: — deadline, overload and ledger contention: long enough for a busy
#: worker slot plus a ledger lock hold to clear.
RETRY_AFTER_HINT = 0.05


class RemoteExecutionError(ReproError):
    """A worker reported a failure for this request; ``kind`` is the
    worker-side exception class name (e.g. ``"PrivacyBudgetError"``) or a
    structured shedding kind (``"overloaded"``/``"deadline_exceeded"``).
    ``retry_after`` is an optional seconds hint for when retrying might
    succeed — it rides the wire reply so clients can back off."""

    def __init__(self, kind, message, retry_after=None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.retry_after = retry_after


class _Entry:
    """One dispatched request position in a bucket — possibly fanned out
    to several waiters when same-key submissions folded into it."""

    __slots__ = ("request", "futures", "deadline")

    def __init__(self, request, future, deadline):
        self.request = request  # (epsilon, switches, key)
        self.futures = [future]
        self.deadline = deadline  # monotonic timestamp or None

    def fold(self, future, deadline):
        """Attach another waiter for the same idempotency key. The entry
        keeps the *more permissive* deadline: the single dispatch serves
        every waiter, so it sheds only when all of them would."""
        self.futures.append(future)
        if self.deadline is not None:
            self.deadline = (
                None if deadline is None else max(self.deadline, deadline)
            )

    def resolve(self, payload):
        for future in self.futures:
            if not future.done():
                future.set_result(payload)

    def fail(self, exc):
        for future in self.futures:
            if not future.done():
                future.set_exception(exc)

    @property
    def done(self):
        return all(future.done() for future in self.futures)


class _Bucket:
    __slots__ = ("entries", "by_key")

    def __init__(self):
        self.entries = []  # pending, in arrival order
        self.by_key = {}  # idempotency key -> pending _Entry (folding)

    def take(self, count):
        """Remove and return the first ``count`` pending entries. Their
        keys leave the fold index: a later duplicate of a dispatched key
        opens a fresh entry and dedups at the ledger."""
        batch, self.entries = self.entries[:count], self.entries[count:]
        for entry in batch:
            if entry.request[2] is not None:
                del self.by_key[entry.request[2]]
        return batch


class Coalescer:
    """Groups ``submit`` calls by ``(tenant, plan)`` into worker batches.

    ``pool_submit`` is a callable ``(command) -> reply tuple`` executed in
    a thread (the worker pipe round-trip blocks); the coalescer is
    otherwise pure asyncio and must be used from one event loop.
    ``max_concurrent`` caps how many batches run at once (``None`` =
    unlimited); pending buckets beyond the cap wait for a free slot and
    then dispatch round-robin across ``(tenant, plan)`` keys.
    """

    def __init__(self, pool, max_batch=32, executor=None, on_shed=None,
                 max_concurrent=None):
        if int(max_batch) <= 0:
            raise ValueError("max_batch must be positive")
        if max_concurrent is not None and int(max_concurrent) <= 0:
            raise ValueError("max_concurrent must be positive (or None)")
        self._pool = pool
        #: Thread pool the blocking pipe round-trips run on. ``None`` uses
        #: the event loop's default executor, whose thread cap
        #: (``cpu_count + 4``) can sit *below* the worker count — the
        #: service passes one sized to its pool instead.
        self._executor = executor
        self.max_batch = int(max_batch)
        self._max_concurrent = (
            None if max_concurrent is None else int(max_concurrent)
        )
        self._buckets = {}  # (tenant, plan) -> non-empty pending _Bucket
        self._pump_handle = None  # the scheduled next-turn pump, if any
        self._last_dispatch = {}  # key -> seq of its most recent dispatch
        self._dispatch_seq = 0
        self._inflight = set()
        self._draining = False
        self._on_shed = on_shed  # callback(kind) for the service's counters
        #: Counters for the benchmark/ops surface.
        self.batches_flushed = 0
        self.requests_coalesced = 0
        self.sequential_retries = 0
        self.shed_expired = 0
        self.duplicates_folded = 0
        self.dedup_hits = 0

    # -- submission ----------------------------------------------------- #
    async def submit(self, tenant, plan_name, epsilon, switches=None,
                     deadline=None, key=None):
        """Queue one release request; resolves to the release's wire JSON
        (UTF-8 bytes, built by the worker and never decoded here).
        ``deadline`` (monotonic seconds) sheds the request instead of
        dispatching it if it is still pending when the deadline passes.
        ``key`` is an optional idempotency key: a second submission with
        the same key while the first is still pending folds onto it —
        one dispatched spend, every waiter resolved with the same payload.
        """
        if self._draining:
            raise RemoteExecutionError("ServiceUnavailable", "server is draining")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        bucket_key = (tenant, plan_name)
        bucket = self._buckets.get(bucket_key)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[bucket_key] = bucket
        deadline = None if deadline is None else float(deadline)
        if key is not None and key in bucket.by_key:
            self.duplicates_folded += 1
            bucket.by_key[key].fold(future, deadline)
            return await future
        entry = _Entry((float(epsilon), dict(switches or {}), key), future, deadline)
        bucket.entries.append(entry)
        if key is not None:
            bucket.by_key[key] = entry
        if self._pump_handle is None:
            # call_later(0), not call_soon: the pump runs after the next
            # I/O poll, so requests already readable join the bucket first.
            self._pump_handle = loop.call_later(0, self._pump)
        return await future

    def _shed_expired(self, entries):
        """Fail every expired entry pre-dispatch; returns the live ones."""
        now = time.monotonic()
        live = []
        for entry in entries:
            if entry.deadline is not None and entry.deadline <= now:
                self.shed_expired += 1
                if self._on_shed is not None:
                    self._on_shed("deadline_exceeded")
                entry.fail(RemoteExecutionError(
                    "deadline_exceeded",
                    "deadline expired while the request was queued",
                    retry_after=RETRY_AFTER_HINT,
                ))
            else:
                live.append(entry)
        return live

    # -- dispatch -------------------------------------------------------- #
    def _pump(self):
        """Dispatch pending buckets while a slot is free, round-robin
        across keys: the key dispatched longest ago (never-dispatched
        first, arrival order on ties) goes next, ``max_batch`` entries at
        a time — a hot tenant refilling its bucket cannot starve a quiet
        tenant's single pending request."""
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        while self._buckets and (
            self._max_concurrent is None
            or len(self._inflight) < self._max_concurrent
        ):
            key = min(self._buckets, key=lambda k: self._last_dispatch.get(k, -1))
            bucket = self._buckets[key]
            entries = bucket.take(self.max_batch)
            if not bucket.entries:
                del self._buckets[key]
            self._dispatch_seq += 1
            self._last_dispatch[key] = self._dispatch_seq
            task = asyncio.ensure_future(self._run_batch(key, entries))
            self._inflight.add(task)
            task.add_done_callback(self._batch_done)

    def _batch_done(self, task):
        self._inflight.discard(task)
        self._pump()

    async def _execute(self, tenant, plan_name, requests):
        loop = asyncio.get_running_loop()
        # A batch in which EVERY request carries an idempotency key is
        # safe to retry even after a post-delivery worker crash: the
        # ledger's dedup index replays any committed spend.
        retryable = all(request[2] is not None for request in requests)
        return await loop.run_in_executor(
            self._executor,
            functools.partial(
                self._pool.submit, ("execute", tenant, plan_name, requests),
                retry_delivered=retryable,
            ),
        )

    async def _run_batch(self, key, entries):
        tenant, plan_name = key
        live = self._shed_expired(entries)
        if not live:
            return  # the whole slice expired while it was pending
        requests = [entry.request for entry in live]
        self.batches_flushed += 1
        self.requests_coalesced += len(requests)
        try:
            reply = await self._execute(tenant, plan_name, requests)
        except WorkerCrashError as exc:
            for entry in live:
                entry.fail(RemoteExecutionError(type(exc).__name__, str(exc)))
            return
        except BaseException as exc:  # pragma: no cover - defensive
            for entry in live:
                entry.fail(exc)
            return
        if reply[0] == "ok":
            for entry, result in zip(live, reply[1]):
                self._resolve(entry, result)
            return
        kind, message = reply[1], reply[2]
        if kind == "PrivacyBudgetError" and len(requests) > 1:
            # The batch total did not fit, but individual requests might:
            # degrade to sequential admission, preserving request order.
            await self._sequential(key, live)
            return
        for entry in live:
            entry.fail(RemoteExecutionError(kind, message))

    def _resolve(self, entry, result):
        """Resolve every waiter of ``entry`` with the release body of the
        worker's ``(body, deduplicated)`` result."""
        body, deduplicated = result
        if deduplicated:
            self.dedup_hits += 1
        entry.resolve(body)

    async def _sequential(self, key, entries):
        tenant, plan_name = key
        for entry in entries:
            if entry.done:
                continue
            if not self._shed_expired([entry]):
                continue  # expired while earlier members of the batch retried
            self.sequential_retries += 1
            try:
                reply = await self._execute(tenant, plan_name, [entry.request])
            except WorkerCrashError as exc:
                entry.fail(RemoteExecutionError(type(exc).__name__, str(exc)))
                continue
            if reply[0] == "ok":
                self._resolve(entry, reply[1][0])
            else:
                entry.fail(RemoteExecutionError(reply[1], reply[2]))

    # -- shutdown -------------------------------------------------------- #
    async def drain(self):
        """Refuse new work, dispatch every pending bucket and await all
        in-flight batches."""
        self._draining = True
        while self._buckets or self._inflight:
            self._pump()
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
