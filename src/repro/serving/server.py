"""Asyncio JSON-lines front-end for the private-query serving tier.

Stdlib-only TCP protocol: one JSON object per line in each direction.
Requests carry an ``op`` plus op-specific fields; responses echo the
request's optional ``id`` and are ``{"ok": true, ...}`` or ``{"ok": false,
"error": <kind>, "message": ...}``. Ops:

* ``{"op": "plan"}`` — list the served plans with their metadata.
* ``{"op": "execute", "tenant": t, "plan": name, "epsilon": e,
  "key": str?, "non_negative"/"integral"/"consistent": bool?}`` — one
  budgeted release, batched through the
  :class:`~repro.serving.coalescer.Coalescer` (``max_batch=1`` makes
  every batch a single request). ``key`` is an optional idempotency key:
  repeating it — on a retry, another connection, or after a full restart
  — returns the original noised release with zero additional budget
  charge (the ledger journals results by key). The release object is
  the JSON the worker built for it, spliced into the reply line as is:
  a replay is encoded from the stored values by the same code, so a
  replayed reply is byte-identical to the original (apart from ``id``);
  dedup hits are counted in ``health`` instead.
* ``{"op": "explain", "plan": name, "epsilon": e?}`` — the plan's
  optimizer report (no budget consumed).
* ``{"op": "budget", "tenant": t}`` — the tenant's ledger state.
* ``{"op": "ping"}`` — liveness.
* ``{"op": "health", "ledgers": bool?}`` — supervision snapshot: per-slot
  worker liveness/restarts/quarantine, queue depth, shed counters,
  coalescer stats, plan generation; ``"ledgers": true`` adds a read-side
  probe of every tenant ledger (no locks taken, no budget consumed).
* ``{"op": "reload"}`` — hot plan reload: re-stage the plans directory
  into a fresh shared segment and swap the workers over
  generation-by-generation without dropping in-flight requests.

An ``execute`` may carry ``"deadline_ms"``: a per-request time budget. A
request that is still queued when its deadline passes — or that arrives
while ``max_queue`` executes are already in flight — is **shed** with a
structured ``deadline_exceeded``/``overloaded`` error carrying a
``retry_after`` hint (seconds) instead of degrading everyone's latency.
Shed requests are never charged.

Tenants name ledger files on disk, so they are restricted to
``[A-Za-z0-9_.-]``, max 64 chars, not starting with a dot — everything
else is rejected before it reaches a path join.

:class:`PlanService` owns the moving parts (shared segment, worker pool,
coalescer, TCP server) and tears them down in reverse order on
:meth:`~PlanService.shutdown`: stop accepting, drain the coalescer (every
accepted request is served and charged), stop the workers, unlink the
segment.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.serving.coalescer import (
    RETRY_AFTER_HINT,
    Coalescer,
    RemoteExecutionError,
)
from repro.serving.shared_plans import stage_plans
from repro.serving.worker import (
    WorkerBusyError,
    WorkerConfig,
    WorkerCrashError,
    WorkerPool,
)
from repro.testing.faults import InjectedFault, fire

__all__ = ["ServiceConfig", "PlanService", "serve"]

_TENANT_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")

#: Post-processing switches accepted on the wire.
_SWITCHES = ("non_negative", "integral", "consistent")

#: Unfinished reply handlers one connection may have before the server
#: stops reading its requests (reading resumes when one finishes): a
#: client that pipelines requests but reads no replies back-pressures
#: its own connection instead of growing the server's memory.
MAX_CONNECTION_HANDLERS = 1024


class ServiceConfig:
    """Everything a :class:`PlanService` needs, in one picklable bag.

    ``data`` is the private unit-count vector (array-like) the service
    answers over; ``total_epsilon``/``total_delta`` the per-tenant budget;
    ``max_batch`` caps the requests per worker batch. The coalescer adds
    no wait: a request dispatches on the next loop turn when a worker is
    free, and requests pending behind busy workers share batches
    (``max_batch=1`` makes every batch a single request).

    Resilience knobs: ``max_queue`` caps concurrently admitted executes
    (past it, requests shed as ``overloaded``); ``default_deadline``
    (seconds, ``None`` = none) applies to executes that carry no
    ``deadline_ms``; ``request_timeout`` bounds every worker pipe
    round-trip (a worker past it is presumed hung, killed and respawned);
    ``heartbeat_interval``/``restart_budget``/``backoff_base``/
    ``healthy_after`` tune the supervisor (see
    :class:`~repro.serving.worker.WorkerPool`); ``watch_plans`` polls
    ``plans_dir`` every ``watch_interval`` seconds and hot-reloads on
    change; ``plan_ttl_seconds``/``min_plan_solver_version`` gate which
    plan archives a (re)load accepts — stale ones are skipped, the
    eviction decision hot reload inherits from the plan cache.
    """

    def __init__(self, plans_dir, ledger_root, data, total_epsilon,
                 total_delta=0.0, workers=2, accountant=None,
                 ledger_suffix=".journal", seed=None, host="127.0.0.1",
                 port=0, max_batch=32, max_queue=1024,
                 default_deadline=None, request_timeout=30.0,
                 heartbeat_interval=1.0, heartbeat_timeout=5.0,
                 restart_budget=5, backoff_base=0.1, healthy_after=30.0,
                 watch_plans=False, watch_interval=2.0,
                 plan_ttl_seconds=None, min_plan_solver_version=None):
        self.plans_dir = str(plans_dir)
        self.ledger_root = str(ledger_root)
        self.data = data
        self.total_epsilon = float(total_epsilon)
        self.total_delta = float(total_delta)
        self.workers = int(workers)
        self.accountant = accountant
        self.ledger_suffix = ledger_suffix
        self.seed = seed
        self.host = host
        self.port = int(port)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.default_deadline = None if default_deadline is None else float(default_deadline)
        self.request_timeout = None if request_timeout is None else float(request_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.restart_budget = int(restart_budget)
        self.backoff_base = float(backoff_base)
        self.healthy_after = float(healthy_after)
        self.watch_plans = bool(watch_plans)
        self.watch_interval = float(watch_interval)
        self.plan_ttl_seconds = plan_ttl_seconds
        self.min_plan_solver_version = min_plan_solver_version


def _check_tenant(tenant):
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ValidationError(
            "tenant must match [A-Za-z0-9_][A-Za-z0-9_.-]{0,63} "
            f"(it names a ledger file); got {tenant!r}"
        )
    return tenant


def _check_key(key):
    """Validate an optional idempotency key (journaled verbatim in ledger
    records, so bounded)."""
    if key is None:
        return None
    if not isinstance(key, str) or not key or len(key) > 128:
        raise ValidationError(
            f"idempotency key must be a non-empty string of at most "
            f"128 characters; got {key!r}"
        )
    return key


class PlanService:
    """The serving tier: shared plans + worker pool + coalescer + TCP."""

    def __init__(self, config, respawn=True, failpoints_by_worker=None,
                 failpoints_by_slot=None):
        self.config = config
        Path(config.ledger_root).mkdir(parents=True, exist_ok=True)
        self._store, self._manifest = stage_plans(
            config.plans_dir, config.data,
            ttl_seconds=config.plan_ttl_seconds,
            min_solver_version=config.min_plan_solver_version,
        )
        self._worker_config = WorkerConfig(
            manifest=self._manifest,
            ledger_root=config.ledger_root,
            total_epsilon=config.total_epsilon,
            total_delta=config.total_delta,
            accountant=config.accountant,
            ledger_suffix=config.ledger_suffix,
            seed=config.seed,
        )
        self.pool = WorkerPool(
            self._worker_config,
            workers=config.workers,
            respawn=respawn,
            failpoints_by_worker=failpoints_by_worker,
            failpoints_by_slot=failpoints_by_slot,
            request_timeout=config.request_timeout,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_timeout=config.heartbeat_timeout,
            restart_budget=config.restart_budget,
            backoff_base=config.backoff_base,
            healthy_after=config.healthy_after,
        )
        # Blocking pipe round-trips run here, NOT on the loop's default
        # executor: its ``cpu_count + 4`` thread cap can sit below the
        # worker count, which would idle workers under load. Sized past
        # the pool so budget/explain calls never queue behind a full
        # complement of in-flight executes.
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers + 4, thread_name_prefix="repro-serve"
        )
        self.coalescer = Coalescer(
            self.pool,
            max_batch=config.max_batch,
            executor=self._executor,
            on_shed=self._count_shed,
            # Fairness: never more concurrent batches than workers, so the
            # coalescer's round-robin — not pool contention — decides
            # which (tenant, plan) group dispatches next.
            max_concurrent=config.workers,
        )
        self._server = None
        self._plan_infos = None
        self._closed = False
        self._exec_inflight = 0
        self._reloads = 0
        self._respond_tasks = set()
        self._reload_lock = asyncio.Lock()
        self._watch_task = None
        self.shed_overloaded = 0
        self.shed_deadline = 0

    @property
    def dedup_hits(self):
        """Ledger-level idempotency-key replays served by this process,
        one per dispatched request (pending-duplicate folds are counted
        by the coalescer separately, as ``duplicates_folded``)."""
        return self.coalescer.dedup_hits

    def _count_shed(self, kind):
        if kind == "overloaded":
            self.shed_overloaded += 1
        else:
            self.shed_deadline += 1

    # -- service operations (also the in-process API the tests use) ---- #
    def plan_names(self):
        return self._store.plan_names()

    async def _in_thread(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, functools.partial(fn, *args))

    async def _read(self, command):
        """Run a read-only worker command and return its payload. Reads
        are idempotent, so one that a worker dies serving is retried on
        another worker even after delivery."""
        reply = await self._in_thread(
            functools.partial(self.pool.submit, command, retry_delivered=True)
        )
        if reply[0] != "ok":
            raise RemoteExecutionError(reply[1], reply[2])
        return reply[1]

    async def plan_list(self):
        if self._plan_infos is None:
            self._plan_infos = [
                await self._read(("plan_info", name)) for name in self.plan_names()
            ]
        return self._plan_infos

    async def execute(self, tenant, plan_name, epsilon, switches=None,
                      deadline=None, key=None):
        """One release; returns its wire JSON (UTF-8 bytes) as the worker
        encoded it — ``json.loads`` gives the client's release dict."""
        _check_tenant(tenant)
        _check_key(key)
        if plan_name not in self._manifest.plans:
            raise ValidationError(
                f"unknown plan {plan_name!r}; available: {self.plan_names()}"
            )
        if deadline is None and self.config.default_deadline is not None:
            deadline = time.monotonic() + self.config.default_deadline
        # Admission control: shed instead of queueing unboundedly. A shed
        # request is refused *before* any worker dispatch, so it is never
        # charged.
        if deadline is not None and deadline <= time.monotonic():
            self.shed_deadline += 1
            raise RemoteExecutionError(
                "deadline_exceeded", "deadline expired before admission",
                retry_after=RETRY_AFTER_HINT,
            )
        if self._exec_inflight >= self.config.max_queue:
            self.shed_overloaded += 1
            raise RemoteExecutionError(
                "overloaded",
                f"execute queue full ({self.config.max_queue} in flight)",
                retry_after=RETRY_AFTER_HINT,
            )
        self._exec_inflight += 1
        try:
            return await self.coalescer.submit(
                tenant, plan_name, epsilon, switches, deadline=deadline,
                key=key,
            )
        finally:
            self._exec_inflight -= 1

    async def budget(self, tenant):
        _check_tenant(tenant)
        return await self._read(("budget", tenant))

    async def explain(self, plan_name, epsilon=None):
        if plan_name not in self._manifest.plans:
            raise ValidationError(
                f"unknown plan {plan_name!r}; available: {self.plan_names()}"
            )
        return await self._read(("explain", plan_name, epsilon))

    async def health(self, ledgers=False):
        """Supervision snapshot (no locks on ledgers, no budget spent)."""
        snapshot = self.pool.health()
        snapshot.update({
            "queue_depth": self._exec_inflight,
            "max_queue": self.config.max_queue,
            "shed": {
                "overloaded": self.shed_overloaded,
                "deadline_exceeded": self.shed_deadline,
            },
            "coalescer": {
                "batches_flushed": self.coalescer.batches_flushed,
                "requests_coalesced": self.coalescer.requests_coalesced,
                "sequential_retries": self.coalescer.sequential_retries,
                "shed_expired": self.coalescer.shed_expired,
                "duplicates_folded": self.coalescer.duplicates_folded,
            },
            "dedup_hits": self.dedup_hits,
            "plans": self.plan_names(),
            "reloads": self._reloads,
        })
        if ledgers:
            from repro.privacy.ledger import ledger_health

            probes = {}
            root = Path(self.config.ledger_root)
            suffix = self.config.ledger_suffix
            for path in sorted(root.glob(f"*{suffix}")):
                tenant = path.name[: -len(suffix)] if suffix else path.name
                probes[tenant] = await self._in_thread(ledger_health, path)
            snapshot["ledgers"] = probes
        return snapshot

    async def reload(self):
        """Hot plan reload: stage a fresh shared segment from the plans
        directory, swap every worker slot to it generation-by-generation
        (in-flight requests finish on the old workers), then unlink the
        old segment once its last reader has detached."""
        async with self._reload_lock:
            fire("serving.reload.before_stage")
            new_store, new_manifest = await self._in_thread(
                functools.partial(
                    stage_plans, self.config.plans_dir, self.config.data,
                    ttl_seconds=self.config.plan_ttl_seconds,
                    min_solver_version=self.config.min_plan_solver_version,
                )
            )
            try:
                fire("serving.reload.before_swap")
                self._worker_config = self._worker_config.replace(
                    manifest=new_manifest
                )
                generation = await self._in_thread(
                    self.pool.reload, self._worker_config
                )
            except BaseException:
                # Swap never happened: drop the staged segment, keep serving
                # the old generation untouched.
                await self._in_thread(new_store.unlink)
                raise
            old_store = self._store
            self._store = new_store
            self._manifest = new_manifest
            self._plan_infos = None
            self._reloads += 1
            # Every old-generation worker was joined by pool.reload, so the
            # parent is the segment's last reader.
            await self._in_thread(old_store.unlink)
            return {"generation": generation, "plans": self.plan_names()}

    # -- TCP protocol --------------------------------------------------- #
    async def _handle_request(self, request):
        """The reply to one request: a dict, or for ``execute`` the
        release's wire JSON bytes (``_respond`` splices them)."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True, "workers": self.pool.size}
        if op == "health":
            snapshot = await self.health(ledgers=bool(request.get("ledgers")))
            return {"ok": True, "health": snapshot}
        if op == "reload":
            return {"ok": True, "reload": await self.reload()}
        if op == "plan":
            return {"ok": True, "plans": await self.plan_list()}
        if op == "execute":
            switches = {
                name: bool(request[name]) for name in _SWITCHES if name in request
            }
            epsilon = request.get("epsilon")
            if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
                raise ValidationError(f"epsilon must be a number; got {epsilon!r}")
            deadline_ms = request.get("deadline_ms")
            deadline = None
            if deadline_ms is not None:
                if (not isinstance(deadline_ms, (int, float))
                        or isinstance(deadline_ms, bool) or deadline_ms < 0):
                    raise ValidationError(
                        f"deadline_ms must be a non-negative number; got {deadline_ms!r}"
                    )
                deadline = time.monotonic() + float(deadline_ms) / 1000.0
            return await self.execute(
                request.get("tenant"), request.get("plan"), epsilon, switches,
                deadline=deadline, key=request.get("key"),
            )
        if op == "budget":
            return {"ok": True, "budget": await self.budget(request.get("tenant"))}
        if op == "explain":
            epsilon = request.get("epsilon")
            return {
                "ok": True,
                "explain": await self.explain(request.get("plan"), epsilon),
            }
        raise ValidationError(
            f"unknown op {op!r}; choose plan/execute/explain/budget/ping/health/reload"
        )

    async def _respond(self, line, writer, write_lock):
        """Parse, dispatch and answer one request line. Every parsed
        request gets exactly one terminal reply: unexpected bugs surface
        as a structured ``InternalError`` rather than a dropped line."""
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValidationError("request must be a JSON object")
            request_id = request.get("id")
            response = await self._handle_request(request)
        except RemoteExecutionError as exc:
            response = {"ok": False, "error": exc.kind, "message": exc.message}
            retry_after = exc.retry_after
            if retry_after is None and exc.kind == "LedgerBusyError":
                retry_after = RETRY_AFTER_HINT
            if retry_after is not None:
                response["retry_after"] = retry_after
        except (ValidationError, ValueError) as exc:
            response = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        except WorkerBusyError as exc:
            response = {
                "ok": False, "error": "overloaded", "message": str(exc),
                "retry_after": RETRY_AFTER_HINT,
            }
        except WorkerCrashError as exc:
            response = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # the exactly-one-terminal-reply backstop
            response = {
                "ok": False, "error": "InternalError",
                "message": f"{type(exc).__name__}: {exc}",
            }
        if isinstance(response, bytes):
            # An execute's release, as the worker encoded it: spliced, not
            # re-encoded — byte-identical to json.dumps of the reply dict.
            parts = [b'{"ok": true, "release": ', response]
            if request_id is not None:
                parts += [b', "id": ', json.dumps(request_id).encode("utf-8")]
            parts.append(b"}\n")
            reply = b"".join(parts)
        else:
            if request_id is not None:
                response["id"] = request_id
            reply = json.dumps(response).encode("utf-8") + b"\n"
        async with write_lock:
            try:
                fire("serving.conn.drop")
            except InjectedFault:
                # Chaos drill: the connection dies mid-reply. Abort hard so
                # the client sees a reset, not a clean EOF.
                writer.transport.abort()
                return
            try:
                writer.write(reply)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # client went away
                pass

    async def _handle_connection(self, reader, writer):
        # Requests on one connection are dispatched CONCURRENTLY — that is
        # what lets the coalescer see simultaneous requests and form
        # batches (a serial read-dispatch-reply loop would defeat it).
        # Responses are written as they complete, so pipelined clients
        # must correlate by "id" (AsyncServiceClient does); a strict
        # request-reply client like ServiceClient is unaffected.
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                while len(tasks) >= MAX_CONNECTION_HANDLERS:
                    await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                task = asyncio.ensure_future(self._respond(line, writer, write_lock))
                tasks.add(task)
                self._respond_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._respond_tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- plans-dir watcher ---------------------------------------------- #
    def _plans_snapshot(self):
        return {
            path.name: (path.stat().st_mtime_ns, path.stat().st_size)
            for path in sorted(Path(self.config.plans_dir).glob("*.plan.npz"))
        }

    async def _watch_plans_loop(self):
        snapshot = self._plans_snapshot()
        while True:
            await asyncio.sleep(self.config.watch_interval)
            try:
                current = self._plans_snapshot()
            except OSError:  # directory mid-rename: retry next tick
                continue
            if current == snapshot:
                continue
            try:
                await self.reload()
            except Exception:
                # Transient (e.g. a plan file still being copied in): the
                # old generation keeps serving; retried next poll because
                # the snapshot only advances on success.
                continue
            snapshot = current

    # -- lifecycle ------------------------------------------------------- #
    async def start(self):
        """Bind the TCP server; returns (host, port) actually bound."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.watch_plans:
            self._watch_task = asyncio.create_task(self._watch_plans_loop())
        return self.address

    @property
    def address(self):
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self):
        """Graceful drain: stop accepting, serve everything accepted,
        stop the workers, release the shared segment."""
        if self._closed:
            return
        self._closed = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Quiesce before draining the coalescer: requests clients already
        # wrote may still be sitting unread in socket buffers — those are
        # "accepted" and owed a real answer, not a draining refusal. Wait
        # for in-flight dispatches to settle (bounded, so a client that
        # streams forever cannot stall shutdown indefinitely).
        quiesce_deadline = asyncio.get_running_loop().time() + 10.0
        while asyncio.get_running_loop().time() < quiesce_deadline:
            pending = {t for t in self._respond_tasks if not t.done()}
            if not pending:
                await asyncio.sleep(0.02)  # let buffered lines be read
                if not self._respond_tasks:
                    break
                continue
            await asyncio.wait(pending, timeout=quiesce_deadline - asyncio.get_running_loop().time())
        await self.coalescer.drain()
        await self._in_thread(self.pool.shutdown)
        self._executor.shutdown(wait=True)
        self._store.unlink()


async def _serve_async(config, ready=None):
    service = PlanService(config)
    host, port = await service.start()
    if ready is not None:
        ready(service, host, port)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.shutdown()
    return service


def serve(config, ready=None):
    """Blocking entry point (the CLI's ``serve`` target): run the service
    until interrupted, then drain gracefully. ``ready(service, host,
    port)`` is called once the socket is bound."""
    try:
        asyncio.run(_serve_async(config, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


def load_data_vector(path):
    """Load the service's private data vector from ``.npy`` (or a
    whitespace/comma text file) — the CLI's ``--data`` loader."""
    path = Path(path)
    if path.suffix == ".npy":
        return np.load(path, allow_pickle=False)
    return np.loadtxt(path, delimiter="," if path.suffix == ".csv" else None)
