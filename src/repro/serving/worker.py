"""Serving workers: one supervised process per slot, one engine per tenant.

Each worker attaches to the shared plan segment (:mod:`~repro.serving.shared_plans`),
rebuilds its plans once, and lazily constructs a
:class:`repro.engine.query_engine.PrivateQueryEngine` per tenant. Every
tenant engine

* **adopts** the shared data vector under the service-wide epoch token
  (zero-copy; all tenants in a worker share each plan's cached ``L x``),
* is backed by a per-tenant :class:`repro.privacy.ledger.DurableAccountant`
  at ``ledger_root/<tenant><suffix>`` — one ledger *path* per tenant shared
  by every worker, so N workers spending for the same tenant compose
  through the ledger's cross-process atomicity and can never jointly
  overspend.

The parent talks to workers over ``multiprocessing.Pipe`` with plain
tuples: ``("execute", tenant, plan_name, [(epsilon, switches, key), ...])``
(the idempotency ``key`` element is optional and may be ``None``),
``("budget", tenant)``, ``("explain", plan_name, epsilon)``, ``("ping",)``,
``("shutdown",)``. Replies are ``("ok", payload)`` or ``("error",
exception_class_name, message)`` — exceptions never cross the pipe raw, so
a worker bug cannot poison the parent's unpickler. An ``execute`` payload
is one ``(body, deduplicated)`` pair per request: ``body`` is the
release's finished wire JSON (UTF-8 bytes, see :func:`reply_bodies`) and
``deduplicated`` whether the ledger answered it from a stored key. The
parent never decodes a body: the server splices it into the reply line.
A worker announces itself with one unsolicited ``("ready", info)``
message once its engines can serve; the parent only dispatches to
workers that completed this handshake, so a slow boot is never mistaken
for a hang.

:class:`WorkerPool` is the parent-side supervisor. Each of the ``workers``
**slots** owns at most one live worker process at a time; a supervisor
thread heartbeats idle workers, executes delayed respawns, and enforces a
**restart budget with exponential backoff** per slot — a crash-looping slot
is *quarantined* (left empty, visible in :meth:`WorkerPool.health`) instead
of flapping forever. Every pipe round-trip carries a deadline: a worker
that stops answering — hung, not just dead — is killed with SIGKILL and
its slot respawned, surfacing :class:`WorkerTimeoutError` to the caller.
:meth:`WorkerPool.reload` swaps every slot to a new :class:`WorkerConfig`
generation-by-generation without dropping in-flight requests — the hot
plan-reload primitive.

Workers start from a **forkserver** that imported the worker's modules
(numpy, scipy, the engine, the shared-plan reader) once, so every boot,
respawn and reload generation after the first is a fork of an interpreter
that is already warm: milliseconds instead of a fresh interpreter's
imports. The forkserver belongs to the process: the first pool launches
it, with this process's ``sys.path`` as its ``PYTHONPATH`` so the preload
finds ``repro``, and an ``atexit`` hook stops and reaps it (ending any
worker still running first). A forked worker does not inherit the
forkserver's environment: each worker process carries the environment its
parent has when the worker is created and installs it before
:func:`worker_main` runs, which re-arms ``REPRO_FAILPOINTS`` from it and
then arms ``WorkerConfig.failpoints`` — the same set a freshly imported
worker would arm. Variables read only at import (BLAS thread counts, for
one) keep the value they had when the forkserver launched.
"""

from __future__ import annotations

import atexit
import gc
import json
import multiprocessing
import os
import queue as queue_module
import sys
import threading
import time
from multiprocessing import forkserver
from multiprocessing.context import ForkServerProcess
from pathlib import Path

from repro.exceptions import ReproError, ValidationError
from repro.io.atomic import RetryPolicy

__all__ = [
    "WorkerConfig",
    "WorkerPool",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "WorkerBusyError",
    "worker_main",
    "SERVING_LEDGER_RETRY",
]

#: Lock patience for per-tenant ledgers under serving load. The library
#: default (~0.2 s of cumulative backoff) suits occasional contention; a
#: pool of workers spending on ONE tenant's flock-serialized ledger at
#: high concurrency queues dozens of spends deep, so workers wait ~2 s
#: before surfacing LedgerBusyError as backpressure to the client.
SERVING_LEDGER_RETRY = RetryPolicy(attempts=48, base_delay=0.001, max_delay=0.05)


#: What the forkserver imports once, so every worker it forks starts with
#: numpy, scipy and the engine already loaded.
_PRELOAD = ["repro.serving.worker", "repro.engine.query_engine", "repro.serving.shared_plans"]

#: The forkserver is one per process, so its lock and exit flag are too:
#: the lock serializes worker starts with the server's launch and stop.
_forkserver_lock = threading.Lock()
_exiting = False


class _WorkerProcess(ForkServerProcess):
    """A worker forked by the forkserver, carrying the environment its
    parent had when it was created. A forked child inherits the server's
    environment from the server's launch instead, so :meth:`run` installs
    the captured one before the target runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._environ = dict(os.environ)

    def run(self):
        os.environ.clear()
        os.environ.update(self._environ)
        super().run()


def _launch_forkserver():
    """Launch the process's forkserver and have it stopped at exit
    (caller holds the lock). The server ignores the ``sys.path`` it is
    handed and swallows a failed preload, so this process's ``sys.path``
    travels as ``PYTHONPATH`` for the launch only."""
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        entry for entry in sys.path if isinstance(entry, str) and entry
    )
    try:
        forkserver.set_forkserver_preload(_PRELOAD)
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved
    atexit.register(_stop_forkserver)


def _start_worker(args, name):
    """Fork one worker process from the forkserver, launching it first."""
    with _forkserver_lock:
        if _exiting:
            raise WorkerCrashError("the interpreter is exiting", delivered=False)
        process = _WorkerProcess(target=worker_main, args=args, name=name, daemon=True)
        if forkserver._forkserver._forkserver_pid is None:
            _launch_forkserver()
        process.start()
    return process


def _stop_forkserver():
    """Interpreter exit: end the forkserver and reap it, so it never
    outlives this process. Every worker holds the server's liveness pipe,
    so workers still running are ended first, as multiprocessing's own
    exit handler (which runs after this one) would end them."""
    global _exiting
    with _forkserver_lock:
        _exiting = True
        workers = [
            child for child in multiprocessing.active_children()
            if isinstance(child, _WorkerProcess)
        ]
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join(5.0)
            if worker.is_alive():  # pragma: no cover - ignores SIGTERM
                worker.kill()
                worker.join()
        forkserver._forkserver._stop()


class WorkerCrashError(ReproError):
    """A worker died (or its pipe broke) while serving a request.

    ``delivered`` records whether the command reached the worker before it
    died: an *undelivered* command is safe to retry on another worker (no
    side effects happened); a delivered one is not — for ``execute`` the
    ledger may already hold the spend.
    """

    def __init__(self, message, delivered=True):
        super().__init__(message)
        self.delivered = delivered


class WorkerTimeoutError(WorkerCrashError):
    """A worker exceeded its per-request deadline: hung, killed, respawned."""


class WorkerBusyError(WorkerCrashError):
    """No worker became free within the checkout timeout (pool saturated)."""

    def __init__(self, message):
        super().__init__(message, delivered=False)


class WorkerConfig:
    """Picklable per-service worker parameters.

    ``total_epsilon``/``total_delta`` are the **per-tenant** budget;
    ``accountant`` the model name (``None`` for the default composition);
    ``ledger_suffix`` picks the ledger backend by file extension;
    ``seed`` the base RNG seed (worker index and tenant name are folded in
    so no two engines share a noise stream; ``None`` for OS entropy);
    ``ledger_retry`` the ledger lock patience (``None`` for
    :data:`SERVING_LEDGER_RETRY`); ``failpoints`` an optional
    ``{point: action}`` dict armed at worker startup (the crash-drill
    hook, mirroring ``REPRO_FAILPOINTS``).
    """

    def __init__(self, manifest, ledger_root, total_epsilon, total_delta=0.0,
                 accountant=None, ledger_suffix=".journal", seed=None,
                 ledger_retry=None, failpoints=None):
        self.manifest = manifest
        self.ledger_root = str(ledger_root)
        self.total_epsilon = float(total_epsilon)
        self.total_delta = float(total_delta)
        self.accountant = accountant
        self.ledger_suffix = ledger_suffix
        self.seed = seed
        self.ledger_retry = SERVING_LEDGER_RETRY if ledger_retry is None else ledger_retry
        self.failpoints = dict(failpoints or {})

    def replace(self, **overrides):
        """A copy with some fields swapped (manifest for hot reload,
        failpoints for per-slot drills)."""
        fields = {
            "manifest": self.manifest,
            "ledger_root": self.ledger_root,
            "total_epsilon": self.total_epsilon,
            "total_delta": self.total_delta,
            "accountant": self.accountant,
            "ledger_suffix": self.ledger_suffix,
            "seed": self.seed,
            "ledger_retry": self.ledger_retry,
            "failpoints": self.failpoints,
        }
        fields.update(overrides)
        return WorkerConfig(**fields)


def _tenant_seed(base, worker_index, tenant):
    if base is None:
        return None
    import hashlib

    digest = hashlib.sha1(f"{base}:{worker_index}:{tenant}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _head_key(release, cost):
    """A hashable key for the part of a release's wire JSON fixed by its
    plan and cost (the cost record is a flat dict; a list member, the
    subsampled ``charged`` pair, is keyed by its JSON)."""
    items = None if cost is None else tuple(
        (name, json.dumps(value) if isinstance(value, list) else value)
        for name, value in cost.items()
    )
    return (release.mechanism, release.epsilon, release.delta,
            release.expected_error, items)


def reply_bodies(releases):
    """Each Release's wire JSON, as ``(body, deduplicated)`` pairs.

    ``body`` is byte-identical to ``json.dumps`` of the dict ``{"values",
    "mechanism", "epsilon", "delta", "expected_error", "cost",
    "realized"}`` — what a client can use; the audit log keeps the full
    object worker-side. ``cost`` is the typed NoiseCost record charged
    (family, base (epsilon, delta), noise magnitude, sample rate, and the
    amplified ``charged`` pair for subsampled releases). The part fixed by
    the plan and cost is encoded once per distinct value in the batch;
    per release only ``values`` and ``realized`` are formatted. A replay
    comes through here from its stored values, so a same-key retry is
    byte-identical to the original reply."""
    heads = {}
    bodies = []
    for release in releases:
        metadata = release.metadata
        cost = metadata.get("cost")
        key = _head_key(release, cost)
        head = heads.get(key)
        if head is None:
            head = heads[key] = json.dumps({
                "mechanism": release.mechanism,
                "epsilon": release.epsilon,
                "delta": release.delta,
                "expected_error": release.expected_error,
                "cost": cost,
            })[1:-1].encode("utf-8")
        body = b'{"values": %s, %s, "realized": %s}' % (
            json.dumps(release.answers.tolist()).encode("utf-8"),
            head,
            json.dumps(metadata.get("realized")).encode("utf-8"),
        )
        bodies.append((body, bool(metadata.get("deduplicated"))))
    return bodies


class _WorkerState:
    """Everything one worker process owns."""

    def __init__(self, config, worker_index):
        from repro.serving.shared_plans import attach_plans

        self.config = config
        self.worker_index = worker_index
        self.store = attach_plans(config.manifest)
        self.data, self.data_epoch = self.store.data()
        self.engines = {}

    def engine(self, tenant):
        engine = self.engines.get(tenant)
        if engine is None:
            from repro.engine.query_engine import PrivateQueryEngine

            config = self.config
            ledger_path = Path(config.ledger_root) / f"{tenant}{config.ledger_suffix}"
            ledger_path.parent.mkdir(parents=True, exist_ok=True)
            engine = PrivateQueryEngine(
                self.data,
                total_budget=config.total_epsilon,
                delta=config.total_delta,
                seed=_tenant_seed(config.seed, self.worker_index, tenant),
                accountant=config.accountant,
                ledger_path=ledger_path,
                ledger_retry=config.ledger_retry,
            )
            engine.adopt_data(self.data, self.data_epoch)
            self.engines[tenant] = engine
        return engine

    # -- command handlers ---------------------------------------------- #
    def execute(self, tenant, plan_name, requests):
        engine = self.engine(tenant)
        plan = self.store.plan(plan_name)
        # Requests are (epsilon, switches) or (epsilon, switches, key):
        # the idempotency key rides through to the engine, which answers
        # already-charged keys from the durable result journal instead of
        # spending again.
        releases = engine.execute_many([(plan, *request) for request in requests])
        return reply_bodies(releases)

    def budget(self, tenant):
        engine = self.engine(tenant)
        accountant = engine.accountant.sync()
        return {
            "tenant": tenant,
            "model": accountant.name,
            "total_epsilon": accountant.total_epsilon,
            "total_delta": accountant.total_delta,
            "spent_epsilon": accountant.spent_epsilon,
            "spent_delta": accountant.spent_delta,
            "remaining_epsilon": accountant.remaining_epsilon,
        }

    def explain(self, plan_name, epsilon):
        plan = self.store.plan(plan_name)
        return plan.explain(epsilon=epsilon)

    def plan_info(self, plan_name):
        metadata = self.store.metadata(plan_name)
        plan_meta = metadata.get("plan", {})
        workload_meta = metadata.get("workload", {})
        return {
            "name": plan_name,
            "mechanism": plan_meta.get("mechanism_label"),
            "workload_key": plan_meta.get("workload_key"),
            "shape": workload_meta.get("shape"),
            "solver_version": metadata.get("solver_version", 0),
            "requires_delta": metadata.get("delta") is not None,
        }


def worker_main(connection, config, worker_index):
    """Worker process entry point: blocking command loop over the pipe."""
    # Everything inherited from the forkserver (the preloaded modules) is
    # long-lived: move it to the permanent generation so no collection
    # writes to its object headers, which would copy the shared pages.
    gc.freeze()
    from repro.testing.faults import failpoints, fire

    failpoints.load_environ()
    for name, action in config.failpoints.items():
        failpoints.arm(name, action)
    fire("serving.worker.boot")
    state = _WorkerState(config, worker_index)
    connection.send(("ready", {"pid": os.getpid(), "worker": worker_index}))
    try:
        while True:
            try:
                command = connection.recv()
            except EOFError:  # parent died: nothing left to serve
                break
            op = command[0]
            if op == "shutdown":
                connection.send(("ok", "bye"))
                break
            try:
                fire("serving.worker.request")
                if op == "execute":
                    payload = state.execute(command[1], command[2], command[3])
                elif op == "budget":
                    payload = state.budget(command[1])
                elif op == "explain":
                    payload = state.explain(command[1], command[2])
                elif op == "plan_info":
                    payload = state.plan_info(command[1])
                elif op == "ping":
                    payload = {"pid": os.getpid(), "worker": worker_index}
                else:
                    raise ValidationError(f"unknown worker command {op!r}")
                fire("serving.worker.before_reply")
                connection.send(("ok", payload))
            except BaseException as exc:  # reported to the parent, never raised raw
                connection.send(("error", type(exc).__name__, str(exc)))
    finally:
        for engine in state.engines.values():
            engine.accountant.close()
        state.store.close()
        connection.close()


class _Slot:
    """One supervised worker position: restart accounting lives here, the
    process itself lives in the (replaceable) handle."""

    def __init__(self, slot_id):
        self.slot_id = slot_id
        self.handle = None
        self.restarts = 0        # consecutive, reset once a worker stays healthy
        self.total_restarts = 0
        self.quarantined = False
        self.respawn_due = 0.0   # monotonic time a pending delayed respawn runs


class _WorkerHandle:
    def __init__(self, process, connection, index, slot, generation):
        self.process = process
        self.connection = connection
        self.index = index
        self.slot = slot
        self.generation = generation
        self.lock = threading.Lock()
        self.ready = threading.Event()
        self.dead = False       # crashed / killed: never dispatch again
        self.retired = False    # deliberately replaced: don't count as a crash
        self.spawned_at = time.monotonic()
        self.last_ok = self.spawned_at

    def request(self, command, deadline=None):
        """One synchronous round-trip (serialized per worker). ``deadline``
        is a monotonic timestamp bounding the wait for the reply; past it
        the worker is presumed hung and :class:`WorkerTimeoutError` raises
        (the pool kills and respawns it)."""
        with self.lock:
            if self.dead or self.retired:
                raise WorkerCrashError(
                    f"worker {self.index} is gone", delivered=False
                )
            try:
                self.connection.send(command)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrashError(
                    f"worker {self.index} (pid {self.process.pid}) died before "
                    f"accepting {command[0]!r}",
                    delivered=False,
                ) from exc
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self.connection.poll(remaining):
                        raise WorkerTimeoutError(
                            f"worker {self.index} (pid {self.process.pid}) exceeded "
                            f"its deadline serving {command[0]!r}"
                        )
                reply = self.connection.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerCrashError(
                    f"worker {self.index} (pid {self.process.pid}) died "
                    f"serving {command[0]!r}"
                ) from exc
            self.last_ok = time.monotonic()
            return reply

    def heartbeat(self, timeout):
        """Ping an *idle* worker; True when healthy or busy, False when it
        is provably dead or hung (caller kills + respawns)."""
        if not self.lock.acquire(blocking=False):
            return True  # mid-request: the per-request deadline covers it
        try:
            if self.dead or self.retired:
                return True
            try:
                self.connection.send(("ping",))
                if not self.connection.poll(timeout):
                    return False
                self.connection.recv()
            except (EOFError, BrokenPipeError, OSError):
                return False
            self.last_ok = time.monotonic()
            return True
        finally:
            self.lock.release()

    def alive(self):
        return not self.dead and self.process.is_alive()

    def stop(self, timeout=5.0):
        """Graceful retire: wait out any in-flight request, ask the worker
        to exit, then join (escalating to SIGKILL if it won't)."""
        self.retired = True
        with self.lock:
            if not self.dead and self.process.is_alive():
                try:
                    self.connection.send(("shutdown",))
                    if self.connection.poll(timeout):
                        self.connection.recv()
                except (EOFError, BrokenPipeError, OSError):
                    pass
            self.dead = True
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout)
        try:
            self.connection.close()
        except OSError:  # pragma: no cover
            pass


class WorkerPool:
    """Parent-side supervisor: spawn, dispatch, heartbeat, replace, drain.

    Every worker is forked from the process's preloaded forkserver (see
    the module docstring): the first pool in a process pays the server's
    imports, every later start — another pool, a respawn, a reload
    generation — takes milliseconds. There is no other start method.

    ``submit`` checks a worker out of the free queue, runs one request
    under a deadline, and returns it — callers block only while all
    workers are busy (up to ``timeout``, then :class:`WorkerBusyError`).
    A crashed or hung worker is killed and its **slot** respawned by the
    supervisor thread: immediately on the first crash, then with
    exponential backoff, and after ``restart_budget`` consecutive crashes
    the slot is quarantined — the pool keeps serving on its remaining
    slots instead of flapping. ``respawn=False`` quarantines on the first
    crash (for drills that count workers). ``failpoints_by_worker`` keys
    on the monotonically increasing worker *index* (respawns never re-arm);
    ``failpoints_by_slot`` keys on the slot and re-arms every respawn —
    the crash-loop drill hook.
    """

    def __init__(self, config, workers, respawn=True, failpoints_by_worker=None,
                 failpoints_by_slot=None, request_timeout=30.0,
                 heartbeat_interval=1.0, heartbeat_timeout=5.0,
                 restart_budget=5, backoff_base=0.1, backoff_max=5.0,
                 healthy_after=30.0, boot_timeout=60.0):
        if int(workers) <= 0:
            raise ValidationError("WorkerPool needs at least one worker")
        self._config = config
        self._respawn = respawn
        self._failpoints_by_worker = dict(failpoints_by_worker or {})
        self._failpoints_by_slot = dict(failpoints_by_slot or {})
        self.request_timeout = None if request_timeout is None else float(request_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.restart_budget = int(restart_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.healthy_after = float(healthy_after)
        self.boot_timeout = float(boot_timeout)
        self._next_index = 0
        self._generation = 0
        self._crashes = 0
        self._timeouts = 0
        self._free = queue_module.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._wakeup = threading.Event()
        self._slots = [_Slot(slot_id) for slot_id in range(int(workers))]
        with self._lock:
            for slot in self._slots:
                self._spawn(slot, enqueue=False)
        # Boot happens in parallel, but the free queue is filled in slot
        # order so first dispatches land on worker 0, 1, ... — tests and
        # failpoint drills rely on that determinism.
        boot_handles = [slot.handle for slot in self._slots]
        deadline = time.monotonic() + self.boot_timeout
        for handle in boot_handles:
            while not (handle.ready.is_set() or handle.dead):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            if handle.ready.is_set() and not handle.dead and not handle.retired:
                self._free.put(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # Spawning and the ready handshake
    # ------------------------------------------------------------------ #
    def _config_for(self, index, slot_id):
        merged = {}
        merged.update(self._failpoints_by_slot.get(slot_id) or {})
        merged.update(self._failpoints_by_worker.get(index) or {})
        if merged:
            return self._config.replace(failpoints=merged)
        return self._config

    def _spawn(self, slot, enqueue=True):
        """Start a worker for ``slot`` (caller holds ``self._lock``). The
        handle only enters the free queue once its ready handshake lands;
        ``enqueue=False`` leaves that to the caller (initial boot, which
        enqueues in slot order)."""
        index = self._next_index
        self._next_index += 1
        config = self._config_for(index, slot.slot_id)
        parent_end, worker_end = multiprocessing.Pipe()
        process = _start_worker((worker_end, config, index), f"repro-serve-{index}")
        worker_end.close()
        handle = _WorkerHandle(process, parent_end, index, slot, self._generation)
        slot.handle = handle
        slot.respawn_due = 0.0
        threading.Thread(
            target=self._await_ready,
            args=(handle, enqueue),
            name=f"repro-serve-ready-{index}",
            daemon=True,
        ).start()
        return handle

    def _await_ready(self, handle, enqueue=True):
        try:
            # The handshake holds the connection like any request: a
            # stop() racing the boot must not read the same pipe.
            with handle.lock:
                if not handle.connection.poll(self.boot_timeout):
                    raise WorkerTimeoutError(
                        f"worker {handle.index} did not become ready within "
                        f"{self.boot_timeout}s"
                    )
                message = handle.connection.recv()
            if not (isinstance(message, tuple) and message and message[0] == "ready"):
                raise WorkerCrashError(
                    f"worker {handle.index} sent {message!r} instead of the "
                    "ready handshake"
                )
        except (EOFError, BrokenPipeError, OSError, WorkerCrashError):
            self._report_crash(handle, hung=False)
            return
        handle.ready.set()
        handle.last_ok = time.monotonic()
        if not enqueue:
            return
        with self._lock:
            usable = (
                not self._closed
                and not handle.retired
                and not handle.dead
                and handle.slot.handle is handle
            )
        if usable:
            self._free.put(handle)

    # ------------------------------------------------------------------ #
    # Crash accounting, backoff, quarantine
    # ------------------------------------------------------------------ #
    def _report_crash(self, handle, hung):
        """Count one worker death exactly once and schedule its slot's
        respawn (or quarantine it)."""
        with self._lock:
            if handle.dead:
                return
            handle.dead = True
            retired = handle.retired
            if not retired:
                self._crashes += 1
                if hung:
                    self._timeouts += 1
        try:
            if handle.process.is_alive():
                handle.process.kill()
        except Exception:  # pragma: no cover - already reaped
            pass
        with self._lock:
            slot = handle.slot
            if self._closed or retired or slot.handle is not handle:
                return
            slot.handle = None
            if not self._respawn:
                slot.quarantined = True
                return
            now = time.monotonic()
            if now - handle.spawned_at >= self.healthy_after:
                slot.restarts = 0
            slot.restarts += 1
            slot.total_restarts += 1
            if slot.restarts > self.restart_budget:
                slot.quarantined = True
                return
            if slot.restarts == 1:
                self._spawn(slot)  # first crash: replace immediately
            else:
                delay = min(
                    self.backoff_max, self.backoff_base * (2 ** (slot.restarts - 2))
                )
                slot.respawn_due = now + delay
                self._wakeup.set()

    # ------------------------------------------------------------------ #
    # Supervisor thread: delayed respawns + heartbeats
    # ------------------------------------------------------------------ #
    def _supervise(self):
        while True:
            self._wakeup.wait(timeout=self._poll_interval())
            self._wakeup.clear()
            if self._closed:
                return
            self._run_due_respawns()
            self._heartbeat_sweep()

    def _poll_interval(self):
        interval = self.heartbeat_interval
        now = time.monotonic()
        with self._lock:
            for slot in self._slots:
                if slot.handle is None and not slot.quarantined and slot.respawn_due:
                    interval = min(interval, max(0.01, slot.respawn_due - now))
        return max(0.01, interval)

    def _run_due_respawns(self):
        now = time.monotonic()
        with self._lock:
            if self._closed:
                return
            for slot in self._slots:
                if (
                    slot.handle is None
                    and not slot.quarantined
                    and slot.respawn_due
                    and slot.respawn_due <= now
                ):
                    self._spawn(slot)

    def _heartbeat_sweep(self):
        now = time.monotonic()
        with self._lock:
            candidates = [
                slot.handle
                for slot in self._slots
                if slot.handle is not None
                and slot.handle.ready.is_set()
                and not slot.handle.dead
                and now - slot.handle.last_ok >= self.heartbeat_interval
            ]
        for handle in candidates:
            if self._closed:
                return
            if not handle.heartbeat(self.heartbeat_timeout):
                self._report_crash(handle, hung=handle.process.is_alive())

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    @property
    def size(self):
        with self._lock:
            return sum(
                1 for slot in self._slots
                if slot.handle is not None and slot.handle.alive()
            )

    def pids(self):
        """Live worker pids (the chaos suite's kill list)."""
        with self._lock:
            return [
                slot.handle.process.pid
                for slot in self._slots
                if slot.handle is not None and slot.handle.alive()
            ]

    def submit(self, command, timeout=None, deadline=None, retry_delivered=False):
        """Run one command on any free worker; returns the reply tuple —
        ``("ok", payload)`` or ``("error", exception_name, message)`` —
        verbatim, so callers map worker-reported failures onto their own
        error surface. Raises :class:`WorkerCrashError` if the worker dies
        mid-request (its slot is respawned per the supervision policy),
        :class:`WorkerTimeoutError` if it hangs past the deadline (killed
        and respawned), :class:`WorkerBusyError` if no worker frees up
        within ``timeout``. ``deadline`` is a monotonic timestamp for this
        request's pipe round-trip; None applies ``request_timeout``.
        A command the worker provably never received is retried once on
        another worker before the crash surfaces.

        ``retry_delivered=True`` additionally retries a crash (or hang)
        *after* delivery once — only safe for idempotent commands, i.e.
        an ``execute`` where **every** request carries an idempotency key:
        if the dead worker's spend committed, the retry replays the stored
        result from the ledger's dedup index (the dedup check runs inside
        the ledger's exclusive transaction, so even a not-quite-dead
        victim racing the retry cannot double-charge); if it never
        committed, the key is free and the retry charges it exactly once.
        """
        if self._closed:
            raise ValidationError("WorkerPool is closed")
        checkout_deadline = None if timeout is None else time.monotonic() + timeout
        retries = 0
        while True:
            remaining = (
                None if checkout_deadline is None
                else max(0.0, checkout_deadline - time.monotonic())
            )
            try:
                handle = self._free.get(timeout=remaining)
            except queue_module.Empty as exc:
                raise WorkerBusyError("no free worker within timeout") from exc
            if handle.dead or handle.retired:
                continue  # dropped: its slot is already being handled
            request_deadline = deadline
            if request_deadline is None and self.request_timeout is not None:
                request_deadline = time.monotonic() + self.request_timeout
            try:
                reply = handle.request(command, deadline=request_deadline)
            except WorkerTimeoutError:
                self._report_crash(handle, hung=True)
                if (
                    retry_delivered
                    and retries < 1
                    and (
                        request_deadline is None
                        or request_deadline - time.monotonic() > 0.05
                    )
                ):
                    retries += 1
                    continue  # keyed: the ledger dedups any committed spend
                raise
            except WorkerCrashError as exc:
                self._report_crash(handle, hung=False)
                if (not exc.delivered or retry_delivered) and retries < 1:
                    retries += 1
                    continue  # undelivered, or keyed and therefore idempotent
                raise
            self._free.put(handle)
            return reply

    # ------------------------------------------------------------------ #
    # Health, hot reload, drain
    # ------------------------------------------------------------------ #
    def health(self):
        """Supervision snapshot: per-slot liveness plus pool counters."""
        with self._lock:
            slots = []
            for slot in self._slots:
                handle = slot.handle
                slots.append({
                    "slot": slot.slot_id,
                    "alive": bool(handle is not None and handle.alive()),
                    "ready": bool(handle is not None and handle.ready.is_set()),
                    "pid": handle.process.pid if handle is not None else None,
                    "generation": handle.generation if handle is not None else None,
                    "restarts": slot.total_restarts,
                    "quarantined": slot.quarantined,
                })
            return {
                "workers": len(self._slots),
                "alive": sum(1 for entry in slots if entry["alive"]),
                "quarantined": sum(1 for entry in slots if entry["quarantined"]),
                "crashes": self._crashes,
                "timeouts": self._timeouts,
                "restarts": sum(slot.total_restarts for slot in self._slots),
                "generation": self._generation,
                "slots": slots,
            }

    def reload(self, new_config):
        """Swap every slot to ``new_config`` one generation at a time.

        Each slot spawns its new-generation worker, waits for its ready
        handshake, then gracefully retires the old worker — which first
        finishes any in-flight request, so nothing is dropped. Quarantined
        slots are given a clean restart record (the new config may well
        remove the crash cause). Returns the new generation number."""
        from repro.testing.faults import fire

        with self._reload_lock:
            with self._lock:
                if self._closed:
                    raise ValidationError("WorkerPool is closed")
                self._generation += 1
                generation = self._generation
                self._config = new_config
                slots = list(self._slots)
            for slot in slots:
                fire("serving.reload.mid_swap")
                with self._lock:
                    if self._closed:
                        break
                    slot.quarantined = False
                    slot.restarts = 0
                    old = slot.handle
                    if old is not None and old.generation >= generation:
                        continue  # a respawn already picked up the new config
                    fresh = self._spawn(slot)
                fresh.ready.wait(timeout=self.boot_timeout)
                if old is not None:
                    old.stop()
            return generation

    def shutdown(self):
        """Graceful drain: every worker finishes its in-flight request,
        receives ``shutdown``, and is joined."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = [slot.handle for slot in self._slots if slot.handle is not None]
        self._wakeup.set()
        self._supervisor.join(timeout=5.0)
        for handle in handles:
            handle.stop()
        with self._lock:
            for slot in self._slots:
                slot.handle = None
