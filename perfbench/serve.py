"""``serve_hot_tenant`` and ``serve_tenant_mix``: the TCP service.

Both run ``PlanService`` in the benchmark process with one worker (the
benchmark process and the worker fit the two cores of the reference
host), real on-disk ledgers flushed by the program's own fsync, and one
closed-loop client connection in the same process.

A run starts the service once untimed, to warm the page cache, and then
``SETUPS`` times, each on a fresh copy of the aged ledgers: each start is
a timed set-up followed by a timed round of the workload's requests, with
its own keys and noise seed. Splitting the timed phase into rounds keeps
the ledgers as young in the last round as in the first, and spreads the
timed work over the whole run, so one slow phase of a shared host weighs
on one round, not on the run.

* ``serve_hot_tenant``: service defaults and the default journal ledger.
  One tenant already has history, written through keyed ``execute_many``
  batches before the set-up clock starts. Keyed releases (the client
  default) with ``max_batch`` requests in flight on one connection; one
  batch in ten re-sends an earlier batch's keys.
* ``serve_tenant_mix``: the SQLite ledger (``ledger_suffix=".db"``).
  Many tenants with young ledgers, plans of several shapes, one client
  with one request in flight, so every batch is one request. Fresh keyed
  releases, ``key=False`` releases, same-key retries and budget reads.
  With one worker a second closed-loop client adds only queueing behind
  the first, and how often the two collide swung the p90 latency by a
  third from run to run.

The traced run (``--trace 1``) repeats the whole service lifecycle from
the same pristine ledgers with ``PlanService.execute``,
``Coalescer.submit`` and ``WorkerPool.submit`` wrapped and the worker's
own command handling timed from inside it, and replays each drained
block of the worker's command stream in process through
``PrivateQueryEngine.execute``/``execute_many`` on a copy of the same
ledgers to split the worker's time into engine, ledger and compiled-answer
layers.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import shutil
import sqlite3
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import inputs
from perfbench.common import (LAYER_SUM_TOLERANCE, Gate, growth, own_peak_rss_mb,
                              quantile, vm_hwm_mb)

SUFFIX = {"serve_hot_tenant": ".journal", "serve_tenant_mix": ".db"}

#: Set-ups measured per run (after one untimed start that warms the page
#: cache); ``setup_s`` is their median. A start takes about a second and
#: varied by a third over thirty starts. Each set-up is followed by one
#: round of the timed phase.
SETUPS = 7

#: Hot tenant: pre-written history (releases, in batches) and in-flight
#: requests (the service's default ``max_batch``).
HOT_HISTORY = 1000
HOT_HISTORY_BATCH = 50
HOT_INFLIGHT = 32
#: Timed requests per second of ``--seconds``, over all rounds (the count
#: is fixed; the wall time is what is measured).
HOT_REQUESTS_PER_SECOND = 270

#: Tenant mix: tenants, history releases per tenant, ops per second of
#: ``--seconds`` over all rounds.
MIX_TENANTS = 16
MIX_HISTORY = 8
MIX_OPS_PER_SECOND = 230

#: Ops per block of the traced lifecycle's alternation of untraced and
#: traced blocks (:func:`perfbench.trace.traced_block`), after a warm-up
#: of a ninth of the traced lifecycle's ops. Every op of a block finishes
#: before the next block starts; hot-tenant blocks are whole batches.
TRACE_BLOCK = {"serve_hot_tenant": HOT_INFLIGHT, "serve_tenant_mix": 20}

#: Rounds' worth of ops the traced lifecycle runs on its one start, so the
#: layer sum rests on enough groups of four blocks.
TRACE_ROUNDS = 2


class Op:
    __slots__ = ("index", "kind", "tenant", "plan", "key", "start", "end",
                 "reply", "error", "traced")

    def __init__(self, index, kind, tenant, plan, key):
        self.index = index
        self.kind = kind
        self.tenant = tenant
        self.plan = plan
        self.key = key
        self.start = self.end = None
        self.reply = None
        self.error = None
        self.traced = False

    @property
    def latency(self):
        return self.end - self.start


class Scenario:
    """Inputs and fixed shape of one serve workload at one seed."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.suffix = SUFFIX[workload]
        self.data = inputs.data_vector(seed)
        self.hot = workload == "serve_hot_tenant"
        self.plan_specs = inputs.HOT_PLANS if self.hot else inputs.MIX_PLANS
        self.tenants = ["hot"] if self.hot else [f"t{i:02d}" for i in range(MIX_TENANTS)]
        self.inflight = HOT_INFLIGHT if self.hot else 1
        rate = HOT_REQUESTS_PER_SECOND if self.hot else MIX_OPS_PER_SECOND
        # Whole batches of in-flight requests per round.
        self.round_count = max(1, round(rate * seconds / SETUPS / self.inflight)) * self.inflight
        self.trace_count = TRACE_ROUNDS * self.round_count
        self.plans_dir = workdir / "plans"
        self.pristine = workdir / "pristine"
        self.plans = {}
        self.keys_before = {tenant: 0 for tenant in self.tenants}

    # -- inputs (before any clock) -------------------------------------- #
    def fit_plans(self):
        from repro.engine.plan import build_plan
        from repro.io.serialization import save_plan

        self.plans_dir.mkdir()
        workloads = inputs.serve_workloads(self.seed, self.plan_specs)
        for name, (_, _, mechanism) in sorted(self.plan_specs.items()):
            plan = build_plan(workloads[name], epsilon_hint=inputs.EPSILON,
                              mechanism=mechanism)
            save_plan(plan, self.plans_dir / f"{name}.plan.npz")
            self.plans[name] = plan

    def write_history(self):
        """Aged ledgers, written through keyed ``execute_many`` batches."""
        from repro.engine.query_engine import PrivateQueryEngine

        self.pristine.mkdir()
        names = sorted(self.plans)
        per_tenant = HOT_HISTORY if self.hot else MIX_HISTORY
        batch = HOT_HISTORY_BATCH if self.hot else MIX_HISTORY
        for tenant in self.tenants:
            engine = PrivateQueryEngine(
                self.data, total_budget=inputs.TOTAL_BUDGET,
                seed=int(inputs.stream(self.seed, f"history-{tenant}").integers(2**31)),
                ledger_path=self.pristine / f"{tenant}{self.suffix}",
            )
            for start in range(0, per_tenant, batch):
                engine.execute_many([
                    (self.plans[names[i % len(names)]], inputs.EPSILON, {},
                     inputs.key(self.seed, f"history-{tenant}", i))
                    for i in range(start, min(start + batch, per_tenant))
                ])
            engine.accountant.close()
            self.keys_before[tenant] = per_tenant

    def ops(self, number, count=None):
        """The ops of round ``number`` in issue order (``count`` of them,
        one round's by default)."""
        count = count or self.round_count
        if self.hot:
            entries = inputs.hot_stream(self.seed, count, HOT_INFLIGHT, tag=f"hot{number}")
        else:
            entries = inputs.mix_stream(self.seed, self.tenants, sorted(self.plans), count,
                                        tag=f"mix{number}")
        return [Op(index, *entry) for index, entry in enumerate(entries)]

    def trace_blocks(self):
        """``(warm-up ops, ops per block)`` of the traced lifecycle; the
        warm-up is whole batches too, so no block boundary splits one."""
        block = TRACE_BLOCK[self.workload]
        return self.trace_count // 9 // block * block, block

    def config(self, ledger_root, number):
        from repro.serving import ServiceConfig

        kwargs = {} if self.hot else {"ledger_suffix": self.suffix}
        return ServiceConfig(
            self.plans_dir, ledger_root, self.data, inputs.TOTAL_BUDGET,
            workers=1,
            seed=int(inputs.stream(self.seed, f"service-noise-{number}").integers(2**31)),
            **kwargs,
        )

    def fresh_root(self, name):
        root = self.workdir / name
        shutil.copytree(self.pristine, root)
        return root


def ledger_bytes(path):
    """Bytes a ledger holds: the journal's size, or SQLite's logical size
    (pages x page size, including committed WAL frames)."""
    path = Path(path)
    if path.suffix != ".db":
        return path.stat().st_size
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        pages = connection.execute("PRAGMA page_count").fetchone()[0]
        size = connection.execute("PRAGMA page_size").fetchone()[0]
    finally:
        connection.close()
    return pages * size


class Lifecycle:
    """One service start, its round of the timed phase and its shutdown."""

    def __init__(self, scenario, root, number, tracer=None):
        self.scenario = scenario
        self.root = root
        self.number = number
        self.tracer = tracer
        self.service = None
        self.client = None
        self.setup_s = None
        self.setup_ops = []
        self.windows = []  # (start, end, group) of each traced-run block

    async def start(self):
        """Cold start until the first release for each tenant is served."""
        from repro.serving import AsyncServiceClient, PlanService

        scenario = self.scenario
        started = time.perf_counter()
        self.service = PlanService(scenario.config(self.root, self.number))
        host, port = await self.service.start()
        self.client = await AsyncServiceClient.connect(host, port)
        first_plan = sorted(scenario.plans)[0]
        for tenant in scenario.tenants:
            op = Op(-1, "fresh", tenant, first_plan,
                    inputs.key(scenario.seed, "setup", tenant))
            await self._execute(op)
            self.setup_ops.append(op)
        self.setup_s = time.perf_counter() - started

    async def _execute(self, op):
        from repro.serving import ServiceError

        op.start = time.perf_counter()
        try:
            if op.kind == "budget":
                op.reply = await self.client.budget(op.tenant)
            else:
                key = False if op.kind == "unkeyed" else op.key
                op.reply = await self.client.execute(op.tenant, op.plan, inputs.EPSILON,
                                                     key=key)
        except ServiceError as exc:
            op.error = exc.kind
        op.end = time.perf_counter()

    async def _traced_execute(self, op):
        if self.tracer is None or not self.tracer.enabled or op.kind == "budget":
            await self._execute(op)
            return
        with self.tracer.span("serving.client.execute", request=op.key,
                              info={"kind": op.kind}):
            await self._execute(op)

    async def timed(self, ops, after_block=None):
        """Closed loop: each of the scenario's in-flight lanes sends the
        next op when its last one returns.
        With a tracer, blocks of ops alternate untraced and traced, each
        block drained before the next starts, and ``after_block()`` runs
        between blocks. Returns the wall seconds."""
        from perfbench.trace import block_group, traced_block

        started = time.perf_counter()
        if self.tracer is None:
            await self._run(ops)
        else:
            warmup, block = self.scenario.trace_blocks()
            starts = [0] + list(range(warmup, len(ops), block))
            for start, end in zip(starts, starts[1:] + [len(ops)]):
                traced = traced_block(start, warmup, block)
                self.tracer.enabled = bool(traced)
                chunk = ops[start:end]
                block_start = time.perf_counter()
                await self._run(chunk)
                self.windows.append((block_start, time.perf_counter(),
                                     block_group(start, warmup, block)))
                for op in chunk:
                    op.traced = traced
                if after_block is not None:
                    after_block()
        return time.perf_counter() - started

    async def _run(self, ops):
        pending = iter(ops)

        async def lane():
            for op in pending:
                await self._traced_execute(op)

        await asyncio.gather(*[lane() for _ in range(self.scenario.inflight)])

    def ledger_paths(self):
        return [self.root / f"{tenant}{self.scenario.suffix}"
                for tenant in self.scenario.tenants]

    def worker_peak_mb(self):
        return max(vm_hwm_mb(pid) for pid in self.service.pool.pids())

    async def stop(self):
        await self.client.close()
        await self.service.shutdown()


async def _measure(scenario):
    """An untimed start that warms the page cache, then ``SETUPS`` rounds,
    each a timed set-up and a timed phase on fresh ledgers. Returns one
    result dict per round."""
    warm = Lifecycle(scenario, scenario.fresh_root("ledgers-warm"), -1)
    await warm.start()
    await warm.stop()
    rounds = []
    for number in range(SETUPS):
        life = Lifecycle(scenario, scenario.fresh_root(f"ledgers{number}"), number)
        await life.start()
        try:
            bytes_before = sum(ledger_bytes(path) for path in life.ledger_paths())
            ops = scenario.ops(number)
            wall = await life.timed(ops)
            worker_mb = life.worker_peak_mb()
            coalescer = life.service.coalescer
            coalesced, flushed = coalescer.requests_coalesced, coalescer.batches_flushed
        finally:
            await life.stop()
        bytes_after = sum(ledger_bytes(path) for path in life.ledger_paths())
        rounds.append({
            "life": life, "ops": ops, "wall": wall, "worker_mb": worker_mb,
            "coalesced": coalesced, "flushed": flushed,
            "ledger_bytes": bytes_after - bytes_before,
        })
    return rounds


def _check(gate, scenario, life, ops, samples):
    """Replies, retries and per-tenant charges of one round; adds the
    round's fresh releases to ``samples`` for the MSE check."""
    from repro.privacy.ledger import inspect_ledger

    plans = scenario.plans
    first_reply = {}
    fresh_keys = {tenant: set() for tenant in scenario.tenants}
    unkeyed = {tenant: 0 for tenant in scenario.tenants}
    for op in life.setup_ops + ops:
        if op.error is not None:
            continue
        if op.kind == "budget":
            gate.check(op.reply.get("tenant") == op.tenant,
                       f"op {op.index}: budget reply for the wrong tenant")
            continue
        where = f"op {op.index} ({op.kind} {op.tenant}/{op.plan})"
        gate.release(op.reply["values"], plans[op.plan].shape[0],
                     op.reply.get("cost"), where)
        encoded = json.dumps(op.reply)
        if op.kind == "retry":
            gate.check(encoded == first_reply.get(op.key),
                       f"{where}: same-key retry differs from the first reply")
            continue
        if op.kind == "unkeyed":
            unkeyed[op.tenant] += 1
        else:
            gate.check(op.key not in first_reply, f"{where}: key served twice as fresh")
            first_reply[op.key] = encoded
            fresh_keys[op.tenant].add(op.key)
        if op.index >= 0:
            samples[op.plan].append(op.reply["values"])
    for tenant, path in zip(scenario.tenants, life.ledger_paths()):
        report = inspect_ledger(path)
        keys = scenario.keys_before[tenant] + len(fresh_keys[tenant])
        gate.check(
            report["keyed_results"] == keys
            and report["costs"] == keys + unkeyed[tenant]
            and not report["dangling_intents"],
            f"ledger {tenant}: {report['costs']} charges and "
            f"{report['keyed_results']} stored results for {keys} unique keys "
            f"and {unkeyed[tenant]} unkeyed releases",
        )


def run(workload, seed, seconds, workdir, trace, out):
    """Returns ``(gate, attempted, failed, metrics, layers)``; ``out``
    collects the human-readable report lines."""
    scenario = Scenario(workload, seed, seconds, workdir)
    prep_tracer = None
    if trace:
        prep_tracer = _trace_prep()
    try:
        scenario.fit_plans()
    finally:
        if prep_tracer is not None:
            prep_tracer.unpatch()
    scenario.write_history()
    rounds = asyncio.run(_measure(scenario))
    ops = [op for result in rounds for op in result["ops"]]
    wall = sum(result["wall"] for result in rounds)

    gate = Gate()
    samples = {name: [] for name in scenario.plans}
    for result in rounds:
        _check(gate, scenario, result["life"], result["ops"], samples)
    for name, plan in scenario.plans.items():
        gate.mse(name, samples[name], plan.workload.answer(scenario.data),
                 plan.predicted_error(inputs.EPSILON))
    attempted = len(ops)
    failed = sum(1 for op in ops if op.error is not None)
    executes = [op for op in ops if op.kind != "budget" and op.error is None]
    fresh = [op.latency for op in executes if op.kind in ("fresh", "unkeyed")]
    retries = [op.latency for op in executes if op.kind == "retry"]
    charged = sum(1 for op in executes if op.kind in ("fresh", "unkeyed"))
    expected = sum(plan.predicted_error(inputs.EPSILON) for plan in scenario.plans.values())
    worker_mb = max(result["worker_mb"] for result in rounds)
    peak = max(own_peak_rss_mb(), worker_mb)
    batch_size = (sum(result["coalesced"] for result in rounds)
                  / sum(result["flushed"] for result in rounds))
    grown = sum(result["ledger_bytes"] for result in rounds)
    growths = [growth([op.latency for op in result["ops"]
                       if op.kind in ("fresh", "unkeyed") and op.error is None])
               for result in rounds]
    latency_growth = statistics.median(growths)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    out.append("plans: " + ", ".join(
        f"{name}={plan.mechanism_label}{plan.shape}"
        for name, plan in sorted(scenario.plans.items())))
    out.append(f"tenants: {len(scenario.tenants)}  in flight: {scenario.inflight}  "
               f"ops: {kinds}")
    setups = [result["life"].setup_s for result in rounds]
    out.append(f"rounds: {len(rounds)} of {scenario.round_count} ops, timed phases "
               f"{[round(result['wall'], 3) for result in rounds]} s")
    out.append(f"setup_s samples: {[round(value, 4) for value in setups]}")
    out.append(f"latency samples: {len(fresh)} fresh, {len(retries)} retries; "
               f"coalescer batch size {batch_size:.2f}; "
               f"ledger growth {grown} B over {charged} charged releases")
    replay_p50 = quantile(retries, 0.5) * 1e3 if retries else 0.0
    bytes_per_release = grown / charged
    out.append(f"replay_p50_ms = {replay_p50!r} ms ({len(retries)} samples)")
    out.append(f"ledger_bytes_per_release = {bytes_per_release!r} B")
    out.append(f"latency_growth = {latency_growth!r} ratio (median of rounds: "
               f"{[round(value, 4) for value in growths]})")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "releases_per_s": (len(executes) / wall, "1/s"),
        "latency_p50_ms": (quantile(fresh, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(fresh, 0.9) * 1e3, "ms"),
        "expected_error": (expected, "sq_error"),
        "peak_rss_mb": (peak, "MB"),
        "served_share": (1.0 - failed / attempted, "ratio"),
    }
    layers = None
    if trace:
        layers = _traced(scenario, prep_tracer, gate, out)
        layers["serving.coalescer.batch_size"] = (batch_size, "count")
        layers["serving.worker.rss_mb"] = (worker_mb, "MB")
        layers["serving.client.replay_p50_ms"] = (replay_p50, "ms")
        layers["session.latency_growth"] = (latency_growth, "ratio")
        layers["privacy.ledger.bytes_per_release"] = (bytes_per_release, "B")
    return gate, attempted, failed, metrics, layers


# ---------------------------------------------------------------------- #
# The traced run
# ---------------------------------------------------------------------- #
def _trace_prep():
    from repro.engine import plan as plan_module
    from repro.io import serialization
    from perfbench.trace import Tracer

    tracer = Tracer()
    tracer.wrap_lrm_fits()
    tracer.wrap(plan_module, "rank_mechanisms", "engine.selection.rank")
    tracer.wrap(serialization, "save_plan", "io.serialization.plan_io")
    return tracer


async def _traced_lifecycle(scenario, tracer, replay):
    """Set-up and timed phase with the in-process layers wrapped and the
    worker started through :func:`perfbench.trace.timed_worker_main`.
    Every worker command is recorded, traced or not, and ``replay`` re-runs
    each block's commands as soon as the block has drained, so the live
    worker and the replay run the same commands within a second or two of
    each other on a host whose speed drifts. Returns ``(ops, commands,
    setup commands, timed-phase start, block windows, worker
    intervals)``."""
    import os

    from repro.serving import server as server_module
    from repro.serving import worker as worker_module
    from repro.serving.coalescer import Coalescer
    from repro.serving.server import PlanService
    from repro.serving.worker import WorkerPool
    from perfbench.trace import WORKER_SPANS_ENV, read_worker_intervals, timed_worker_main

    commands = []
    lock = threading.Lock()

    def recording_submit(original):
        def submit(self, command, *args, **kwargs):
            with lock:
                commands.append(command)
                index = len(commands) - 1
            if not tracer.enabled:
                return original(self, command, *args, **kwargs)
            size = len(command[3]) if command[0] == "execute" else 0
            with tracer.span("serving.worker.submit",
                             info={"op": command[0], "size": size, "command": index}):
                return original(self, command, *args, **kwargs)
        return submit

    def request(self, tenant, plan, *args, key=None, **kwargs):
        return key, {"tenant": tenant, "plan": plan}

    intervals_dir = scenario.workdir / "worker-intervals"
    intervals_dir.mkdir()
    tracer.wrap(server_module, "stage_plans", "serving.shared_plans.stage")
    tracer.wrap(WorkerPool, "__init__", "serving.worker.ready")
    tracer.patch(WorkerPool, "submit", recording_submit)
    tracer.patch(worker_module, "worker_main", lambda original: timed_worker_main)
    tracer.wrap(PlanService, "execute", "serving.server.execute", describe=request)
    tracer.wrap(Coalescer, "submit", "serving.coalescer.submit", describe=request)
    os.environ[WORKER_SPANS_ENV] = str(intervals_dir)
    try:
        life = Lifecycle(scenario, scenario.fresh_root("traced"), 0, tracer)
        await life.start()
        setup_commands = len(commands)
        timed_from = time.perf_counter()
        ops = scenario.ops(0, scenario.trace_count)
        try:
            await life.timed(ops, after_block=lambda: replay.run(commands))
        finally:
            tracer.enabled = True
            await life.stop()
    finally:
        tracer.unpatch()
        del os.environ[WORKER_SPANS_ENV]
    return (ops, commands, setup_commands, timed_from, life.windows,
            read_worker_intervals(intervals_dir))


class Replay:
    """Re-runs the worker's command stream in process, on a copy of the
    pristine ledgers, with the engine, ledger and compiled layers traced.
    :meth:`run` continues from where the last call stopped; ``roots``
    holds each replayed command's root span (None for a budget read) and
    ``opens`` the seconds each tenant's engine took to open, with the
    index of the command that opened it."""

    def __init__(self, scenario):
        from repro.engine.compiled import CompiledPlan
        from repro.engine.query_engine import PrivateQueryEngine
        from repro.io.serialization import load_plan
        from repro.privacy.ledger import DurableAccountant
        from perfbench.trace import Tracer

        self.scenario = scenario
        self.tracer = tracer = Tracer()
        self.root = scenario.fresh_root("replay")
        self.plans = {name: load_plan(scenario.plans_dir / f"{name}.plan.npz")
                      for name in scenario.plans}
        self.engines = {}
        self.opens = {}
        self.roots = []

        def traced_produce(args, kwargs):
            requests, produce = args[1], args[2]
            return (args[0], requests, tracer.traced_callback(
                "engine.query_engine.produce", produce)), kwargs

        tracer.wrap(PrivateQueryEngine, "execute", "engine.query_engine.execute")
        tracer.wrap(PrivateQueryEngine, "execute_many", "engine.query_engine.execute")
        tracer.wrap(DurableAccountant, "spend_keyed", "privacy.ledger.txn",
                    arguments=traced_produce)
        tracer.wrap(DurableAccountant, "spend", "privacy.ledger.txn")
        tracer.wrap(DurableAccountant, "spend_many", "privacy.ledger.txn")
        tracer.wrap(CompiledPlan, "answer", "engine.compiled.answer")
        tracer.wrap(CompiledPlan, "answer_many", "engine.compiled.answer")

    def _engine(self, tenant, index):
        from repro.engine.query_engine import PrivateQueryEngine
        from repro.serving.worker import SERVING_LEDGER_RETRY

        engine = self.engines.get(tenant)
        if engine is None:
            started = time.perf_counter()
            engine = PrivateQueryEngine(
                self.scenario.data, total_budget=inputs.TOTAL_BUDGET,
                ledger_path=self.root / f"{tenant}{self.scenario.suffix}",
                ledger_retry=SERVING_LEDGER_RETRY,
            )
            self.opens[tenant] = [time.perf_counter() - started, index]
            self.engines[tenant] = engine
        return engine

    def run(self, commands):
        # The worker's heap holds little besides its engines; keep the
        # benchmark's own objects out of the replay's garbage collections.
        gc.freeze()
        try:
            for index in range(len(self.roots), len(commands)):
                op, tenant = commands[index][0], commands[index][1]
                engine = self._engine(tenant, index)
                if op == "budget":
                    engine.accountant.sync()
                    self.roots.append(None)
                    continue
                plan = self.plans[commands[index][2]]
                requests = commands[index][3]
                with self.tracer.span("replay.command", info={"index": index}) as span:
                    if len(requests) == 1:
                        epsilon, switches, key = requests[0]
                        engine.execute(plan, epsilon, request_key=key, **switches)
                    else:
                        engine.execute_many([(plan, eps, sw, key)
                                             for eps, sw, key in requests])
                self.roots.append(span)
        finally:
            gc.unfreeze()

    def close(self):
        self.tracer.unpatch()
        for engine in self.engines.values():
            engine.accountant.close()


def _live_worker_times(gate, commands, intervals):
    """In-worker timing per recorded command, from the timed worker's
    intervals: ``{command index: (start, end, engine seconds)}``.
    Heartbeat pings and the shutdown reply are the worker's only other
    commands."""
    if not gate.check(len(intervals) == 1,
                      f"expected one timed worker, found {len(intervals)}"):
        return {}
    answered = [entry for entry in next(iter(intervals.values()))
                if entry[0] not in ("ping", "shutdown")]
    ops = [command[0] for command in commands]
    if not gate.check([entry[0] for entry in answered] == ops,
                      f"the worker answered {len(answered)} commands, the pool "
                      f"submitted {len(ops)}"):
        return {}
    return {index: entry[1:] for index, entry in enumerate(answered)}


def _match_batches(gate, requests, batches, commands):
    """The ``WorkerPool.submit`` span that carried each
    ``Coalescer.submit`` span's request: the first batch, starting after
    the request was queued, that holds its key (or, for a request without
    a key, an unkeyed request for the same tenant and plan)."""
    by_request = {}
    for batch in sorted(batches, key=lambda span: span.start):
        _, tenant, plan, entries = commands[batch.info["command"]]
        for entry in entries:
            ident = entry[2] if entry[2] is not None else (tenant, plan)
            by_request.setdefault(ident, []).append(batch)
    matched = []
    for span in requests:
        ident = span.request if span.request is not None else (
            span.info["tenant"], span.info["plan"])
        batch = next((b for b in by_request.get(ident, ()) if b.start >= span.start), None)
        if batch is not None:
            matched.append((span, batch))
    gate.check(len(matched) == len(requests),
               f"{len(requests) - len(matched)} of {len(requests)} traced requests "
               "matched no dispatched batch")
    return matched


def _traced(scenario, prep_tracer, gate, out):
    from perfbench.trace import PairedGroups, Tracer, block_group, write_spans

    tracer = Tracer()
    replay = Replay(scenario)
    try:
        ops, commands, setup_commands, timed_from, windows, intervals = asyncio.run(
            _traced_lifecycle(scenario, tracer, replay))
        replay.run(commands)
    finally:
        replay.close()
    roots, opens = replay.roots, replay.opens
    replay = replay.tracer
    executes = [op for op in ops if op.kind != "budget" and op.error is None]
    untraced_mean = float(np.mean([op.latency for op in executes if op.traced is False]))
    live = _live_worker_times(gate, commands, intervals)
    write_spans(scenario.workdir.parent / f"spans-{scenario.workload}-seed{scenario.seed}.json",
                {"prep": prep_tracer, "service": tracer, "replay": replay})

    # Per-command layer self-times from the replay.
    own = replay.self_times()
    children = replay.children()
    layer_of = {
        "engine.query_engine.execute": "engine",
        "engine.query_engine.produce": "engine",
        "privacy.ledger.txn": "ledger",
        "engine.compiled.answer": "compiled",
    }

    def layers_under(span):
        """Layer self-times under one replayed command, plus the ledger
        transactions it ran as ``(self time, charged)`` (a keyed
        transaction that produced nothing only answered duplicates)."""
        totals = {"engine": 0.0, "ledger": 0.0, "compiled": 0.0}
        txns = []
        stack = list(children.get(span.id, ()))
        while stack:
            child = stack.pop()
            below = children.get(child.id, ())
            totals[layer_of[child.name]] += own[child.id]
            if child.name == "privacy.ledger.txn":
                produced = any(c.name == "engine.query_engine.produce" for c in below)
                txns.append((own[child.id], produced))
            stack.extend(below)
        return totals, txns

    per_command = [None if span is None else layers_under(span) for span in roots]

    # Per traced execute request of the timed phase, each layer measured
    # on its own: the client and server spans' self times, the wait from
    # queueing in the coalescer to its batch's dispatch and from the
    # batch's return to the request's, the pipe (pool round trip minus
    # the live worker's time between receiving the batch and replying),
    # the live worker's own handling around its engine call, and the
    # engine call split into engine, ledger and compiled layers by the
    # in-process replay. The replay is the one source independent of the
    # live request path, so what the layers leave of the untraced mean
    # latency is the tracing overhead plus the replay's misfit of the live
    # engine call. Each group of four
    # blocks compares its traced and untraced halves (PairedGroups).
    warmup, block = scenario.trace_blocks()
    window_starts = [window[0] for window in windows]

    def group_at(moment):
        index = bisect.bisect_right(window_starts, moment) - 1
        return windows[index][2] if index >= 0 and moment <= windows[index][1] else None

    paired = PairedGroups()
    for op in executes:
        paired.latency(block_group(op.index, warmup, block), op.traced, op.latency)
    timed = [s for s in tracer.spans if s.start >= timed_from]
    client = [s.duration for s in timed if s.name == "serving.client.execute"]
    server = [s.duration for s in timed if s.name == "serving.server.execute"]
    requests = [s for s in timed if s.name == "serving.coalescer.submit"]
    batches = [s for s in timed if s.name == "serving.worker.submit"
               and s.info["op"] == "execute"]
    n = len(client)
    gate.check(len(server) == n and len(requests) == n,
               f"traced {n} client, {len(server)} server and {len(requests)} "
               "coalescer spans")
    for span in timed:
        if span.name == "serving.client.execute":
            paired.layers(group_at(span.start), span.duration)
    totals = dict.fromkeys(("wait", "return", "pipe", "worker", "engine", "ledger",
                            "compiled", "live_engine"), 0.0)
    outside = 0
    for request, batch in _match_batches(gate, requests, batches, commands):
        index = batch.info["command"]
        worker_start, worker_end, live_engine = live.get(index, (batch.start, batch.end, 0.0))
        outside += not batch.start <= worker_start <= worker_end <= batch.end
        layers = {
            "wait": batch.start - request.start,
            "return": request.end - batch.end,
            "pipe": batch.duration - (worker_end - worker_start),
            "worker": worker_end - worker_start - live_engine,
            **per_command[index][0],
        }
        for layer, value in layers.items():
            totals[layer] += value
        totals["live_engine"] += live_engine
        # The client span covers the server and coalescer spans; swap the
        # coalescer span for its measured parts.
        paired.layers(group_at(request.start), sum(layers.values()) - request.duration)
    gate.check(not outside, f"{outside} worker intervals fall outside their "
               "WorkerPool.submit span")
    means = {name: value / n for name, value in totals.items()}
    replay_compute = means["engine"] + means["ledger"] + means["compiled"]
    table = {
        "serving.client.tcp_ms": float(np.sum(client) - np.sum(server)) / n,
        "serving.server.self_ms": float(np.sum(server) - sum(s.duration for s in requests)) / n,
        "serving.coalescer.wait_ms": means["wait"],
        "serving.coalescer.return_ms": means["return"],
        "serving.worker.pipe_ms": means["pipe"],
        "serving.worker.self_ms": means["worker"],
        "engine.query_engine": means["engine"],
        "privacy.ledger.txn": means["ledger"],
        "engine.compiled.answer": means["compiled"],
    }
    unattributed, overhead, groups = paired.shares()
    gate.layer_sum(unattributed, f"{scenario.workload} layer table")
    out.append(f"layer table (mean per traced execute request, {n} requests):")
    for name, value in table.items():
        out.append(f"  {name:32s} {value * 1e3:10.4f} ms")
    out.append(f"  {'sum':32s} {sum(table.values()) * 1e3:10.4f} ms; untraced mean "
               f"{untraced_mean * 1e3:.4f} ms")
    out.append(f"engine call per request: live worker {means['live_engine'] * 1e3:.4f} ms, "
               f"replay {replay_compute * 1e3:.4f} ms")
    out.append(f"trace: {len(tracer.spans)} service spans, {len(replay.spans)} replay "
               f"spans; traced and untraced blocks of {block} ops alternate")
    out.append(f"median over {groups} groups of four blocks: {unattributed * 100:+.2f}% "
               f"unattributed (tolerance {LAYER_SUM_TOLERANCE:.0%}); tracing overhead "
               f"{overhead * 100:+.2f}% of the untraced latency")

    # Ledger and engine layers per transaction / release, timed part only.
    txns, dedups = [], []
    keyed_engine = keyed_releases = unkeyed_engine = unkeyed_releases = 0.0
    compiled_total = compiled_releases = 0.0
    for index in range(setup_commands, len(commands)):
        if roots[index] is None:
            continue
        size = len(commands[index][3])
        keyed = all(request[2] is not None for request in commands[index][3])
        totals, command_txns = per_command[index]
        for seconds, charged in command_txns:
            (txns if charged or not keyed else dedups).append(seconds)
        if keyed:
            keyed_engine += totals["engine"]
            keyed_releases += size
        else:
            unkeyed_engine += totals["engine"]
            unkeyed_releases += size
        compiled_total += totals["compiled"]
        compiled_releases += size

    def first_txn(tenant):
        seconds, index = opens[tenant]
        span = roots[index]
        ledger = [own[c.id] for c in replay.spans
                  if c.name == "privacy.ledger.txn" and span is not None
                  and span.start <= c.start <= span.end]
        return seconds + (ledger[0] if ledger else 0.0)

    stage = tracer.named("serving.shared_plans.stage")
    ready = tracer.named("serving.worker.ready")
    fits = prep_tracer.named("core.alm.fit")
    prep_own = prep_tracer.self_times()
    return {
        "core.alm.fit_s": (sum(s.duration for s in fits), "s"),
        "core.alm.outer_iters": (sum(s.info["outer_iters"] for s in fits), "count"),
        "engine.selection.rank_s": (
            sum(prep_own[s.id] for s in prep_tracer.named("engine.selection.rank")), "s"),
        "io.serialization.plan_io_s": (
            sum(s.duration for s in prep_tracer.named("io.serialization.plan_io")), "s"),
        "engine.compiled.answer_us": (
            compiled_total / max(compiled_releases, 1) * 1e6, "us"),
        "engine.query_engine.execute_us": (
            unkeyed_engine / max(unkeyed_releases, 1) * 1e6, "us"),
        "engine.query_engine.keyed_us": (
            keyed_engine / max(keyed_releases, 1) * 1e6, "us"),
        "privacy.ledger.txn_ms": (float(np.mean(txns)) * 1e3, "ms"),
        "privacy.ledger.txn_growth": (growth(txns), "ratio"),
        "privacy.ledger.open_s": (
            float(np.mean([first_txn(tenant) for tenant in opens])), "s"),
        "privacy.ledger.dedup_ms": (
            float(np.mean(dedups)) * 1e3 if dedups else 0.0, "ms"),
        "serving.shared_plans.stage_s": (sum(s.duration for s in stage), "s"),
        "serving.worker.ready_s": (sum(s.duration for s in ready), "s"),
        "serving.worker.pipe_ms": (table["serving.worker.pipe_ms"] * 1e3, "ms"),
        "serving.worker.self_ms": (table["serving.worker.self_ms"] * 1e3, "ms"),
        "serving.coalescer.wait_ms": (table["serving.coalescer.wait_ms"] * 1e3, "ms"),
        "serving.coalescer.return_ms": (table["serving.coalescer.return_ms"] * 1e3, "ms"),
        "serving.server.self_ms": (table["serving.server.self_ms"] * 1e3, "ms"),
        "serving.client.tcp_ms": (table["serving.client.tcp_ms"] * 1e3, "ms"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
        "trace.unattributed_pct": (unattributed * 100.0, "%"),
    }
