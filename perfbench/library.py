"""``library_session``: the engine as a library, with no service.

One set-up plans one seeded draw of each of the paper's WRelated, WRange
and WDiscrete families with ``PrivateQueryEngine.plan(mechanism="auto")``,
round-trips every plan through the plan archive and compiles it. A run
makes ``SETUPS`` set-ups, each of its own draws, and after each set-up
its share of the timed phase: sessions of ``SESSION_STEPS`` steps, each a
fresh engine on an in-memory accountant serving that set-up's plans with
unkeyed releases (unkeyed is the library default). One step is
one ``execute`` per plan followed by one ``execute_many`` batch spread over
the plans; its latency is the step's wall time, a few milliseconds. The
engine keeps every release in its audit log, so short sessions bound the
memory a run needs; a longer run serves more sessions. Set-ups and
sessions alternate so the timed steps spread over the whole run: the speed
of the same steps on a shared 2-vCPU host varied by up to 1.75x in phases
of a tenth of a second to minutes.

How long a fit takes, and which mechanism ``auto`` picks, depend on the
drawn matrix: with one draw per family and three set-ups of the same
draws, the set-up time spread by 0.27 (inter-quartile share) and the
analytic error by 0.09 over ten seeds. The set-ups therefore draw afresh
and the sessions serve different set-ups, so ``setup_s`` and
``expected_error`` each rest on several draws.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time

import numpy as np

from perfbench import inputs
from perfbench.common import LAYER_SUM_TOLERANCE, Gate, growth, own_peak_rss_mb, quantile

#: Set-ups measured per run; ``setup_s`` is their median.
SETUPS = 3

#: Seeded draws of each paper family planned per set-up.
INSTANCES = 1

#: ``execute_many`` requests per step, spread round-robin over the plans.
BATCH = 192

#: Steps per second of ``--seconds`` (sized so the timed phase lasts about
#: ``--seconds`` on a 2-vCPU Xeon; the count is fixed, the wall time is what
#: is measured), and steps per session (a session takes about half a
#: second).
STEPS_PER_SECOND = 360
SESSION_STEPS = 200

#: Steps per block in the traced session's alternation of untraced and
#: traced steps, after a warm-up of a ninth of the session.
TRACE_BLOCK = 8

#: Releases per plan kept for the MSE check.
MSE_SAMPLES = 3000


def _engine(seed, data):
    from repro.engine.query_engine import PrivateQueryEngine

    return PrivateQueryEngine(
        data, total_budget=inputs.TOTAL_BUDGET,
        seed=int(inputs.stream(seed, "library-noise").integers(2**31)),
    )


def set_up(seed, draw, data, workdir, tracer=None):
    """One cold set-up of draw number ``draw``; returns ``(seconds, plans)``."""
    from repro.io.serialization import load_plan, save_plan

    workloads = inputs.paper_workloads(seed, instances=INSTANCES, draw=draw)
    engine = _engine(seed, data)
    started = time.perf_counter()
    plans = {}
    for name, workload in workloads.items():
        plans[name] = engine.plan(workload, mechanism="auto", epsilon_hint=inputs.EPSILON)
    for name, plan in plans.items():
        path = workdir / f"{name}.plan.npz"
        with tracer.span("io.serialization.plan_io") if tracer else contextlib.nullcontext():
            save_plan(plan, path)
            plans[name] = load_plan(path)
    for plan in plans.values():
        plan.compile()
    return time.perf_counter() - started, plans


def timed_phase(engine, plans, count, tracer=None, starts=None):
    """Run ``count`` steps; returns per-step latencies and the wall time.
    With a ``tracer``, blocks of steps alternate untraced and traced
    (:func:`perfbench.trace.traced_block`). ``starts`` collects each
    step's start time."""
    from perfbench.trace import traced_block

    names = sorted(plans)
    singles = [plans[name] for name in names]
    batch = [(plans[names[i % len(names)]], inputs.EPSILON) for i in range(BATCH)]
    latencies = []
    started = time.perf_counter()
    for index in range(count):
        if tracer is not None:
            tracer.enabled = bool(traced_block(index, count // 9, TRACE_BLOCK))
        step = time.perf_counter()
        if starts is not None:
            starts.append(step)
        for plan in singles:
            engine.execute(plan, inputs.EPSILON)
        engine.execute_many(batch)
        latencies.append(time.perf_counter() - step)
    return latencies, time.perf_counter() - started


def _check(gate, engine, plans, data, attempted, where):
    releases = engine.releases
    gate.check(
        len(releases) == attempted,
        f"engine logged {len(releases)} releases for {attempted} requests",
    )
    by_key = {plan.workload_key: name for name, plan in plans.items()}
    answers = {name: [] for name in plans}
    costs = {name: [] for name in plans}
    for release in releases:
        name = by_key[release.workload_key]
        answers[name].append(release.answers)
        costs[name].append(release.metadata.get("cost"))
    for name, plan in plans.items():
        gate.releases(answers[name], plan.shape[0], costs[name], f"{where} plan {name}")
        gate.mse(f"{where} {name}", answers[name][:MSE_SAMPLES], plan.workload.answer(data),
                 plan.predicted_error(inputs.EPSILON))


def run(seed, seconds, workdir, trace, out):
    """Returns ``(gate, attempted, failed, metrics, layers)``; ``out``
    collects the human-readable report lines."""
    data = inputs.data_vector(seed)
    total = STEPS_PER_SECOND * seconds
    per_setup = max(1, round(total / SESSION_STEPS / SETUPS))
    count = max(1, round(total / SETUPS / per_setup))
    sessions = SETUPS * per_setup
    gate = Gate()
    setups, plan_sets = [], []
    latencies, growths, wall, served = [], [], 0.0, 0
    for draw in range(SETUPS):
        seconds_taken, plans = set_up(seed, draw, data, workdir)
        setups.append(seconds_taken)
        plan_sets.append(plans)
        per_step = len(plans) + BATCH
        for session in range(draw * per_setup, (draw + 1) * per_setup):
            engine = _engine(seed, data)
            round_latencies, round_wall = timed_phase(engine, plans, count)
            _check(gate, engine, plans, data, count * per_step, f"session {session}")
            latencies += round_latencies
            growths.append(growth(round_latencies))
            wall += round_wall
            served += len(engine.releases)
            del engine
    attempted = sessions * count * per_step
    failed = attempted - served
    expected = sum(plan.predicted_error(inputs.EPSILON)
                   for plans in plan_sets for plan in plans.values())
    for draw, plans in enumerate(plan_sets):
        out.append(f"plans of set-up {draw}: " + ", ".join(
            f"{name}={plan.mechanism_label}{plan.shape}"
            for name, plan in sorted(plans.items())))
    out.append(f"setup_s samples: {[round(value, 4) for value in setups]}")
    out.append(f"steps: {sessions} sessions x {count} x ({len(plans)} execute + "
               f"execute_many of {BATCH}); latency samples: {len(latencies)}")
    out.append(f"latency_growth = {statistics.median(growths)!r} ratio "
               f"(median of {len(growths)} sessions; range {min(growths):.4f} to "
               f"{max(growths):.4f})")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "releases_per_s": (attempted / wall, "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "expected_error": (expected, "sq_error"),
        "peak_rss_mb": (own_peak_rss_mb(), "MB"),
        "served_share": (1.0 - failed / attempted, "ratio"),
    }
    layers = None
    if trace:
        layers = _traced(seed, data, workdir, plan_sets, sessions, count, gate, out)
        layers["session.latency_growth"] = (statistics.median(growths), "ratio")
    return gate, attempted, failed, metrics, layers


def _traced(seed, data, workdir, plan_sets, sessions, count, gate, out):
    """The traced repeat: one traced set-up, then the timed phase's
    ``sessions`` sessions of ``count`` steps, whose steps alternate
    untraced and traced blocks; returns the per-layer metrics."""
    from repro.engine import plan as plan_module
    from repro.engine.compiled import CompiledPlan
    from repro.engine.query_engine import PrivateQueryEngine
    from perfbench.trace import PairedGroups, Tracer, block_group, traced_block, write_spans

    tracer = Tracer()
    tracer.wrap_lrm_fits()
    tracer.wrap(plan_module, "rank_mechanisms", "engine.selection.rank")
    tracer.wrap(PrivateQueryEngine, "execute", "engine.query_engine.execute")
    tracer.wrap(PrivateQueryEngine, "execute_many", "engine.query_engine.execute")
    tracer.wrap(CompiledPlan, "answer", "engine.compiled.answer")
    tracer.wrap(CompiledPlan, "answer_many", "engine.compiled.answer")
    latencies, starts = [], []
    try:
        set_up(seed, 0, data, workdir, tracer=tracer)
        for session in range(sessions):
            plans = plan_sets[session * SETUPS // sessions]
            engine = _engine(seed, data)
            latencies += timed_phase(engine, plans, count, tracer=tracer, starts=starts)[0]
            del engine
    finally:
        tracer.unpatch()
    write_spans(workdir.parent / f"spans-library_session-seed{seed}.json",
                {"library": tracer})
    own = tracer.self_times()
    warmup = count // 9
    flags = [traced_block(index, warmup, TRACE_BLOCK) for index in range(count)] * sessions
    groups_of = [None if block_group(index % count, warmup, TRACE_BLOCK) is None
                 else (index // count, block_group(index % count, warmup, TRACE_BLOCK))
                 for index in range(len(latencies))]
    traced = [lat for lat, flag in zip(latencies, flags) if flag]
    untraced = [lat for lat, flag in zip(latencies, flags) if flag is False]
    releases = len(traced) * (len(plans) + BATCH)

    # The layers of each traced step: the self times of the engine and
    # compiled-answer spans that started inside it.
    paired = PairedGroups()
    for index, latency in enumerate(latencies):
        paired.latency(groups_of[index], flags[index], latency)
    for span in tracer.named("engine.query_engine.execute") + tracer.named("engine.compiled.answer"):
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0 and flags[index]:
            paired.layers(groups_of[index], own[span.id])
    unattributed, overhead, groups = paired.shares()
    gate.layer_sum(unattributed, "library layer table")

    def total(name, self_time=False):
        return sum(own[s.id] if self_time else s.duration for s in tracer.named(name))

    fits = tracer.named("core.alm.fit")
    compiled = total("engine.compiled.answer") / releases
    engine_self = total("engine.query_engine.execute", True) / releases
    step_mean = float(np.mean(untraced)) / (len(plans) + BATCH)
    out.append(f"trace: {len(tracer.spans)} spans; {len(traced)} traced and "
               f"{len(untraced)} untraced steps alternating in blocks of {TRACE_BLOCK}")
    out.append(f"layer table (mean per release): engine {engine_self * 1e6:.3f} us + "
               f"compiled {compiled * 1e6:.3f} us; untraced step time per release "
               f"{step_mean * 1e6:.3f} us")
    out.append(f"median over {groups} groups of four blocks: {unattributed * 100:+.2f}% "
               f"unattributed (tolerance {LAYER_SUM_TOLERANCE:.0%}); tracing overhead "
               f"{overhead * 100:+.2f}%")
    return {
        "core.alm.fit_s": (sum(s.duration for s in fits), "s"),
        "core.alm.outer_iters": (sum(s.info["outer_iters"] for s in fits), "count"),
        "engine.selection.rank_s": (total("engine.selection.rank", True), "s"),
        "io.serialization.plan_io_s": (total("io.serialization.plan_io"), "s"),
        "engine.compiled.answer_us": (compiled * 1e6, "us"),
        "engine.query_engine.execute_us": (engine_self * 1e6, "us"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
        "trace.unattributed_pct": (unattributed * 100.0, "%"),
    }
