"""Span tracing from outside the program.

The benchmark wraps the public functions of each layer (class methods and
module functions) for the traced run only, and restores them afterwards.
A span records its name, start, end, the span that caused it and a
request id. Spans are held in memory and written out when the run ends.
A layer's self time is its span minus the time its direct children cover
(children of one span never overlap here: every wrapped call is
synchronous, or awaited inline by its parent).

The worker process is timed from inside: the traced serve lifecycle
starts its worker through :func:`timed_worker_main`, which runs the
program's own ``worker_main`` on a connection that stamps when each
command has been received and when its reply starts to be sent, and
times the worker's calls into ``PrivateQueryEngine.execute`` and
``execute_many`` in between.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
those stamps line up with the spans of the benchmark process.

While ``Tracer.enabled`` is false the wrappers call straight through, so
a run can alternate traced and untraced blocks of the same workload and
read the tracing overhead off the difference.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import statistics
import time
from pathlib import Path


def traced_block(index, warmup, block):
    """Whether item ``index`` is traced: ``None`` for the first
    ``warmup`` items (cold paths; they count for neither side), then
    blocks of ``block`` items alternate untraced, traced, traced,
    untraced. Over each group of four blocks the traced and untraced
    halves sit at the same mean position, so linear drift or growth
    cancels out of the traced-minus-untraced difference, and short blocks
    let host speed swings hit both halves alike."""
    if index < warmup:
        return None
    return (index - warmup) // block % 4 in (1, 2)


def block_group(index, warmup, block):
    """The group of four alternating blocks item ``index`` falls in
    (``None`` during the warm-up): the traced and untraced halves of one
    group run within a few hundred milliseconds of each other."""
    if index < warmup:
        return None
    return (index - warmup) // (4 * block)


class PairedGroups:
    """Per group of four blocks: untraced and traced latencies, and the
    traced items' layer times. On a shared 2-vCPU host the speed of the
    same work stepped by a fifth or more within a second, so the traced
    and untraced halves are compared inside each group and the comparison
    reported as the median over groups; a whole run's means let one slow
    stretch on either side pass for overhead."""

    def __init__(self):
        self._groups = {}

    def _group(self, group):
        return self._groups.setdefault(group, {"untraced": [], "traced": [], "layers": 0.0})

    def latency(self, group, traced, seconds):
        if group is not None:
            self._group(group)["traced" if traced else "untraced"].append(seconds)

    def layers(self, group, seconds):
        if group is not None:
            self._group(group)["layers"] += seconds

    def shares(self):
        """``(unattributed, overhead, groups)``: the medians over groups of
        ``1 - mean traced layers / mean untraced latency`` and of
        ``mean traced latency / mean untraced latency - 1``."""
        unattributed, overhead = [], []
        for group in self._groups.values():
            if not group["untraced"] or not group["traced"]:
                continue
            untraced = sum(group["untraced"]) / len(group["untraced"])
            traced = sum(group["traced"]) / len(group["traced"])
            unattributed.append(1.0 - group["layers"] / len(group["traced"]) / untraced)
            overhead.append(traced / untraced - 1.0)
        return statistics.median(unattributed), statistics.median(overhead), len(overhead)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "info")

    def __init__(self, span_id, name, start, parent, request, info):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.info = info

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.request,
            "info": self.info,
        }


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches = []
        self.enabled = True

    # -- recording ------------------------------------------------------ #
    def _open(self, name, request, info):
        parent = self._current.get()
        span = Span(next(self._ids), name, time.perf_counter(),
                    None if parent is None else parent.id, request, info)
        return span, self._current.set(span)

    def _close(self, span, token):
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name, request=None, info=None):
        span, token = self._open(name, request, info)
        try:
            yield span
        finally:
            self._close(span, token)

    # -- patching ------------------------------------------------------- #
    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`unpatch`."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, had_own))

    def wrap(self, owner, attr, name, describe=None, arguments=None, when=None,
             finish=None):
        """Replace ``owner.attr`` with a traced wrapper.

        ``describe(*args, **kwargs)`` returns ``(request, info)`` for the
        span; ``arguments(args, kwargs)`` may rewrite the call's arguments
        (used to trace a callback the wrapped function receives);
        ``when(*args, **kwargs)`` false skips tracing that call;
        ``finish(span, result)`` runs after a successful call.
        """
        tracer = self

        def labels(args, kwargs):
            return describe(*args, **kwargs) if describe else (None, None)

        def make(original):
            if inspect.iscoroutinefunction(original):
                @functools.wraps(original)
                async def wrapper(*args, **kwargs):
                    if not tracer.enabled:
                        return await original(*args, **kwargs)
                    request, info = labels(args, kwargs)
                    span, token = tracer._open(name, request, info)
                    try:
                        return await original(*args, **kwargs)
                    finally:
                        tracer._close(span, token)
                return wrapper

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled or (when is not None and not when(*args, **kwargs)):
                    return original(*args, **kwargs)
                request, info = labels(args, kwargs)
                if arguments is not None:
                    args, kwargs = arguments(args, kwargs)
                span, token = tracer._open(name, request, info)
                try:
                    result = original(*args, **kwargs)
                    if finish is not None:
                        finish(span, result)
                    return result
                finally:
                    tracer._close(span, token)
            return wrapper

        self.patch(owner, attr, make)

    def unpatch(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def wrap_lrm_fits(self):
        """Trace ``LowRankMechanism`` fits as ``core.alm.fit`` spans whose
        info counts the ALM outer iterations in the fit's history."""
        from repro.core.lrm import LowRankMechanism
        from repro.mechanisms.base import Mechanism

        def outer_iters(span, mechanism):
            history = mechanism.decomposition.history
            span.info = {"outer_iters": sum(1 for h in history if h.get("phase") != "refine")}

        self.wrap(Mechanism, "fit", "core.alm.fit",
                  when=lambda mechanism, *a, **k: isinstance(mechanism, LowRankMechanism),
                  finish=outer_iters)

    def traced_callback(self, name, function):
        """``function`` wrapped so each call records a span."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper

    # -- analysis ------------------------------------------------------- #
    def named(self, name):
        return [span for span in self.spans if span.name == name]

    def self_times(self):
        """``{span id: duration minus its direct children's durations}``."""
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0) for span in self.spans}

    def children(self):
        result = {}
        for span in self.spans:
            if span.parent is not None:
                result.setdefault(span.parent, []).append(span)
        return result


def write_spans(path, tracers):
    """Write ``{group: [span, ...]}`` for ``{group: tracer}`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({group: [span.to_dict() for span in tracer.spans]
                   for group, tracer in tracers.items()}, handle)


#: Environment variable naming the directory a timed worker writes its
#: command intervals to when it exits.
WORKER_SPANS_ENV = "PERFBENCH_WORKER_SPANS"


class _TimedConnection:
    """A worker's end of the pipe that records, per command, the op, the
    interval from the command's arrival to the start of its reply, and
    the seconds spent in the engine (``engine``, added to by the engine
    wrappers) in between."""

    def __init__(self, inner):
        self._inner = inner
        self._received = None
        self.engine = 0.0
        self.intervals = []

    def recv(self):
        command = self._inner.recv()
        self._received = (command[0], time.perf_counter())
        self.engine = 0.0
        return command

    def send(self, obj):
        if self._received is not None:
            op, started = self._received
            self.intervals.append((op, started, time.perf_counter(), self.engine))
            self._received = None
        self._inner.send(obj)

    def close(self):
        self._inner.close()


def timed_worker_main(connection, config, worker_index):
    """Stand-in for ``repro.serving.worker.worker_main`` in the spawned
    worker: runs the original on a :class:`_TimedConnection` and, when it
    returns, writes ``[op, start, end, engine seconds]`` per command it
    answered."""
    from repro.engine.query_engine import PrivateQueryEngine
    from repro.serving.worker import worker_main

    timed = _TimedConnection(connection)

    def timing(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                timed.engine += time.perf_counter() - started
        return wrapper

    for name in ("execute", "execute_many"):
        setattr(PrivateQueryEngine, name, timing(getattr(PrivateQueryEngine, name)))
    try:
        worker_main(timed, config, worker_index)
    finally:
        directory = os.environ.get(WORKER_SPANS_ENV)
        if directory:
            path = Path(directory) / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(timed.intervals))


def read_worker_intervals(directory):
    """``{pid: [(op, start, end, engine seconds), ...]}`` written by timed
    workers."""
    return {
        int(path.stem.split("-")[1]): [tuple(entry) for entry in json.loads(path.read_text())]
        for path in sorted(Path(directory).glob("worker-*.json"))
    }
