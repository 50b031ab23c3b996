"""Automatic mechanism selection.

Given a workload and a privacy budget, every mechanism in this package
exposes an *analytic* expected squared error — a data-independent quantity
that can be compared before any budget is spent. This module ranks
candidate mechanisms by that quantity and returns the winner, which is how
the query engine implements ``mechanism="auto"``.

Selection is data-independent (it looks only at the workload and epsilon),
so it consumes no privacy budget.

For large candidate pools (or expensive candidates like MM) the fits can be
fanned out across a process pool with ``rank_mechanisms(..., parallel=True)``
— the workload's memoised thin SVD is computed once in the parent and
shipped to every worker, candidate order (and therefore tie-breaking) is
identical to the serial path, and any pool failure (unpicklable candidate,
broken pool) falls back to the serial path transparently.
"""

from __future__ import annotations

import copy
import os
import time

from repro.exceptions import ReproError, ValidationError
from repro.linalg.validation import check_positive
from repro.mechanisms.base import Mechanism, as_workload
from repro.mechanisms.registry import make_mechanism

__all__ = [
    "MechanismChoice",
    "rank_mechanisms",
    "select_mechanism",
    "DEFAULT_CANDIDATES",
    "APPROX_DP_CANDIDATES",
]

#: Default candidate set for pure eps-DP: the paper's contenders. MM is
#: excluded by default for its O(n^3) fit cost; add it explicitly if wanted.
DEFAULT_CANDIDATES = ("LM", "NOR", "WM", "HM", "SVDM", "LRM")

#: Gaussian (eps, delta)-DP candidates, appended to the pool when the engine
#: is constructed with ``delta > 0``.
APPROX_DP_CANDIDATES = ("GLM", "GNOR", "GLRM")


class MechanismChoice:
    """One candidate's outcome in a selection round.

    Attributes
    ----------
    label:
        Registry label of the mechanism.
    mechanism:
        The *fitted* mechanism instance (None when fitting failed).
    expected_error:
        Analytic expected total squared error at the probe epsilon
        (None when unavailable).
    fit_seconds:
        Wall-clock cost of fitting.
    failure:
        Error message when the candidate could not be evaluated.
    """

    def __init__(self, label, mechanism=None, expected_error=None, fit_seconds=None, failure=None):
        self.label = label
        self.mechanism = mechanism
        self.expected_error = expected_error
        self.fit_seconds = fit_seconds
        self.failure = failure

    @property
    def ok(self):
        """True when the candidate produced a comparable expected error."""
        return self.failure is None and self.expected_error is not None

    def __repr__(self):
        if not self.ok:
            return f"MechanismChoice({self.label}, failed: {self.failure})"
        return f"MechanismChoice({self.label}, expected={self.expected_error:.4g})"


def _evaluate_candidate(spec, workload, epsilon, mechanism_kwargs):
    """Fit one candidate spec; always returns a :class:`MechanismChoice`.

    Top-level (picklable) so the same code path serves both the serial loop
    and the process-pool fan-out. The spec is materialised defensively:
    instance candidates are deep-copied *before* any attribute (label)
    lookup, and per-label kwargs are deep-copied before being handed to the
    constructor — ranking must never mutate (or alias) the caller's
    candidates or the engine's ``mechanism_kwargs``. Failures keep their
    ``fit_seconds`` so the plan's candidate table reports what the failed
    fit actually cost.
    """
    if isinstance(spec, str):
        label = spec.strip().upper()
        try:
            mechanism = make_mechanism(label, **copy.deepcopy(mechanism_kwargs.get(label, {})))
        except (ReproError, TypeError, ValueError) as exc:
            # The same set the plan key treats as unbuildable: a constructor
            # that rejects its kwargs fails this candidate, not the round.
            return MechanismChoice(label, failure=str(exc))
    else:
        # Fit a copy: ranking must not mutate the caller's instance
        # (candidates may be reused across selection rounds). Copy before
        # reading the label, so a name property that mutates state (or a
        # shared instance raced by a parallel round) cannot leak back.
        mechanism = copy.deepcopy(spec) if isinstance(spec, Mechanism) else spec
        label = getattr(mechanism, "name", type(mechanism).__name__)
    started = time.perf_counter()
    try:
        mechanism.fit(workload)
        expected = mechanism.expected_squared_error(epsilon)
    except (ReproError, NotImplementedError) as exc:
        return MechanismChoice(
            label, failure=str(exc), fit_seconds=time.perf_counter() - started
        )
    return MechanismChoice(
        label,
        mechanism=mechanism,
        expected_error=float(expected),
        fit_seconds=time.perf_counter() - started,
    )


#: Candidate labels/classes whose fit consumes the workload's thin SVD; the
#: parent memoises it once before fanning fits out so every worker inherits
#: the factorisation instead of recomputing it.
_SVD_HUNGRY_LABELS = frozenset({"LRM", "GLRM"})


def _precompute_shared_svd(workload, candidates):
    if workload.is_implicit:
        # Implicit workloads fit through the matvec sketch (memoised per
        # workload by Workload.implicit_svd); forcing the dense thin SVD
        # here would materialise the matrix the operator exists to avoid.
        return
    for spec in candidates:
        label = (
            spec.strip().upper()
            if isinstance(spec, str)
            else getattr(spec, "name", type(spec).__name__)
        )
        if label in _SVD_HUNGRY_LABELS:
            workload.thin_svd  # noqa: B018 — memoises on the workload
            return


#: Per-worker ranking context set by the pool initializer (workload,
#: epsilon, mechanism_kwargs) — the workload (with its memoised thin SVD,
#: an n-scale payload) ships once per worker instead of once per candidate.
_WORKER_CONTEXT = None


def _init_ranking_worker(workload, epsilon, mechanism_kwargs):
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (workload, epsilon, mechanism_kwargs)


def _evaluate_candidate_in_worker(spec):
    return _evaluate_candidate(spec, *_WORKER_CONTEXT)


def _rank_parallel(workload, epsilon, candidates, mechanism_kwargs, max_workers):
    """Process-pool fan-out of the candidate fits, in submission order."""
    from concurrent.futures import ProcessPoolExecutor

    _precompute_shared_svd(workload, candidates)
    workers = min(max_workers, len(candidates))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_ranking_worker,
        initargs=(workload, epsilon, mechanism_kwargs),
    ) as pool:
        futures = [pool.submit(_evaluate_candidate_in_worker, spec) for spec in candidates]
        return [future.result() for future in futures]


def rank_mechanisms(
    workload,
    epsilon,
    candidates=DEFAULT_CANDIDATES,
    mechanism_kwargs=None,
    parallel=False,
    max_workers=None,
):
    """Fit each candidate and rank by analytic expected error (ascending).

    Returns a list of :class:`MechanismChoice`, best first; failed
    candidates sort last. Candidates may be registry labels or unfitted
    mechanism instances.

    Parameters
    ----------
    parallel:
        ``False`` (default) fits candidates sequentially. ``True`` fans the
        fits out over a :class:`concurrent.futures.ProcessPoolExecutor`;
        an int is shorthand for ``parallel=True, max_workers=<int>``. The
        parent memoises the workload's thin SVD first so every worker
        shares one factorisation, and results are gathered in submission
        order — the returned ranking is identical to the serial path. Any
        pool failure (unpicklable candidates, spawn limits) falls back to
        the serial path.
    max_workers:
        Pool size cap (default: ``min(len(candidates), cpu_count)``).
    """
    workload = as_workload(workload)
    epsilon = check_positive(epsilon, "epsilon")
    mechanism_kwargs = dict(mechanism_kwargs or {})
    candidates = list(candidates)

    if isinstance(parallel, bool):
        use_parallel = parallel
    else:
        max_workers = int(parallel) if max_workers is None else max_workers
        use_parallel = int(parallel) > 1
    if max_workers is None:
        max_workers = min(len(candidates), os.cpu_count() or 1)
    use_parallel = use_parallel and max_workers > 1 and len(candidates) > 1

    choices = None
    if use_parallel:
        try:
            choices = _rank_parallel(
                workload, epsilon, candidates, mechanism_kwargs, max_workers
            )
        except Exception:
            # Unpicklable candidate, broken/forbidden process pool, ...:
            # parallelism is an optimisation, never a new failure mode.
            choices = None
    if choices is None:
        choices = [
            _evaluate_candidate(spec, workload, epsilon, mechanism_kwargs)
            for spec in candidates
        ]
    choices.sort(key=lambda c: (not c.ok, c.expected_error if c.ok else float("inf")))
    return choices


def select_mechanism(workload, epsilon, candidates=DEFAULT_CANDIDATES, mechanism_kwargs=None):
    """Return the fitted mechanism with the lowest analytic expected error.

    Raises :class:`ValidationError` if no candidate could be evaluated.
    """
    choices = rank_mechanisms(
        workload, epsilon, candidates=candidates, mechanism_kwargs=mechanism_kwargs
    )
    for choice in choices:
        if choice.ok:
            return choice.mechanism
    failures = "; ".join(f"{c.label}: {c.failure}" for c in choices)
    raise ValidationError(f"no usable mechanism among candidates ({failures})")
