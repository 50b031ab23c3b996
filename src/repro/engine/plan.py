"""The planner half of the plan/execute split: :class:`ExecutionPlan`.

The paper treats batch query answering as a query-optimization problem:
choose a strategy (mechanism + decomposition) once, then release against it
many times. Mirroring a DBMS optimizer/executor split, planning here is the
data-independent, budget-free phase — candidate mechanisms are fitted and
ranked by analytic expected error — and its output is a first-class
:class:`ExecutionPlan` artifact that can be inspected (:meth:`~ExecutionPlan.explain`),
cached across processes (:class:`repro.engine.plan_cache.PlanCache`), and
executed repeatedly at different epsilons by
:meth:`repro.engine.query_engine.PrivateQueryEngine.execute`.

Plans carry everything an audit needs: the workload digest they were built
for, the full per-candidate comparison table (expected error, fit time,
failures), the chosen mechanism's fitted state, and the constructor kwargs
required to rebuild it from a serialized archive.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.selection import DEFAULT_CANDIDATES, rank_mechanisms
from repro.exceptions import ReproError, ValidationError
from repro.linalg.validation import check_positive
from repro.mechanisms.base import Mechanism, as_workload
from repro.mechanisms.registry import make_mechanism

__all__ = [
    "PlanCandidate",
    "ExecutionPlan",
    "build_plan",
    "workload_key",
    "mechanism_spec",
    "plan_key",
]


def workload_key(workload):
    """Stable cross-process identity of a workload: shape + content digest."""
    workload = as_workload(workload)
    return f"{workload.shape[0]}x{workload.shape[1]}:{workload.content_digest}"


def mechanism_state(mechanism):
    """Public (constructor-level) state of a mechanism: every non-underscore
    attribute. Fitted state lives in underscore attributes by convention, so
    two instances with equal public state fit identically — what an
    instance spec's plan key digests, and what the serialization layer's
    refit-reproduces gate compares."""
    return {key: value for key, value in vars(mechanism).items() if not key.startswith("_")}


#: Sentinel distinguishing "attribute absent" from any real value in a
#: privacy state (absent == absent, absent != anything else).
_MISSING = object()

#: Distinct epsilons an ExecutionPlan memoizes predicted errors for before
#: it starts over.
_MAX_PREDICTED = 256


def privacy_state(mechanism):
    """Privacy-critical constructor state of a mechanism.

    The subset of :func:`mechanism_state` named by the class's
    ``privacy_params`` declaration (e.g. an assumed ``unit_sensitivity``, a
    Gaussian ``delta``) — the parameters that scale noise independently of
    the fitted strategy. Two same-class mechanisms with equal privacy state
    release equally-calibrated noise even when their solver tuning (and
    hence their fit) differs, which is why label and auto plan keys digest
    this state and nothing more: differently-tuned engines share one fit,
    differently-calibrated ones never do.
    """
    return {
        name: getattr(mechanism, name, _MISSING)
        for name in getattr(mechanism, "privacy_params", ())
    }


def mechanism_states_equal(state_a, state_b):
    """Compare two :func:`mechanism_state` dicts by their canonical forms
    (arrays by content, numbers as floats, nested mechanisms recursed)."""
    return _canonical(state_a, mechanism_state) == _canonical(state_b, mechanism_state)


#: What an auto-pool label contributes to the privacy digest when the
#: engine's configuration cannot build it (its fit would fail the same way).
_UNBUILDABLE = "<unbuildable>"


def _canonical(value, state):
    """JSON-ready canonical form of a constructor-state value.

    Numbers become floats (``1 == 1.0``), arrays their dtype, shape and
    content digest, nested mechanisms their class plus ``state(nested)``.
    Anything else falls back to its type and ``repr``, so an unknown value
    can only split keys, never merge two configurations."""
    import numpy as np

    if isinstance(value, Mechanism):
        return [type(value).__name__, _canonical(state(value), state)]
    if isinstance(value, np.ndarray):
        content = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["ndarray", str(value.dtype), list(value.shape), content]
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, dict):
        return [[str(key), _canonical(item, state)] for key, item in sorted(
            value.items(), key=lambda pair: str(pair[0]))]
    if isinstance(value, (list, tuple)):
        return [_canonical(item, state) for item in value]
    if value is _MISSING:
        return "<missing>"
    return f"{type(value).__qualname__}:{value!r}"


def _privacy_digest(states):
    """Fixed-width (12 hex) digest of the canonical states."""
    payload = json.dumps(states, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def mechanism_spec(mechanism, candidates=DEFAULT_CANDIDATES, mechanism_kwargs=None):
    """Normalize a ``mechanism=`` argument into a stable cache-key component.

    The spec reads ``"<mechanism>|<digest>"``. ``<mechanism>`` is
    ``auto[...]`` with the candidate set embedded (different pools are
    different plans), an upper-cased registry label, or, for a mechanism
    *instance*, ``instance:<class name>`` — independent of the instance's
    fitted/unfitted ``repr``, so the same object maps to the same key
    before and after fitting.

    ``<digest>`` is a 12-hex-digit digest of the privacy configuration
    that calibrates the plan's noise. For a label it covers
    :func:`privacy_state` of ``make_mechanism(label,
    **mechanism_kwargs[label])``; for ``auto`` the same for every pool
    entry (label candidates as constructed, a label that cannot be built as
    a fixed marker, instance candidates as given); for an instance its
    full :func:`mechanism_state`, arrays by content and nested mechanisms
    recursed into. A cached plan is therefore shared exactly between
    engines whose noise calibration is the same: solver tuning (e.g.
    LRM's iteration caps) is not in the digest, so differently-tuned
    engines still share one expensive fit, while a different
    ``unit_sensitivity`` or ``delta`` is a different key and never hits
    another configuration's plan. ``epsilon_hint`` is not part of the key.
    """
    mechanism_kwargs = mechanism_kwargs or {}

    def configured(label):
        return privacy_state(make_mechanism(label, **mechanism_kwargs.get(label, {})))

    if isinstance(mechanism, Mechanism):
        base = f"instance:{type(mechanism).__name__}"
        states = _canonical(mechanism, mechanism_state)
    elif str(mechanism).strip().upper() == "AUTO":
        labels, states = [], []
        for candidate in candidates:
            if isinstance(candidate, Mechanism):
                labels.append(type(candidate).__name__)
                states.append(_canonical(candidate, privacy_state))
                continue
            label = str(candidate).strip().upper()
            labels.append(label)
            try:
                states.append(_canonical(configured(label), privacy_state))
            except (ReproError, TypeError, ValueError):
                states.append(_UNBUILDABLE)
        base = "auto[" + ",".join(labels) + "]"
    else:
        base = str(mechanism).strip().upper()
        states = _canonical(configured(base), privacy_state)
    return f"{base}|{_privacy_digest(states)}"


def plan_key(workload, mechanism, candidates=DEFAULT_CANDIDATES, mechanism_kwargs=None):
    """Cache key of the plan for ``workload`` under a mechanism spec:
    ``"mxn:sha1|<mechanism>|<privacy digest>"`` (see :func:`mechanism_spec`)."""
    return f"{workload_key(workload)}|{mechanism_spec(mechanism, candidates, mechanism_kwargs)}"


@dataclass
class PlanCandidate:
    """One candidate's outcome in a planning round (serializable).

    The planner's analogue of :class:`repro.engine.selection.MechanismChoice`
    without the live mechanism instance: what was tried, what it would cost,
    how long the fit took, and why it failed if it did.
    """

    label: str
    expected_error: Optional[float] = None
    fit_seconds: Optional[float] = None
    failure: Optional[str] = None
    chosen: bool = False

    @property
    def ok(self):
        """True when the candidate produced a comparable expected error."""
        return self.failure is None and self.expected_error is not None

    def to_dict(self):
        """Plain-dict form for JSON serialization."""
        return {
            "label": self.label,
            "expected_error": self.expected_error,
            "fit_seconds": self.fit_seconds,
            "failure": self.failure,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, payload):
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=str(payload["label"]),
            expected_error=payload.get("expected_error"),
            fit_seconds=payload.get("fit_seconds"),
            failure=payload.get("failure"),
            chosen=bool(payload.get("chosen", False)),
        )


@dataclass
class ExecutionPlan:
    """A fitted, inspectable strategy for answering one workload.

    Produced by :meth:`PrivateQueryEngine.plan` (or :func:`build_plan`);
    consumed by :meth:`PrivateQueryEngine.execute`. Building a plan spends
    *no* privacy budget — everything here is data-independent.

    Attributes
    ----------
    mechanism:
        The fitted mechanism that will produce releases.
    mechanism_label:
        Registry label (or class name) of the chosen mechanism.
    mechanism_spec:
        Normalized form of the ``mechanism=`` argument the plan was built
        with, plus the digest of its privacy configuration (see
        :func:`mechanism_spec`; part of the cache key).
    workload_key:
        ``"mxn:sha1"`` identity of the planned workload.
    epsilon_hint:
        The probe epsilon candidates were ranked at.
    candidates:
        Per-candidate comparison table (:class:`PlanCandidate`), ranking
        order, chosen first among the successes.
    fit_kwargs:
        Full constructor state of the chosen mechanism (public attributes,
        which for registry mechanisms are exactly the constructor
        parameters) — what :func:`repro.io.serialization.load_plan` needs
        to rebuild the mechanism faithfully on restore.
    """

    mechanism: Mechanism
    mechanism_label: str
    mechanism_spec: str
    workload_key: str
    epsilon_hint: float
    candidates: list = field(default_factory=list)
    fit_kwargs: dict = field(default_factory=dict)
    #: Memoized CompiledPlan (serving state; rebuilt on demand, never
    #: serialized or compared).
    _compiled: object = field(default=None, init=False, repr=False, compare=False)
    #: Memoized predicted errors, epsilon -> error (a pure function of the
    #: fitted mechanism; serving repeats a handful of epsilons).
    _predicted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def workload(self):
        """The fitted workload (shared with the mechanism)."""
        return self.mechanism.workload

    @property
    def shape(self):
        """``(m, n)`` of the planned workload."""
        return tuple(self.workload.shape)

    @property
    def domain_size(self):
        """Number of unit counts the plan expects."""
        return self.workload.domain_size

    @property
    def workload_digest(self):
        """SHA-1 content digest portion of :attr:`workload_key`."""
        return self.workload_key.rsplit(":", 1)[-1]

    @property
    def plan_key(self):
        """Cache identity: workload key + mechanism spec (which carries the
        privacy digest)."""
        return f"{self.workload_key}|{self.mechanism_spec}"

    @property
    def requires_delta(self):
        """True when execution is an (eps, delta) release (Gaussian noise)."""
        return bool(getattr(self.mechanism, "requires_delta", False))

    @property
    def delta(self):
        """Per-release delta charged by this plan (0.0 for pure eps-DP)."""
        return float(getattr(self.mechanism, "delta", 0.0)) if self.requires_delta else 0.0

    def release_cost(self, epsilon):
        """The typed :class:`~repro.privacy.cost.NoiseCost` one execution
        of this plan at ``epsilon`` charges (see
        :meth:`repro.mechanisms.base.Mechanism.release_cost`). This is
        exactly what the engine hands the accountant and journals in
        ``Release.metadata["cost"]``.

        Priced through the compiled release operator, the object that
        draws the noise, so the charge matches the draw by construction
        and the operator is built once per plan, not once per execute.
        A mechanism without an operator prices itself."""
        operator = self.compile().operator
        if operator is None:
            return self.mechanism.release_cost(epsilon)
        return operator.cost(check_positive(epsilon, "epsilon"))

    def compile(self):
        """Memoized :class:`repro.engine.compiled.CompiledPlan` for serving.

        Precomputes the data-independent release state (strategy matrix,
        recombination, sensitivity, noise family) and provides the
        epoch-keyed ``L x`` cache plus the vectorised ``answer_many`` path
        the engine's executor runs releases through. Compiling never
        changes release semantics — mechanisms without a linear release
        operator compile to a transparent ``mechanism.answer_many``
        forwarder.
        """
        if self._compiled is None:
            from repro.engine.compiled import CompiledPlan

            self._compiled = CompiledPlan(self)
        return self._compiled

    def predicted_error(self, epsilon):
        """Analytic expected total squared error of one release at
        ``epsilon`` (None when the mechanism has no closed form),
        memoized per epsilon."""
        epsilon = check_positive(epsilon, "epsilon")
        if epsilon not in self._predicted:
            if len(self._predicted) >= _MAX_PREDICTED:
                self._predicted.clear()
            try:
                error = float(self.mechanism.expected_squared_error(epsilon))
            except (NotImplementedError, ReproError):
                error = None
            self._predicted[epsilon] = error
        return self._predicted[epsilon]

    # ------------------------------------------------------------------ #
    # Explain
    # ------------------------------------------------------------------ #
    def explain(self, epsilon=None, budget=None, budget_delta=0.0):
        """Human-readable plan report (an ``EXPLAIN`` for private releases).

        Lists the chosen mechanism with its decomposition facts (rank,
        sensitivity), the privacy model, the predicted error at the plan's
        probe epsilon (and at ``epsilon`` when given), and the full
        candidate ranking — including failed candidates and why.

        ``budget`` (a total epsilon, with ``budget_delta`` the total delta)
        adds a capacity line: how many releases of this plan at the probe
        epsilon fit that budget under each accountant model — sequential /
        basic composition versus the Rényi accountant
        (:func:`repro.privacy.rdp.releases_per_budget`) — the number a
        serving deployment sizes its traffic against.
        """
        meta = self.mechanism.plan_metadata()
        lines = [
            f"ExecutionPlan for workload {self.shape[0]}x{self.shape[1]} "
            f"(digest {self.workload_digest[:12]})"
        ]
        chosen = f"  chosen mechanism : {self.mechanism_label} ({meta['class']})"
        facts = []
        if "decomposition_rank" in meta:
            facts.append(f"decomposition rank {meta['decomposition_rank']}")
        if "sensitivity" in meta:
            facts.append(f"sensitivity {meta['sensitivity']:.6g}")
        if facts:
            chosen += " — " + ", ".join(facts)
        lines.append(chosen)
        if self.requires_delta:
            lines.append(f"  privacy model    : (eps, delta)-DP, delta={self.delta:g} per release")
        else:
            lines.append("  privacy model    : pure eps-DP")
        probes = [self.epsilon_hint]
        if epsilon is not None and epsilon != self.epsilon_hint:
            probes.append(check_positive(epsilon, "epsilon"))
        try:
            cost = self.release_cost(probes[-1])
        except ReproError:
            cost = None
        if cost is not None:
            rendered = f"{cost.family} (eps={cost.epsilon:g}"
            if cost.delta > 0.0:
                rendered += f", delta={cost.delta:g}"
            if cost.sigma_or_scale is not None:
                rendered += f", noise scale {cost.sigma_or_scale:.6g}"
            if cost.sample_rate < 1.0:
                charged_eps, charged_delta = cost.charged_pair()
                rendered += (
                    f", q={cost.sample_rate:g} -> charged eps={charged_eps:.6g}"
                    f", delta={charged_delta:g}"
                )
            rendered += ")"
            lines.append(f"  release cost     : {rendered}")
        for probe in probes:
            predicted = self.predicted_error(probe)
            rendered = f"{predicted:.6g}" if predicted is not None else "no closed form"
            lines.append(f"  predicted error  : {rendered} (total squared, at eps={probe:g})")
        if budget is not None:
            lines.append(self._budget_line(probes[-1], budget, budget_delta))
        elif float(budget_delta) != 0.0:
            raise ValidationError(
                "budget_delta was given without budget (the total epsilon); "
                "pass both to get the releases-per-budget line"
            )
        lines.append("  candidate ranking:")
        rank = 0
        for candidate in self.candidates:
            if candidate.failure is not None:
                lines.append(f"    x. {candidate.label:<6} failed: {candidate.failure}")
                continue
            rank += 1
            error = (
                f"{candidate.expected_error:>12.6g}"
                if candidate.expected_error is not None
                else "no closed form"
            )
            fit = f"fit {candidate.fit_seconds:.3f}s" if candidate.fit_seconds is not None else ""
            marker = "  <- chosen" if candidate.chosen else ""
            lines.append(f"    {rank}. {candidate.label:<6} expected error {error}  {fit}{marker}")
        return "\n".join(lines)

    def _budget_line(self, probe, budget, budget_delta):
        """The releases-per-budget capacity line of :meth:`explain`."""
        from repro.exceptions import PrivacyBudgetError
        from repro.privacy.accountant import _check_delta
        from repro.privacy.rdp import releases_per_budget

        budget = check_positive(budget, "budget")
        # Validate up front: a malformed budget_delta must raise like every
        # other explain parameter, not be swallowed into an "n/a" column by
        # the not-applicable handler below.
        budget_delta = _check_delta(budget_delta, "budget_delta")
        cost_delta = self.delta
        sample_rate = 1.0
        try:
            sample_rate = float(self.release_cost(probe).sample_rate)
        except ReproError:
            pass
        counts = []
        base_model = "basic" if (cost_delta > 0.0 or budget_delta > 0.0) else "pure"
        for model in (base_model, "rdp"):
            try:
                count = releases_per_budget(
                    probe, cost_delta, budget, budget_delta, model=model,
                    sample_rate=sample_rate,
                )
            except PrivacyBudgetError:
                # e.g. RDP without a delta budget: not applicable.
                counts.append(f"{model} n/a")
                continue
            counts.append(f"{model} x{count}")
        per_release = f"eps={probe:g}, delta={cost_delta:g}"
        if sample_rate < 1.0:
            per_release += f", q={sample_rate:g}"
        return (
            f"  releases/budget  : {' | '.join(counts)} "
            f"({per_release} per release against "
            f"budget eps={budget:g}, delta={budget_delta:g})"
        )

    def to_metadata(self):
        """JSON-serializable description (everything but the fitted arrays)."""
        return {
            "mechanism_label": self.mechanism_label,
            "mechanism_spec": self.mechanism_spec,
            "workload_key": self.workload_key,
            "epsilon_hint": self.epsilon_hint,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "fit_kwargs": dict(self.fit_kwargs),
            "mechanism": self.mechanism.plan_metadata(),
        }

    def __repr__(self):
        return (
            f"ExecutionPlan({self.mechanism_label}, workload={self.shape[0]}x{self.shape[1]}, "
            f"candidates={len(self.candidates)})"
        )


def _fit_single(mechanism, label, workload, epsilon_hint):
    """Fit one concrete mechanism and wrap the outcome as a PlanCandidate."""
    started = time.perf_counter()
    mechanism.fit(workload)
    fit_seconds = time.perf_counter() - started
    try:
        expected = float(mechanism.expected_squared_error(epsilon_hint))
    except (NotImplementedError, ReproError):
        expected = None
    return PlanCandidate(
        label=label, expected_error=expected, fit_seconds=fit_seconds, chosen=True
    )


def build_plan(
    workload,
    epsilon_hint=0.1,
    mechanism="auto",
    candidates=DEFAULT_CANDIDATES,
    mechanism_kwargs=None,
    parallel=False,
):
    """Run mechanism selection/fitting and return an :class:`ExecutionPlan`.

    This is the engine-independent planner (the engine adds domain checks
    and caching on top). ``mechanism`` may be ``"auto"`` (rank every
    candidate by analytic expected error at ``epsilon_hint``), a registry
    label, or an unfitted mechanism instance — instances are deep-copied
    before fitting, so the caller's object is never mutated. ``parallel``
    fans the candidate fits of an ``"auto"`` spec out across a process pool
    (see :func:`repro.engine.selection.rank_mechanisms`).
    """
    workload = as_workload(workload)
    epsilon_hint = check_positive(epsilon_hint, "epsilon_hint")
    mechanism_kwargs = dict(mechanism_kwargs or {})
    spec = mechanism_spec(mechanism, candidates, mechanism_kwargs)
    key = workload_key(workload)

    if spec.startswith("auto["):
        choices = rank_mechanisms(
            workload, epsilon_hint, candidates=candidates,
            mechanism_kwargs=mechanism_kwargs, parallel=parallel,
        )
        winner = next((choice for choice in choices if choice.ok), None)
        if winner is None:
            failures = "; ".join(f"{c.label}: {c.failure}" for c in choices)
            raise ValidationError(f"no usable mechanism among candidates ({failures})")
        plan_candidates = []
        for choice in choices:
            plan_candidates.append(
                PlanCandidate(
                    label=choice.label,
                    expected_error=choice.expected_error,
                    fit_seconds=choice.fit_seconds,
                    failure=choice.failure,
                    chosen=choice is winner,
                )
            )
        return ExecutionPlan(
            mechanism=winner.mechanism,
            mechanism_label=winner.label,
            mechanism_spec=spec,
            workload_key=key,
            epsilon_hint=epsilon_hint,
            candidates=plan_candidates,
            fit_kwargs=mechanism_state(winner.mechanism),
        )

    if isinstance(mechanism, Mechanism):
        label = getattr(mechanism, "name", type(mechanism).__name__)
        fitted = copy.deepcopy(mechanism)
    else:
        label = str(mechanism).strip().upper()
        fitted = make_mechanism(label, **mechanism_kwargs.get(label, {}))
    candidate = _fit_single(fitted, label, workload, epsilon_hint)
    return ExecutionPlan(
        mechanism=fitted,
        mechanism_label=label,
        mechanism_spec=spec,
        workload_key=key,
        epsilon_hint=epsilon_hint,
        candidates=[candidate],
        fit_kwargs=mechanism_state(fitted),
    )
