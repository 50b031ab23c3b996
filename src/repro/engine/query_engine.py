"""A plan/execute differentially private query engine.

:class:`PrivateQueryEngine` is the deployment wrapper a downstream system
would actually adopt, structured like a DBMS optimizer/executor pair:

* :meth:`~PrivateQueryEngine.plan` is the **planner** — it runs mechanism
  selection and fitting (data-independent, budget-free) and returns an
  :class:`repro.engine.plan.ExecutionPlan` that can be inspected with
  ``plan.explain()``, cached across processes in a
  :class:`repro.engine.plan_cache.PlanCache`, and shipped between machines
  via :func:`repro.io.serialization.save_plan`.
* :meth:`~PrivateQueryEngine.execute` is the **executor** — a thin,
  budget-audited noisy release of a plan at a chosen epsilon, with
  :meth:`~PrivateQueryEngine.execute_many` as its atomic batch form.

Every release, keyed or not, is charged through one transaction, the
accountant's ``spend_keyed``: admit the costs, produce the releases, and
only then commit the charge (journaled, with the released vectors of
keyed requests, when a durable ledger is attached). A release whose
production fails is never charged. A keyed release is stored as a
:class:`repro.privacy.accountant.StoredRelease` — its vector, the
plan-level fields shared by its batch group, and its realized guarantee —
and every :class:`Release` the engine returns, fresh or replayed, is
built from that form by one function, so a replay equals the original.

Privacy accounting is pluggable (:mod:`repro.privacy.accountant`): the
default is pure eps-DP sequential composition; constructing the engine with
``delta > 0`` switches to (eps, delta) basic composition and routes
Gaussian-mechanism releases through it, with both coordinates tracked per
release in the audit log.

Example
-------
>>> import numpy as np
>>> from repro.engine import PrivateQueryEngine
>>> from repro.workloads import wrelated
>>> engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
>>> plan = engine.plan(wrelated(8, 64, s=2, seed=1))
>>> release = engine.execute(plan, epsilon=0.25)
>>> engine.remaining_budget
0.75
"""

from __future__ import annotations

import itertools
import os
import uuid
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.postprocess import postprocess_answers
from repro.engine.plan import ExecutionPlan, build_plan, plan_key
from repro.engine.plan_cache import PlanCache
from repro.engine.selection import APPROX_DP_CANDIDATES, DEFAULT_CANDIDATES
from repro.exceptions import ValidationError
from repro.linalg.validation import as_vector, check_positive, ensure_rng
from repro.mechanisms.base import as_workload
from repro.privacy.accountant import BudgetAccountant, StoredRelease, make_accountant
from repro.privacy.cost import cost_record

__all__ = ["PrivateQueryEngine", "Release"]

#: The post-processing switches, in the order releases record them.
_SWITCHES = ("non_negative", "integral", "consistent")

#: Data-epoch token state. Each engine stamps a fresh token whenever its
#: data vector is (re)set; compiled plans key their cached strategy answers
#: (L x) on the token, so tokens must never collide across engines sharing
#: a plan — including engines in *different processes*: a fork duplicates a
#: bare module-level counter, so a forked worker could re-mint a token its
#: parent already cached against different data and serve a stale ``L x``.
#: Tokens are therefore ``"{pid}-{salt}-{n}"`` where the salt is a fresh
#: uuid minted per process: the pid check below re-salts lazily after a
#: fork, and the uuid keeps tokens unique even when the OS reuses pids.
_EPOCH_STATE = {"pid": None, "salt": None, "counter": None}


def _next_data_epoch():
    pid = os.getpid()
    if _EPOCH_STATE["pid"] != pid:
        _EPOCH_STATE["pid"] = pid
        _EPOCH_STATE["salt"] = uuid.uuid4().hex[:12]
        _EPOCH_STATE["counter"] = itertools.count(1)
    return f"{pid}-{_EPOCH_STATE['salt']}-{next(_EPOCH_STATE['counter'])}"


@dataclass
class Release:
    """One differentially private release produced by the engine.

    Attributes
    ----------
    answers:
        The (possibly post-processed) noisy answer vector.
    mechanism:
        Label of the mechanism that produced it.
    epsilon:
        Epsilon consumed by this release.
    delta:
        Delta consumed by this release (0.0 for pure eps-DP mechanisms).
    expected_error:
        Analytic expected total squared error at release time (None when
        the mechanism has no closed form).
    workload_key:
        Cache key of the workload (for auditing).
    metadata:
        Audit trail: workload shape, the post-processing switches actually
        applied, the plan key, the accountant model, ``cost`` — the full
        typed :class:`repro.privacy.cost.NoiseCost` record charged for
        this release (family, base (epsilon, delta), calibrated noise
        magnitude, sensitivity, sample rate, and for subsampled releases
        the amplified ``charged`` pair) — and ``realized`` — the
        cumulative (epsilon, delta) guarantee the accountant's ledger
        promised right after this release's charge committed (identical
        between looped and batched execution).
    """

    # Field order preserves positional compatibility with the pre-plan-API
    # Release (delta is appended after the original fields).
    answers: np.ndarray
    mechanism: str
    epsilon: float
    expected_error: Optional[float] = None
    workload_key: str = ""
    metadata: dict = field(default_factory=dict)
    delta: float = 0.0


class PrivateQueryEngine:
    """Answer batches of linear queries over one dataset under a global
    privacy budget, via explicit plan -> execute.

    Parameters
    ----------
    data:
        The sensitive unit-count vector (length ``n``).
    total_budget:
        Total epsilon available across all releases.
    delta:
        Total delta available (default 0.0 = pure eps-DP). A positive value
        switches accounting to (eps, delta) basic composition
        (:class:`repro.privacy.accountant.ApproxDPAccountant`), appends the
        Gaussian candidates to a default candidate pool, and becomes the
        default ``delta`` of Gaussian mechanisms built by the planner — so
        by default *one* Gaussian release exhausts the delta pool (deltas
        add up, like epsilons). To fit several, give the mechanisms a
        smaller per-release delta via ``mechanism_kwargs``, e.g.
        ``{"GLRM": {"delta": total_delta / k}}``.
    candidates:
        Mechanism labels tried by ``mechanism="auto"``.
    mechanism_kwargs:
        Per-label constructor overrides, e.g. ``{"LRM": {"max_outer": 60}}``.
    seed:
        Seed for the engine's noise generator (each release consumes from
        one stream, so repeated runs of the same script are reproducible).
    plan_cache:
        ``None`` for a fresh in-memory :class:`PlanCache`, a directory path
        for a persistent one, or a ready-made :class:`PlanCache` instance
        (shareable between engines).
    accountant:
        A pre-built :class:`repro.privacy.accountant.BudgetAccountant`
        (overrides ``total_budget``/``delta``), or an accountant *model*
        name forwarded to :func:`repro.privacy.accountant.make_accountant`:
        ``"pure"``, ``"basic"``, or ``"rdp"`` (the concentrated-DP
        accountant of :mod:`repro.privacy.rdp`, which admits far more
        Gaussian releases per (eps, delta) budget than basic composition;
        it requires ``delta > 0``).
    ledger_path:
        Path to a durable budget ledger (see :mod:`repro.privacy.ledger`).
        When given, the engine's accountant is wrapped in a
        :class:`repro.privacy.ledger.DurableAccountant`: every spend is
        journaled with write-ahead intent/commit records before it takes
        effect, so a crash at any instant leaves the spend fully committed
        or fully absent, reopening the same path replays the audit trail
        bit-identically, and multiple processes sharing the path cannot
        jointly overspend. A ``.db``/``.sqlite``/``.sqlite3`` suffix
        selects the SQLite-WAL backend; anything else the append-only
        checksummed journal.
    ledger_retry:
        Optional :class:`repro.io.atomic.RetryPolicy` governing how long a
        spend waits on the ledger's cross-process lock before
        :class:`~repro.exceptions.LedgerBusyError`. The default suits
        occasional contention (a CLI and a notebook sharing one ledger);
        a serving deployment with many workers spending on one tenant
        needs a more patient policy (see ``repro.serving.worker``).
    """

    # delta and the other plan-API parameters come after the pre-PR-2
    # signature (data, total_budget, candidates, mechanism_kwargs, seed) so
    # positional callers keep working.
    def __init__(self, data, total_budget, candidates=DEFAULT_CANDIDATES,
                 mechanism_kwargs=None, seed=None, delta=0.0, plan_cache=None,
                 accountant=None, ledger_path=None, ledger_retry=None):
        self._set_data(data)
        if isinstance(accountant, BudgetAccountant):
            self._accountant = accountant
        elif isinstance(accountant, str):
            self._accountant = make_accountant(
                check_positive(total_budget, "total_budget"), delta,
                model=accountant,
            )
        elif accountant is None:
            self._accountant = make_accountant(
                check_positive(total_budget, "total_budget"), delta
            )
        else:
            raise ValidationError(
                "accountant must be a BudgetAccountant instance or a model "
                "name ('pure', 'basic', 'rdp')"
            )
        if ledger_path is not None:
            from repro.privacy.ledger import open_ledger

            self._accountant = open_ledger(
                ledger_path, self._accountant, retry=ledger_retry
            )
        if self.delta > 0.0 and candidates is DEFAULT_CANDIDATES:
            candidates = DEFAULT_CANDIDATES + APPROX_DP_CANDIDATES
        self.candidates = tuple(candidates)
        self.mechanism_kwargs = {
            label: dict(kwargs) for label, kwargs in (mechanism_kwargs or {}).items()
        }
        if self.delta > 0.0:
            # The engine's delta is the default failure probability of any
            # Gaussian mechanism the planner constructs.
            for label in APPROX_DP_CANDIDATES:
                self.mechanism_kwargs.setdefault(label, {}).setdefault("delta", self.delta)
        self._rng = ensure_rng(seed)
        if isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        else:
            self.plan_cache = PlanCache(directory=plan_cache)
        self._releases = []

    # ------------------------------------------------------------------ #
    # Data epochs
    # ------------------------------------------------------------------ #
    def _set_data(self, data):
        # The engine owns its copy (read-only) so cached strategy answers
        # keyed on the epoch token cannot go stale through an in-place
        # mutation of the caller's array; set_data is the mutation API.
        data = as_vector(data, "data").copy()
        data.setflags(write=False)
        self._data = data
        self._data_epoch = _next_data_epoch()

    def set_data(self, data):
        """Replace the engine's unit counts and stamp a new data epoch.

        The domain size must not change (plans are domain-checked). Every
        compiled plan's cached strategy answers ``L x`` are keyed on the
        epoch token, so after ``set_data`` the next release recomputes them
        against the new data — stale answers can never be served. Swapping
        data does *not* reset the privacy accountant: the budget protects
        the individuals in every dataset this engine has released about.
        """
        data = as_vector(data, "data")
        if data.size != self.domain_size:
            raise ValidationError(
                f"new data has domain {data.size}, engine expects {self.domain_size}"
            )
        self._set_data(data)

    def adopt_data(self, data, epoch):
        """Share another engine's (already validated) data vector and epoch.

        The serving tier runs one engine per tenant inside each worker;
        every tenant answers over the *same* dataset. Giving each engine
        its own copy via :meth:`set_data` would mint one epoch token per
        tenant and thrash the compiled plans' bounded per-epoch ``L x``
        cache, recomputing the strategy answers once per tenant instead of
        once per dataset. ``adopt_data`` installs a shared read-only vector
        under a caller-supplied token instead: every adopting engine serves
        from the same cached ``L x``.

        The caller owns the invariant that makes this sound: one token maps
        to one immutable vector, forever. ``data`` must already be
        read-only (pass the ``_data`` of the engine the token was minted
        by, or freeze your own array); a writable array is rejected rather
        than defensively copied, since a copy under a shared token would
        let the copies drift apart behind one cache key.
        """
        data = as_vector(data, "data")
        if data.flags.writeable:
            raise ValidationError(
                "adopt_data requires a read-only array: the epoch token "
                "promises this exact data forever (use set_data to copy "
                "and stamp a fresh token instead)"
            )
        if not isinstance(epoch, str) or not epoch:
            raise ValidationError("adopt_data epoch must be a non-empty token string")
        self._data = data
        self._data_epoch = epoch

    @property
    def data_epoch(self):
        """Opaque token identifying the current data vector (changes on
        every :meth:`set_data`); compiled plans key their ``L x`` cache on
        it."""
        return self._data_epoch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def domain_size(self):
        """Number of unit counts held by the engine."""
        return self._data.size

    @property
    def accountant(self):
        """The (eps, delta) ledger enforcing the global budget."""
        return self._accountant

    @property
    def delta(self):
        """Total delta of the engine's budget (0.0 for pure eps-DP)."""
        return self._accountant.total_delta

    @property
    def remaining_budget(self):
        """Unspent epsilon."""
        return self._accountant.remaining_epsilon

    @property
    def spent_budget(self):
        """Epsilon consumed so far."""
        return self._accountant.spent_epsilon

    @property
    def remaining_delta(self):
        """Unspent delta."""
        return self._accountant.remaining_delta

    @property
    def spent_delta(self):
        """Delta consumed so far."""
        return self._accountant.spent_delta

    @property
    def releases(self):
        """Audit log: every release made so far (most recent last)."""
        return list(self._releases)

    def can_answer(self, epsilon, delta=0.0):
        """True iff a release at (``epsilon``, ``delta``) fits the budget.

        When guarding an :meth:`execute` call, prefer :meth:`can_execute`:
        a Gaussian plan charges its own per-release delta, which this
        raw-cost predicate does not know about.
        """
        return self._accountant.can_spend(epsilon, delta)

    def can_execute(self, plan, epsilon):
        """True iff :meth:`execute` of ``plan`` at ``epsilon`` would fit.

        The plan-aware guard pairing with :meth:`execute`: it charges
        exactly what execute would — (``epsilon``, the plan's per-release
        delta) — so guard-then-execute cannot pass the guard and then fail
        the charge. Anything execute would reject up front (not a plan,
        wrong domain, bad epsilon) answers False; this is a predicate, not
        a validator.
        """
        try:
            cost = self._check_executable(plan, epsilon)
        except ValidationError:
            return False
        return self._accountant.can_spend(cost)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _check_domain(self, domain_size):
        if domain_size != self.domain_size:
            raise ValidationError(
                f"workload domain {domain_size} != engine domain {self.domain_size}"
            )

    def plan(self, workload, mechanism="auto", epsilon_hint=0.1, use_cache=True,
             parallel=False):
        """Run selection/fitting and return an :class:`ExecutionPlan`.

        ``parallel`` fans the candidate fits of an ``"auto"`` spec out over
        a process pool (``True``, or an int worker cap; see
        :func:`repro.engine.selection.rank_mechanisms`) — the ranking is
        identical to the serial path and any pool failure falls back to it.
        It does not affect the cache key: a cached plan is served the same
        way either way.

        Consumes no privacy budget (planning is data-independent). The plan
        is cached under :func:`repro.engine.plan.plan_key`: the workload
        digest, the mechanism spec and a digest of the privacy
        configuration this engine would build for it (``unit_sensitivity``,
        ``delta``, ...; the full constructor state of a mechanism
        *instance*, which is deep-copied before fitting so the caller's
        object is never mutated). A cached plan is therefore served only to
        an engine whose noise calibration it matches, while solver tuning
        and ``epsilon_hint`` stay out of the key: differently-tuned or
        restarted engines reuse one expensive (on-disk) fit. Pass
        ``use_cache=False`` to force a replan.
        """
        workload = as_workload(workload)
        self._check_domain(workload.domain_size)
        epsilon_hint = check_positive(epsilon_hint, "epsilon_hint")
        key = plan_key(workload, mechanism, self.candidates, self.mechanism_kwargs)
        if use_cache:
            cached = self.plan_cache.get(key)
            if cached is not None:
                return cached
        plan = build_plan(
            workload,
            epsilon_hint=epsilon_hint,
            mechanism=mechanism,
            candidates=self.candidates,
            mechanism_kwargs=self.mechanism_kwargs,
            parallel=parallel,
        )
        if use_cache:
            self.plan_cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _check_executable(self, plan, epsilon):
        """Validate one (plan, epsilon) request; returns its typed
        :class:`~repro.privacy.cost.NoiseCost`.

        The cost's (epsilon, delta) are exactly the floats the scalar
        engine charged — ``check_positive(epsilon)`` and ``plan.delta`` —
        with the noise family, calibrated magnitude and (for subsampled
        plans) the sample rate riding along for the accountant and the
        audit trail.
        """
        if not isinstance(plan, ExecutionPlan):
            raise ValidationError(
                f"execute expects an ExecutionPlan, got {type(plan).__name__}; "
                "build one with engine.plan(workload)"
            )
        self._check_domain(plan.domain_size)
        return plan.release_cost(epsilon)

    def _head(self, plan, cost, switches):
        """The plan-level fields of a release (everything but its vector,
        realized guarantee and cost): one dict per ``(plan, cost,
        switches)`` batch group, shared by the group's stored releases so
        a journal commit stores it once."""
        return {
            "mechanism": plan.mechanism_label,
            "workload_key": plan.workload_key,
            "expected_error": plan.predicted_error(cost.epsilon),
            "shape": None if plan.shape is None else list(plan.shape),
            "plan_key": plan.plan_key,
            "accountant": self._accountant.name,
            "postprocess": {name: bool(switches[name]) for name in _SWITCHES},
        }

    @staticmethod
    def _release_from_stored(stored, deduplicated=False):
        """Build a :class:`Release` from its stored form — the one builder
        of fresh and replayed releases alike. ``realized`` is the
        cumulative (spent_epsilon, spent_delta) guarantee of the
        accountant *after* this release's charge committed — the audit
        trail of what the whole ledger promises at that point, which under
        non-additive accounting (RDP) is the only faithful per-release
        privacy figure. A replay gets its own copy of the vector and is
        flagged ``metadata["deduplicated"] = True``."""
        head, cost = stored.head, stored.cost
        shape = head["shape"]
        metadata = {
            "shape": None if shape is None else tuple(shape),
            "plan_key": head["plan_key"],
            "accountant": head["accountant"],
            "realized": {"epsilon": stored.realized[0], "delta": stored.realized[1]},
            "cost": cost_record(cost),
            "postprocess": dict(head["postprocess"]),
        }
        answers = stored.values
        if deduplicated:
            metadata["deduplicated"] = True
            answers = np.array(answers, dtype=np.float64)
        return Release(
            answers=answers,
            mechanism=head["mechanism"],
            epsilon=cost.epsilon,
            delta=cost.delta,
            expected_error=head["expected_error"],
            workload_key=head["workload_key"],
            metadata=metadata,
        )

    @staticmethod
    def _check_request_key(key):
        if key is None:
            return None
        if not isinstance(key, str) or not key or len(key) > 128:
            raise ValidationError(
                "request_key must be a non-empty string of at most 128 "
                f"characters; got {key!r}"
            )
        return key

    @classmethod
    def _release_from_payload(cls, payload):
        """Rebuild a replayed :class:`Release` from its stored result: a
        :class:`StoredRelease`, or the JSON payload a format-1/2 ledger
        journaled. The rebuilt release is flagged
        ``metadata["deduplicated"] = True`` — it re-exposes an
        already-charged release, never a new one."""
        if isinstance(payload, StoredRelease):
            return cls._release_from_stored(payload, deduplicated=True)
        metadata = dict(payload.get("metadata") or {})
        shape = metadata.get("shape")
        if shape is not None:
            metadata["shape"] = tuple(shape)
        metadata["deduplicated"] = True
        expected = payload.get("expected_error")
        return Release(
            answers=np.asarray(payload["values"], dtype=np.float64),
            mechanism=payload["mechanism"],
            epsilon=float(payload["epsilon"]),
            delta=float(payload.get("delta", 0.0)),
            expected_error=None if expected is None else float(expected),
            workload_key=payload.get("workload_key", ""),
            metadata=metadata,
        )

    def _release(self, prepared):
        """Release a validated batch of ``(plan, cost, switches, key)``
        entries through the accountant's one transaction, ``spend_keyed``.

        Fresh releases are built *before* the charge commits (and, on a
        ledger, before the intent/commit pair is journaled) and are logged
        in the audit trail; ``produce`` returns the stored form of each
        keyed position (a snapshot of its vector) and ``None`` for the
        others. Deduplicated positions return the stored release rebuilt
        (``metadata["deduplicated"] = True``) and are **not** re-logged —
        no new privacy event happened.
        """
        produced = {}

        def produce(positions, realized):
            staged = self._produce_batch(
                [prepared[position][:3] for position in positions], realized
            )
            results = []
            for position, stored in zip(positions, staged):
                produced[position] = self._release_from_stored(stored)
                results.append(
                    None if prepared[position][3] is None
                    else StoredRelease(
                        stored.values.copy(), stored.head, stored.realized, stored.cost
                    )
                )
            return results

        outcomes = self._accountant.spend_keyed(
            [(cost, key) for _, cost, _, key in prepared], produce
        )
        releases = []
        for position, (payload, deduped) in enumerate(outcomes):
            if deduped:
                releases.append(self._release_from_payload(payload))
            else:
                release = produced[position]
                self._releases.append(release)
                releases.append(release)
        return releases

    def execute(self, plan, epsilon, non_negative=False, integral=False,
                consistent=False, request_key=None):
        """One budgeted release of a plan's answers at ``epsilon``.

        Admits (``epsilon``, plan's per-release ``delta``) against the
        accountant before producing the release, and commits the charge
        once it exists; an over-budget request raises
        :class:`repro.exceptions.PrivacyBudgetError` and leaves the audit
        log untouched. The post-processing switches are privacy-free (see
        :mod:`repro.analysis.postprocess`) and are recorded in
        ``Release.metadata``.

        ``request_key`` (an idempotency key, any non-empty string up to
        128 characters) makes the release **exactly-once**: the first
        execution charges the budget and durably journals the released
        vector alongside the charge's commit record (when the engine is
        ledger-backed), and every later call with the same key — after a
        crash, a timeout, or from another process sharing the ledger —
        returns the *same* release bit-identically with zero additional
        charge, flagged ``metadata["deduplicated"] = True``.
        """
        request_key = self._check_request_key(request_key)
        cost = self._check_executable(plan, epsilon)
        switches = {
            "non_negative": non_negative,
            "integral": integral,
            "consistent": consistent,
        }
        return self._release([(plan, cost, switches, request_key)])[0]

    def execute_many(self, requests, non_negative=False, integral=False, consistent=False):
        """Atomically release a batch of requests through the vectorised
        multi-release path.

        Each request is ``(plan, epsilon)``, ``(plan, epsilon, switches)``
        or ``(plan, epsilon, switches, key)`` where ``switches`` is a dict
        overriding the batch-default post-processing flags for that
        release (e.g. ``{"integral": True}`` for a count workload next to
        a ``{"consistent": True}`` one) and ``key`` is an optional
        idempotency key giving that request exactly-once semantics (see
        :meth:`execute`): an already-charged key is answered from the
        durable result journal with zero additional charge, duplicate
        keys within one batch fold into a single charge, and only the
        still-fresh requests are charged (atomically).

        Requests are grouped by plan: each group's noise is drawn in **one**
        ``(k, r)`` RNG call and recombined with one GEMM through the plan's
        compiled release operator (per-release post-processing switches are
        applied afterwards), so batch throughput does not pay the
        per-release GEMV/draw/validation overhead of looped
        :meth:`execute`. Each release is distributed exactly as the
        equivalent ``execute`` call; the RNG *stream* advances in plan-group
        order rather than request order (intentional — a documented
        serving-path property, not a privacy-relevant one).

        The whole batch is all-or-nothing: the accountant admits it in one
        step, and if producing any release then fails (e.g. a
        post-processing projection error) nothing is charged — the
        partially generated noise is discarded unexposed, a ledger
        journals nothing — and the audit log is left untouched. On success
        every fresh :class:`Release` is logged, and all are returned in
        request order.
        """
        defaults = {
            "non_negative": non_negative, "integral": integral, "consistent": consistent,
        }
        # Per-batch memo: a 256-request batch typically holds a handful of
        # plans and epsilons, so validation plus typed-cost construction
        # runs once per distinct (plan, epsilon), not once per request —
        # several microseconds per request (the ABC isinstance inside
        # check_positive plus the plan property chain), which is on the
        # order of the whole batched per-release cost. Memoizing also makes
        # equal requests share one NoiseCost *object*, which the
        # accountants' own spend_many memo keys on. Memo validity requires
        # _check_executable to stay pure in (plan identity, epsilon value);
        # a future check depending on anything else must bypass this memo.
        cost_memo = {}
        prepared = []
        for request in requests:
            try:
                plan, epsilon = request[0], request[1]
                overrides = request[2] if len(request) > 2 else {}
                key = request[3] if len(request) > 3 else None
            except (TypeError, IndexError, KeyError) as exc:
                raise ValidationError(
                    "each execute_many request must be (plan, epsilon), "
                    "(plan, epsilon, switches) or (plan, epsilon, switches, "
                    f"key); got {request!r}"
                ) from exc
            key = self._check_request_key(key)
            if not isinstance(overrides, dict):
                raise ValidationError(
                    "execute_many switches must be a dict of post-processing "
                    f"flags; got {overrides!r}"
                )
            unknown = set(overrides) - set(defaults)
            if unknown:
                raise ValidationError(
                    f"unknown post-processing switches {sorted(unknown)}; "
                    f"choose from {sorted(defaults)}"
                )
            eps_key = (
                epsilon
                if isinstance(epsilon, (int, float)) and not isinstance(epsilon, bool)
                else None
            )
            memo_key = (id(plan), eps_key) if eps_key is not None else None
            cost = cost_memo.get(memo_key) if memo_key is not None else None
            if cost is None:
                cost = self._check_executable(plan, epsilon)
                if memo_key is not None:
                    cost_memo[memo_key] = cost
            prepared.append((plan, cost, {**defaults, **overrides}, key))
        if not prepared:
            raise ValidationError("execute_many needs at least one (plan, epsilon) request")
        return self._release(prepared)

    def _produce_batch(self, prepared, realized):
        """Produce the stored form of every release of an admitted batch,
        plan-grouped.

        Each group runs through the plan's compiled release operator (noise
        draw plus recombination, with the strategy answers ``L x`` cached
        per data epoch): same-plan requests share one batched noise draw +
        GEMM. The returned list is in the original request order.
        ``realized`` holds the per-request post-charge ledger states (bit-
        identical to what a loop of execute() calls would have recorded),
        also in request order.
        """
        groups = {}  # id(plan) -> [request index, ...] in request order
        for index, (plan, _, _) in enumerate(prepared):
            groups.setdefault(id(plan), []).append(index)
        staged = [None] * len(prepared)
        heads = {}
        for indices in groups.values():
            plan = prepared[indices[0]][0]
            # Each release takes a row view of the freshly-allocated (k, m)
            # batch buffer — rows never overlap, so releases cannot alias
            # each other's answers (or the cached strategy answers).
            rows = plan.compile().answer_many(
                self._data, [prepared[index][1].epsilon for index in indices],
                self._rng, epoch=self._data_epoch,
            )
            for row, index in zip(rows, indices):
                _, cost, switches = prepared[index]
                group = (
                    id(plan), cost, bool(switches["non_negative"]),
                    bool(switches["integral"]), bool(switches["consistent"]),
                )
                head = heads.get(group)
                if head is None:
                    head = heads[group] = self._head(plan, cost, switches)
                staged[index] = StoredRelease(
                    self._postprocess(plan, row, **switches), head, realized[index], cost
                )
        return staged

    @staticmethod
    def _postprocess(plan, answers, non_negative, integral, consistent):
        """Apply the privacy-free post-processing switches to raw noisy
        answers."""
        if not (non_negative or integral or consistent):
            return answers
        # Only the consistency projection reads W; clamping/rounding must
        # not force an implicit large-domain workload dense.
        return postprocess_answers(
            plan.workload.matrix if consistent else None,
            answers,
            non_negative=non_negative,
            integral=integral,
            consistent=consistent,
        )
