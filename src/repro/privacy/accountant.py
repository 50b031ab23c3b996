"""Pluggable privacy accountants: (epsilon, delta) ledgers for the engine.

The paper charges a whole batch one scalar epsilon under sequential
composition. A production engine additionally needs (a) an *audited,
atomic* way to charge several releases at once, charged exactly once per
idempotency key (:meth:`BudgetAccountant.spend_keyed`, the one release
transaction of :class:`repro.engine.PrivateQueryEngine`) and (b) the
relaxed (eps, delta) model the Gaussian mechanisms live in. This module
abstracts both behind one interface:

* :class:`PureDPAccountant` — sequential composition of pure eps-DP
  releases (``sum eps_i <= eps_total``); refuses any release with
  ``delta > 0``.
* :class:`ApproxDPAccountant` — *basic composition* for (eps, delta)-DP
  (Dwork & Roth, Thm 3.16): ``sum eps_i <= eps_total`` and
  ``sum delta_i <= delta_total``. Pure releases (``delta = 0``) compose
  freely alongside Gaussian ones.
* :class:`repro.privacy.rdp.RDPAccountant` — concentrated-DP (Rényi)
  composition: the ledger is an accumulated RDP curve, converted to an
  (eps, delta_total) guarantee on every admission check. Far tighter than
  basic composition for many Gaussian releases (see :mod:`repro.privacy.rdp`).

**One spend transaction.** ``spend``, ``spend_many`` and ``spend_keyed``
all run ``BudgetAccountant._transact``: answer stored keys and fold
in-call duplicates, admit the fresh costs all-or-nothing, produce one
result per charged request, record them; any failure after admission
rolls the state back. Storage plugs in through three hooks:
``_transaction()`` (a context manager around it), ``_lookup(key)`` and
``_record(validated, keys, payloads)`` — in memory a null context and a
dict, in :class:`repro.privacy.ledger.DurableAccountant` the store's lock,
the replayed dedup index and the journaled intent/commit pair.

The ledger *state* is an opaque value managed through the ``_ledger_state``
/ ``_fits_state`` / ``_commit_state`` hooks — a scalar ``(spent_epsilon,
spent_delta)`` pair for the two composition-by-addition accountants, an RDP
curve for the Rényi one — so :meth:`BudgetAccountant.spend_many` can
simulate the sequential ledger for *any* composition rule and stay
all-or-nothing and bit-identical to a loop of :meth:`spend` calls.

Costs flow through the hooks either as legacy ``(epsilon, delta)`` float
pairs or as typed :class:`repro.privacy.cost.NoiseCost` objects.  The
additive accountants charge a typed cost's *charged pair* (the amplified
(ε, δ) guarantee — identical to ``(epsilon, delta)`` at sample rate 1), so
scalar arithmetic is bit-for-bit unchanged; the RDP accountant reads the
family off the typed cost instead of inferring it from ``delta``.

Migration note for ``spend()`` callers: ``spend(epsilon, delta)`` still
accepts two scalars and returns the validated pair.  It now *also* accepts
a single :class:`~repro.privacy.cost.NoiseCost` (``spend(cost)``, no
separate delta) and then returns that cost object; ``spend_many`` likewise
accepts a mix of pairs and typed costs.  Code that unpacked the return
value as ``eps, delta = accountant.spend(...)`` must use
``repro.privacy.cost.charged_pair`` on the result if it may receive typed
costs — ``NoiseCost`` is deliberately not iterable.

Both scalar accountants absorb floating-point dust at the boundary:
spending a budget down in steps whose exact sum equals the total always
succeeds and leaves ``remaining_epsilon == 0.0`` exactly (no
``0.3 - 3 * 0.1 != 0`` failures), while a genuine overspend raises
:class:`repro.exceptions.PrivacyBudgetError` *before* any state changes —
``spend_many`` is all-or-nothing.
"""

from __future__ import annotations

import abc
import contextlib
from typing import NamedTuple

import numpy as np

from repro.exceptions import LedgerError, PrivacyBudgetError, ReproError
from repro.linalg.validation import check_positive
from repro.privacy.cost import NoiseCost, as_spend_cost, charged_pair, cost_record

__all__ = [
    "BudgetAccountant",
    "PureDPAccountant",
    "ApproxDPAccountant",
    "StoredRelease",
    "make_accountant",
]


class StoredRelease(NamedTuple):
    """The stored result of one keyed release, as ``spend_keyed`` keeps it.

    ``values`` is the released float64 vector; ``head`` the JSON-able
    plan-level fields the releases of one batch group share (one dict
    object per group, so a journal stores it once per commit); ``realized``
    the ledger's cumulative ``(epsilon, delta)`` right after the charge;
    ``cost`` the charged cost (on replay from a durable ledger, the cost
    its intent record journaled). The accountant treats ``head`` as
    opaque: what it holds is the producer's business.
    """

    values: np.ndarray
    head: dict
    realized: tuple
    cost: object

    def to_record(self):
        """The JSON form (the answers as a float list) — what
        ``result_for`` reports for an audit."""
        return {
            "values": self.values.tolist(),
            "head": self.head,
            "realized": list(self.realized),
            "cost": cost_record(self.cost),
        }


def _check_delta(delta, name="delta"):
    delta = float(delta)
    if delta < 0.0:
        raise PrivacyBudgetError(f"{name} must be >= 0, got {delta}")
    if delta >= 1.0:
        raise PrivacyBudgetError(f"{name} must be < 1, got {delta}")
    return delta


class BudgetAccountant(abc.ABC):
    """Mutable (epsilon, delta) privacy ledger.

    Subclasses define one composition rule via :meth:`_validate_cost` (and,
    for non-additive rules, the ledger-state hooks); the base class owns
    the protocol: spend tracking, the one spend transaction behind
    :meth:`spend`, the atomic :meth:`spend_many` and the exactly-once
    :meth:`spend_keyed` (which rolls its own charge back when ``produce``
    fails), and the reporting properties. A durable ledger overrides the
    transaction's storage hooks and :meth:`sync`/:meth:`close`.
    """

    #: Short label recorded in release audit metadata.
    name = "accountant"

    def __init__(self, total_epsilon, total_delta=0.0):
        self._total_epsilon = check_positive(total_epsilon, "total_epsilon")
        self._total_delta = _check_delta(total_delta, "total_delta")
        self._spent_epsilon = 0.0
        self._spent_delta = 0.0
        # Float-dust slack at the budget boundary. Epsilon totals are O(1)
        # so an absolute floor is safe; delta totals can be arbitrarily
        # tiny, so delta slack is strictly relative — it must stay well
        # below any genuine spend or partial spends of a tiny delta budget
        # would snap to exhausted.
        self._eps_slack = 1e-12 * max(1.0, self._total_epsilon)
        self._delta_slack = 1e-9 * self._total_delta
        # spend_keyed's result journal: idempotency key -> stored result.
        self._stored_results = {}
        #: Keyed requests answered from the result journal (or folded onto
        #: an in-call duplicate) instead of charging the budget.
        self.dedup_hits = 0

    # ------------------------------------------------------------------ #
    # Ledger-state hooks (scalar (spent_epsilon, spent_delta) by default;
    # subclasses with a richer ledger — e.g. an RDP curve — override all
    # of them together).
    # ------------------------------------------------------------------ #
    def _fresh_state(self):
        """The ledger state of an untouched accountant."""
        return (0.0, 0.0)

    def _ledger_state(self):
        """The current (opaque, immutable) ledger state."""
        return (self._spent_epsilon, self._spent_delta)

    def _set_ledger_state(self, state):
        self._spent_epsilon, self._spent_delta = state

    def _state_spent(self, state):
        """Report a state as a ``(spent_epsilon, spent_delta)`` pair — the
        (eps, delta)-DP guarantee the releases committed so far jointly
        satisfy under this accountant's composition rule."""
        return state

    def _fits_state(self, cost, state):
        epsilon, delta = charged_pair(cost)
        spent_epsilon, spent_delta = state
        # A fully-spent coordinate admits nothing more: the slack below only
        # forgives float dust on the *last* spend that reaches the total —
        # it must not re-arm after exhaustion (else unbounded dust-sized
        # releases would pass while the clamped ledger under-reports them).
        if epsilon > 0.0 and spent_epsilon >= self._total_epsilon:
            return False
        if delta > 0.0 and spent_delta >= self._total_delta:
            return False
        return (
            epsilon <= max(self._total_epsilon - spent_epsilon, 0.0) + self._eps_slack
            and delta <= max(self._total_delta - spent_delta, 0.0) + self._delta_slack
        )

    def _commit_state(self, cost, state):
        epsilon, delta = charged_pair(cost)
        spent_epsilon, spent_delta = state
        spent_epsilon += epsilon
        spent_delta += delta
        # Clamp float dust so exact exhaustion reads remaining == 0.0 and a
        # subsequent zero-remainder probe fails cleanly instead of fuzzily.
        # The condition is signed on purpose: _fits admits a spend up to
        # remaining + slack, so the sum can land a hair *above* the total
        # (and, through the addition's own rounding, just outside a
        # symmetric slack window) — any overshoot reaching this point is
        # dust by construction and must clamp too, or spent would read
        # above total and violate the ledger's documented invariant. A
        # coordinate only clamps when this commit actually spent on it:
        # a total smaller than its own slack (e.g. total_delta = 1e-18)
        # must not be snapped to exhausted by spends on the *other*
        # coordinate.
        if epsilon > 0.0 and self._total_epsilon - spent_epsilon <= self._eps_slack:
            spent_epsilon = self._total_epsilon
        if delta > 0.0 and self._total_delta - spent_delta <= self._delta_slack:
            spent_delta = self._total_delta
        return spent_epsilon, spent_delta

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_epsilon(self):
        """Total epsilon available across all releases."""
        return self._total_epsilon

    @property
    def total_delta(self):
        """Total delta available across all releases."""
        return self._total_delta

    @property
    def spent_epsilon(self):
        """Epsilon consumed so far (the eps of the realized guarantee)."""
        return self._state_spent(self._ledger_state())[0]

    @property
    def spent_delta(self):
        """Delta consumed so far (the delta of the realized guarantee)."""
        return self._state_spent(self._ledger_state())[1]

    @property
    def remaining_epsilon(self):
        """Epsilon still available."""
        return max(self._total_epsilon - self.spent_epsilon, 0.0)

    @property
    def remaining_delta(self):
        """Delta still available."""
        return max(self._total_delta - self.spent_delta, 0.0)

    # ------------------------------------------------------------------ #
    # Spending
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _validate_cost(self, epsilon, delta):
        """Validate one charged (epsilon, delta) pair; return it normalized.

        Raises :class:`PrivacyBudgetError` when the cost is malformed for
        this composition model (independent of the remaining budget).
        Typed costs are validated on their *charged pair* — the single
        δ-handling rule every accountant shares — so e.g. a Gaussian
        :class:`~repro.privacy.cost.NoiseCost` is rejected by the pure
        accountant exactly like a scalar ``delta > 0`` cost.
        """

    def _validate(self, cost):
        """Normalize/validate a cost: float pair in, float pair out;
        :class:`~repro.privacy.cost.NoiseCost` in, the same cost out."""
        if isinstance(cost, NoiseCost):
            self._validate_cost(*cost.charged_pair())
            return cost
        epsilon, delta = cost
        return self._validate_cost(epsilon, delta)

    def _fits(self, cost):
        return self._fits_state(cost, self._ledger_state())

    def can_spend(self, cost, delta=0.0):
        """True iff one release at ``cost`` fits in the budget.

        ``cost`` is a scalar epsilon (with ``delta``), an
        ``(epsilon, delta)`` pair, or a typed
        :class:`~repro.privacy.cost.NoiseCost`. A malformed cost
        (non-positive epsilon, delta out of range, delta on a pure
        accountant) answers False rather than raising — this is a
        predicate, not a spend.
        """
        self.sync()
        try:
            cost = self._validate(as_spend_cost(cost, delta))
        except ReproError:
            return False
        return self._fits(cost)

    def spend(self, cost, delta=0.0):
        """Consume one cost; returns the validated cost.

        ``spend(epsilon, delta)`` keeps the historical scalar form and
        returns the validated ``(epsilon, delta)`` pair;
        ``spend(noise_cost)`` consumes a typed
        :class:`~repro.privacy.cost.NoiseCost` (no separate ``delta``)
        and returns it. Raises :class:`PrivacyBudgetError` (leaving the
        ledger untouched) when the cost is invalid or would exceed the
        budget.
        """
        return self._transact([(as_spend_cost(cost, delta), None)], many=False)[0][0]

    def spend_many(self, costs, realized_out=None):
        """Atomically consume a batch of costs (pairs or NoiseCosts).

        Either the whole batch is charged (and the validated costs are
        returned — pairs for pair input, the typed cost for
        :class:`~repro.privacy.cost.NoiseCost` input) or
        :class:`PrivacyBudgetError` is raised with no state change.

        ``realized_out``, when given a list, receives one
        ``(spent_epsilon, spent_delta)`` pair per cost: the cumulative
        guarantee of the ledger *after* that cost commits — bit-identical
        to what a loop of :meth:`spend` calls would have read off the
        properties, since admission simulates exactly that loop.
        """
        return self._transact(
            [(cost, None) for cost in costs], many=True, realized_out=realized_out
        )[0]

    def _admit(self, costs, realized, many):
        """The admission step of :meth:`_transact`: charge ``costs``
        all-or-nothing and return them validated. ``many=False`` words a
        refusal as ``spend``'s single-cost message instead of the batch
        one. ``realized`` (a list, or ``None``) receives the cumulative
        spent pair after each cost."""
        # Serving batches are typically many releases at a handful of
        # distinct costs; validate each distinct cost once (validation is
        # pure in the cost). NoiseCost is frozen/hashable, so typed costs
        # memoize exactly like pair tuples.
        memo = {}
        validated = []
        for cost in costs:
            if not isinstance(cost, NoiseCost):
                cost = tuple(cost)
            checked = memo.get(cost)
            if checked is None:
                checked = memo[cost] = self._validate(cost)
            validated.append(checked)
        if not validated:
            raise PrivacyBudgetError("spend_many needs at least one cost")
        # Admission simulates the sequential ledger cost by cost — the same
        # _fits/_commit arithmetic (clamping included) a loop of spend()
        # calls would run — so a batch is admitted if and only if the
        # equivalent loop would succeed, and leaves *bit-identical* spend
        # state (float addition is not associative, and a pre-summed total
        # admits boundary dust the looped exhaustion guard refuses). The
        # simulated state is assigned only after every cost fits, keeping
        # the charge all-or-nothing.
        state = self._ledger_state()
        for index, cost in enumerate(validated):
            if not self._fits_state(cost, state):
                epsilon, delta = charged_pair(cost)
                spent_epsilon, spent_delta = self._state_spent(state)
                remaining = (
                    f"(eps={max(self._total_epsilon - spent_epsilon, 0.0)}, "
                    f"delta={max(self._total_delta - spent_delta, 0.0)})"
                )
                if not many:
                    raise PrivacyBudgetError(
                        f"cannot spend (eps={epsilon}, delta={delta}): remaining "
                        f"{remaining} of (eps={self._total_epsilon}, "
                        f"delta={self._total_delta})"
                    )
                charged = [charged_pair(entry) for entry in validated]
                raise PrivacyBudgetError(
                    f"batch of {len(validated)} releases needs "
                    f"(eps={sum(eps for eps, _ in charged)}, "
                    f"delta={sum(delta for _, delta in charged)}): release "
                    f"{index} at (eps={epsilon}, delta={delta}) exceeds what "
                    f"would remain at that point {remaining}"
                )
            state = self._commit_state(cost, state)
            if realized is not None:
                realized.append(self._state_spent(state))
        self._set_ledger_state(state)
        return validated

    def result_for(self, key):
        """The stored result of the keyed spend that charged ``key`` (a
        stored release as its JSON form), or ``None`` if no keyed spend
        with that key has committed."""
        self.sync()
        result = self._lookup(key)
        return result.to_record() if isinstance(result, StoredRelease) else result

    def spend_keyed(self, requests, produce):
        """Exactly-once spend: charge each request at most once per key.

        ``requests`` is a list of ``(cost, key)`` pairs; a ``key`` of
        ``None`` opts that request out of deduplication. A key whose spend
        already committed returns its stored result with **zero additional
        charge**; duplicate keys *within* one call fold onto one charge.
        The still-fresh requests are charged atomically, then
        ``produce(positions, realized)`` — the request indices just
        charged and their realized cumulative ``(spent_epsilon,
        spent_delta)`` — returns one result per position, which is stored
        under its key. If ``produce`` raises, or returns the wrong number
        of results (:class:`~repro.exceptions.LedgerError`), the charge is
        rolled back and no key is stored: its results were never exposed.
        Returns a list aligned with ``requests`` of ``(result, deduped)``
        pairs.
        """
        return self._transact(requests, produce)[1]

    # ------------------------------------------------------------------ #
    # The one spend transaction and its three storage hooks
    # ------------------------------------------------------------------ #
    def _transaction(self):
        """Context manager around one spend transaction. In memory there is
        nothing to lock, sync or checkpoint."""
        return contextlib.nullcontext()

    def _lookup(self, key):
        """The stored result for idempotency ``key``, or ``None``."""
        return self._stored_results.get(key)

    def _record(self, validated, keys, payloads):
        """Make an admitted spend permanent: store each keyed payload.
        ``validated`` are the charged costs, ``keys`` and ``payloads``
        aligned with them."""
        for key, payload in zip(keys, payloads):
            if key is not None:
                self._stored_results[key] = payload

    def _transact(self, requests, produce=None, many=None, realized_out=None):
        """The one spend transaction behind :meth:`spend`,
        :meth:`spend_many` and :meth:`spend_keyed` (see the module
        docstring). ``produce=None`` builds no results. ``many`` picks
        ``spend``'s or ``spend_many``'s refusal wording; ``None`` picks
        by fresh count and charges nothing when every request is a stored
        hit. Returns ``(validated costs, results aligned with
        requests)``."""
        before = None
        try:
            with self._transaction():
                results = [None] * len(requests)
                fresh = []  # positions to charge, in request order
                folds = []  # (position, index into fresh) of in-call duplicates
                first = {}  # key -> index into fresh
                for position, (_, key) in enumerate(requests):
                    stored = None if key is None else self._lookup(key)
                    if stored is not None:
                        results[position] = (stored, True)
                    elif key in first:
                        folds.append((position, first[key]))
                    else:
                        if key is not None:
                            first[key] = len(fresh)
                        fresh.append(position)
                # Replays count once the transaction commits: a refused or
                # failed batch delivered none of them.
                hits = len(requests) - len(fresh)
                if not fresh and many is None:
                    self.dedup_hits += hits
                    return [], results
                state = self._ledger_state()
                realized = None if produce is None and realized_out is None else []
                validated = self._admit(
                    [requests[position][0] for position in fresh], realized,
                    many=len(fresh) > 1 if many is None else many,
                )
                before = state  # admitted: any failure from here rolls back
                if produce is None:
                    payloads = [None] * len(fresh)
                else:
                    payloads = list(produce(list(fresh), list(realized)))
                if len(payloads) != len(fresh):
                    raise LedgerError(
                        "spend_keyed produce() returned "
                        f"{len(payloads)} results for {len(fresh)} "
                        "charged requests"
                    )
                self._record(
                    validated, [requests[position][1] for position in fresh], payloads
                )
        except BaseException:
            if before is not None:
                self._set_ledger_state(before)
            raise
        self.dedup_hits += hits
        if realized_out is not None:
            realized_out.extend(realized)
        for position, payload in zip(fresh, payloads):
            results[position] = (payload, False)
        for position, index in folds:
            results[position] = (payloads[index], True)
        return validated, results

    def sync(self):
        """Refresh the ledger state from its backing store; returns
        ``self``. In memory the state is always current."""
        return self

    def close(self):
        """Release the backing store's resources (none in memory)."""

    def reset(self):
        """Forget all spending and every stored keyed result (useful
        between independent experiments)."""
        self._set_ledger_state(self._fresh_state())
        self._stored_results = {}

    def __repr__(self):
        return (
            f"{type(self).__name__}(spent=({self.spent_epsilon:.6g}, "
            f"{self.spent_delta:.3g}), total=({self._total_epsilon:.6g}, "
            f"{self._total_delta:.3g}))"
        )


class PureDPAccountant(BudgetAccountant):
    """Sequential composition of pure eps-DP releases.

    The paper's model: each release costs some eps and the costs add up.
    Any release carrying ``delta > 0`` (a Gaussian-mechanism release) is
    rejected outright — approximate-DP releases need
    :class:`ApproxDPAccountant`.
    """

    name = "pure-dp"

    def __init__(self, total_epsilon):
        super().__init__(total_epsilon, total_delta=0.0)

    def _validate_cost(self, epsilon, delta):
        epsilon = check_positive(epsilon, "epsilon")
        delta = float(delta)
        if delta != 0.0:
            raise PrivacyBudgetError(
                f"pure eps-DP accountant cannot absorb delta={delta}; "
                "construct the engine with delta > 0 (ApproxDPAccountant) "
                "for Gaussian-mechanism releases"
            )
        return epsilon, 0.0


class ApproxDPAccountant(BudgetAccountant):
    """Basic (eps, delta) composition: epsilons add, deltas add.

    ``k`` releases at (eps_i, delta_i) jointly satisfy
    (sum eps_i, sum delta_i)-DP; this accountant enforces both sums against
    the engine's totals. Pure releases (delta = 0) are accepted and only
    consume epsilon.
    """

    name = "approx-dp"

    def __init__(self, total_epsilon, total_delta):
        total_delta = _check_delta(total_delta, "total_delta")
        if total_delta <= 0.0:
            raise PrivacyBudgetError(
                "ApproxDPAccountant needs total_delta > 0; use PureDPAccountant "
                "for a pure eps-DP budget"
            )
        super().__init__(total_epsilon, total_delta=total_delta)

    def _validate_cost(self, epsilon, delta):
        epsilon = check_positive(epsilon, "epsilon")
        return epsilon, _check_delta(delta)


#: Model aliases accepted by :func:`make_accountant` (and the engine's
#: ``accountant=`` string form).
_MODEL_ALIASES = {
    "auto": "auto",
    "pure": "pure",
    "pure-dp": "pure",
    "basic": "basic",
    "approx": "basic",
    "approx-dp": "basic",
    "rdp": "rdp",
    "zcdp": "rdp",
    "renyi": "rdp",
}


def _resolve_model(model, delta):
    """Normalize an accountant-model alias; one resolver for every entry
    point (:func:`make_accountant`, the engine's ``accountant=`` string,
    :func:`repro.privacy.rdp.releases_per_budget`)."""
    resolved = _MODEL_ALIASES.get(str(model).strip().lower())
    if resolved is None:
        raise PrivacyBudgetError(
            f"unknown accountant model {model!r}; choose from "
            f"{sorted(set(_MODEL_ALIASES))}"
        )
    if resolved == "auto":
        resolved = "pure" if delta == 0.0 else "basic"
    return resolved


def make_accountant(total_epsilon, delta=0.0, model="auto"):
    """Factory used by the engine.

    ``model="auto"`` (the historical behaviour) picks pure composition when
    ``delta == 0`` and basic (eps, delta) composition otherwise. Explicit
    models: ``"pure"``, ``"basic"`` (aliases ``"approx"``/``"approx-dp"``),
    and ``"rdp"`` (aliases ``"zcdp"``/``"renyi"``) for the concentrated-DP
    accountant of :mod:`repro.privacy.rdp` — the tight choice for many
    Gaussian releases; it needs ``delta > 0`` as its conversion target.
    """
    delta = _check_delta(delta, "delta")
    resolved = _resolve_model(model, delta)
    if resolved == "pure":
        if delta > 0.0:
            raise PrivacyBudgetError(
                f"pure accountant cannot hold a delta budget (got {delta}); "
                "use model='basic' or model='rdp'"
            )
        return PureDPAccountant(total_epsilon)
    if resolved == "basic":
        return ApproxDPAccountant(total_epsilon, delta)
    from repro.privacy.rdp import RDPAccountant

    return RDPAccountant(total_epsilon, delta)
