"""Compiled release operators: the serving hot path of an ExecutionPlan.

``ExecutionPlan.compile()`` returns a :class:`CompiledPlan` that strips a
repeated ``execute`` down to its irreducible work:

* the **data-independent** release state (strategy ``L``, recombination
  ``B``, sensitivity, noise family) is pulled out of the mechanism once,
  via :meth:`repro.mechanisms.base.Mechanism.release_operator`;
* the **data-dependent** strategy answers ``L x`` are cached per *data
  epoch* — an opaque token the engine stamps whenever its data vector is
  (re)set — so a repeated release is one noise draw plus one ``B @ (.)``
  and nothing else: no input re-validation, no GEMV against the domain-sized
  ``x``.

Every release goes through :meth:`CompiledPlan.answer_many`: one ``(k, r)``
RNG draw and one GEMM for all ``k`` releases of a batch, and
:meth:`CompiledPlan.answer` is a batch of one. The plan's costs are priced
from the same compiled operator (``ExecutionPlan.release_cost``), so what
is charged and what is drawn come from one object.

Every registry mechanism but the subsampled one has a release operator,
the fast-transform WM and HM included. The mechanisms without one — the
subsampled mechanism, whose Bernoulli thinning is data-dependent, and
``_answer``-only subclasses — compile to a transparent fallback that
forwards to ``mechanism.answer_many``. ``compile()`` never changes
semantics, only cost.
"""

from __future__ import annotations

from repro.linalg.validation import as_epsilon_batch

__all__ = ["CompiledPlan"]

#: Strategy-answer cache entries kept per compiled plan. One engine serving
#: a plan needs exactly one; a handful tolerates a few engines (or epochs)
#: sharing a plan object without thrashing.
_MAX_EPOCH_ENTRIES = 4


class CompiledPlan:
    """Precomputed release state of one :class:`ExecutionPlan`.

    Attributes
    ----------
    operator:
        The mechanism's :class:`repro.mechanisms.operator.ReleaseOperator`,
        or ``None`` when the mechanism has no linear pipeline (the
        subsampled mechanism and ``_answer``-only subclasses; releases then
        forward to ``mechanism.answer_many``).
    strategy_evaluations:
        How many times ``L x`` was actually computed (cache misses) — the
        observable the epoch-invalidation tests pin down.
    releases:
        Served release counter.
    """

    def __init__(self, plan):
        self.plan = plan
        self.mechanism = plan.mechanism
        self.operator = self.mechanism.release_operator()
        # epoch token -> precomputed strategy answers (L x).
        self._strategy_cache = {}
        self.strategy_evaluations = 0
        self.releases = 0

    # ------------------------------------------------------------------ #
    # Strategy-answer (L x) epoch cache
    # ------------------------------------------------------------------ #
    def strategy_answers(self, x, epoch=None):
        """``L x`` for the current data, cached per epoch token.

        ``epoch=None`` (direct, engine-less use) always recomputes: without
        a token there is no way to know the data did not change in place.
        """
        if epoch is None:
            self.strategy_evaluations += 1
            return self.operator.strategy_answers(x)
        cached = self._strategy_cache.get(epoch)
        if cached is None:
            cached = self.operator.strategy_answers(x)
            self.strategy_evaluations += 1
            self._strategy_cache[epoch] = cached
            while len(self._strategy_cache) > _MAX_EPOCH_ENTRIES:
                self._strategy_cache.pop(next(iter(self._strategy_cache)))
        return cached

    # ------------------------------------------------------------------ #
    # Releasing
    # ------------------------------------------------------------------ #
    def answer(self, x, epsilon, rng, epoch=None):
        """One release: a batch of one through :meth:`answer_many`."""
        return self.answer_many(x, [epsilon], rng, epoch)[0]

    def answer_many(self, x, epsilons, rng, epoch=None):
        """``k`` releases as a ``(k, m)`` array: one RNG draw, one GEMM.

        ``x`` must be pre-validated (the engine validates its data vector
        once, when set); ``epsilons`` are validated here, once.
        ``mechanism.answer_many`` runs the same
        :meth:`ReleaseOperator.answer_many`, so compiling does not move a
        seeded engine's stream. Operator-less mechanisms (subsampled,
        ``_answer``-only) route through their own
        ``Mechanism.answer_many``, which loops.
        """
        epsilons = as_epsilon_batch(epsilons)
        self.releases += epsilons.size
        if self.operator is None:
            return self.mechanism.answer_many(x, epsilons, rng)
        return self.operator.answer_many(self.strategy_answers(x, epoch), epsilons, rng)

    def __repr__(self):
        kind = "operator" if self.operator is not None else "fallback"
        return (
            f"CompiledPlan({self.plan.mechanism_label}, {kind}, "
            f"releases={self.releases}, strategy_evaluations={self.strategy_evaluations})"
        )
