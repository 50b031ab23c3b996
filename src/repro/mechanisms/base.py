"""Mechanism framework: the shared interface every mechanism implements.

A *mechanism* answers a fixed batch workload ``W`` under
eps-differential privacy. The lifecycle mirrors scikit-learn:

1. ``mechanism.fit(workload)`` — any per-workload optimisation (a no-op for
   the Laplace baselines, an SDP for MM, the ALM decomposition for LRM).
2. ``mechanism.answer_many(x, epsilons, rng)`` — ``k`` independent
   releases at once: every registry mechanism but the subsampled one
   releases through its :class:`repro.mechanisms.operator.ReleaseOperator`
   (one ``(k, r)`` RNG call, one GEMM — the high-traffic serving path);
   only data-dependent releases loop over their own ``_answer``.
3. ``mechanism.answer(x, epsilon, rng)`` — one noisy release of ``W x``:
   a batch of one through the same path.
4. ``mechanism.expected_squared_error(epsilon)`` — the analytic expected
   total squared error ``E ||y_noisy - W x||_2^2``: the release operator's
   Lemma 1 ``var(noise) * ||B||_F^2`` unless a mechanism has a closer
   form, and
5. ``mechanism.empirical_squared_error(x, epsilon, trials, rng)`` — the
   Monte-Carlo estimate the paper's experiments report (20 trials), run
   through the batched path.

Every ``answer`` call (and every row of ``answer_many``) is an independent
eps-DP release; repeated calls compose sequentially (use a
:class:`repro.privacy.BudgetAccountant`, or a
:class:`repro.engine.PrivateQueryEngine`, to track).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError
from repro.linalg.validation import (
    as_epsilon_batch,
    as_vector,
    check_positive,
    check_positive_int,
    ensure_rng,
)
from repro.privacy.cost import NoiseCost
from repro.workloads.workload import Workload

__all__ = ["Mechanism", "as_workload"]


def as_workload(workload):
    """Coerce a :class:`Workload` or raw matrix into a :class:`Workload`."""
    if isinstance(workload, Workload):
        return workload
    return Workload(workload)


class Mechanism:
    """Base class for batch linear-query mechanisms.

    Subclasses implement ``_fit`` (optional) and either
    ``release_operator`` (a linear release ``B (L x + noise)``, which then
    drives ``answer``, ``answer_many``, ``release_cost`` and
    ``expected_squared_error``) or ``_answer`` (a release that is not a
    fixed linear pipeline).
    """

    #: Short name used in experiment tables (e.g. "LRM", "WM").
    name = "mechanism"

    #: True for mechanisms whose releases carry a failure probability delta
    #: (the Gaussian family). The engine uses this to charge (eps, delta)
    #: against an approximate-DP accountant instead of plain eps.
    requires_delta = False

    #: Names of constructor parameters that change the *privacy calibration*
    #: of a release independently of the fitted state — e.g. an assumed
    #: ``unit_sensitivity`` or a Gaussian ``delta``. Solver/tuning knobs do
    #: NOT belong here (their noise is calibrated to whatever strategy they
    #: produce, so any fit is a valid release). These parameters are part
    #: of the plan cache key (:func:`repro.engine.plan.mechanism_spec`), so
    #: engines configured differently never share a cached plan; subclasses
    #: adding such a parameter MUST declare it or differently-configured
    #: engines sharing a cache can silently release under-noised answers.
    privacy_params = ()

    def __init__(self):
        self._workload = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, workload):
        """Prepare the mechanism for the given workload; returns ``self``."""
        workload = as_workload(workload)
        self._workload = workload
        self._fit(workload)
        return self

    def _fit(self, workload):
        """Subclass hook; default is a no-op."""

    @property
    def workload(self):
        """The fitted workload (raises if ``fit`` has not been called)."""
        self._check_fitted()
        return self._workload

    @property
    def is_fitted(self):
        """True once ``fit`` has been called."""
        return self._workload is not None

    def _check_fitted(self):
        if self._workload is None:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    # ------------------------------------------------------------------ #
    # Answering
    # ------------------------------------------------------------------ #
    def answer(self, x, epsilon, rng=None):
        """One eps-differentially-private release of the batch answer.

        Parameters
        ----------
        x:
            Data vector of length ``n`` (the unit counts).
        epsilon:
            Privacy budget for this release.
        rng:
            ``None``, an int seed, or a :class:`numpy.random.Generator`.

        Returns
        -------
        numpy.ndarray
            Noisy answers of length ``m``.
        """
        self._check_fitted()
        x = as_vector(x, "x", size=self._workload.domain_size)
        epsilon = check_positive(epsilon, "epsilon")
        rng = ensure_rng(rng)
        return self._answer_many(x, np.array([epsilon]), rng)[0]

    def _answer(self, x, epsilon, rng):
        """One release of a mechanism without a release operator, the
        hook :meth:`_answer_many` loops over; inputs are pre-validated."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither release_operator() "
            "nor _answer()"
        )

    def answer_many(self, x, epsilons, rng=None):
        """``k`` independent releases of ``W x`` as a ``(k, m)`` array.

        Row ``i`` is an ``epsilons[i]``-DP release distributed exactly like
        ``answer(x, epsilons[i])``; the releases compose sequentially (total
        cost ``sum(epsilons)``). Mechanisms exposing a
        :meth:`release_operator` draw the whole batch's noise in one
        ``(k, r)`` RNG call and recombine with a single GEMM; the RNG
        stream therefore advances differently from ``k`` separate
        ``answer`` calls (intentional — the distributions are identical),
        while a batch of one is exactly ``answer``.
        """
        self._check_fitted()
        x = as_vector(x, "x", size=self._workload.domain_size)
        epsilons = as_epsilon_batch(epsilons)
        rng = ensure_rng(rng)
        return self._answer_many(x, epsilons, rng)

    def _answer_many(self, x, epsilons, rng):
        """Batched release hook; inputs are pre-validated.

        Default: :meth:`ReleaseOperator.answer_many`. The loop over
        :meth:`_answer` serves only mechanisms without an operator — the
        subsampled mechanism and ``_answer``-only subclasses.
        """
        operator = self.release_operator()
        if operator is not None:
            return operator.answer_many(operator.strategy_answers(x), epsilons, rng)
        return np.stack([self._answer(x, epsilon, rng) for epsilon in epsilons])

    # ------------------------------------------------------------------ #
    # Release operator (serving hot path)
    # ------------------------------------------------------------------ #
    def release_operator(self):
        """The release as a data-independent linear pipeline, or ``None``.

        Mechanisms whose release is ``B (L x + noise)`` return a
        :class:`repro.mechanisms.operator.ReleaseOperator` (WM and HM
        included), which then releases, prices and predicts the error of
        every release; the serving layer precomputes ``L x`` per data
        epoch and batches noise draws. The default ``None`` leaves a
        mechanism on its own :meth:`_answer`. Only meaningful once fitted.
        """
        return None

    # ------------------------------------------------------------------ #
    # Privacy cost
    # ------------------------------------------------------------------ #
    def release_cost(self, epsilon):
        """The typed :class:`~repro.privacy.cost.NoiseCost` of one release.

        Operator-backed mechanisms delegate to
        :meth:`ReleaseOperator.cost`, which records the noise family,
        calibrated magnitude and sensitivity alongside the (eps, delta)
        guarantee. Mechanisms without an operator fall back to the family
        the scalar accountants historically assumed from
        :attr:`requires_delta` — the same (eps, delta) floats, now
        self-describing. Subclasses with richer structure (subsampling,
        custom calibration) override this.
        """
        epsilon = check_positive(epsilon, "epsilon")
        operator = self.release_operator()
        if operator is not None:
            return operator.cost(epsilon)
        delta = float(getattr(self, "delta", 0.0)) if self.requires_delta else 0.0
        family = "gaussian" if delta > 0.0 else "laplace"
        return NoiseCost(family=family, epsilon=epsilon, delta=delta)

    # ------------------------------------------------------------------ #
    # Spec protocol (disk plan-cache survival for custom mechanisms)
    # ------------------------------------------------------------------ #
    def to_spec(self):
        """Constructor arguments as a JSON-serializable dict.

        Mechanisms implementing this protocol can be archived inside a
        saved :class:`repro.engine.plan.ExecutionPlan` even when they are
        not in the built-in registry: the plan file stores
        ``{class, module, spec}`` and the loader rebuilds the mechanism
        with :meth:`from_spec` and refits it. The default raises — only
        mechanisms whose full configuration round-trips through plain JSON
        should opt in. Fitted state is NOT part of the spec; the loader
        restores it separately (or refits).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the spec protocol; "
            "override to_spec()/from_spec() to make it plan-cacheable"
        )

    @classmethod
    def from_spec(cls, spec):
        """Rebuild a mechanism from :meth:`to_spec` output.

        Default: the spec is the constructor keyword dict. Subclasses
        whose constructors take non-JSON arguments override this.
        """
        return cls(**dict(spec))

    # ------------------------------------------------------------------ #
    # Error accounting
    # ------------------------------------------------------------------ #
    def expected_squared_error(self, epsilon):
        """Analytic expected total squared error ``E ||y - W x||^2``.

        Default: the release operator's Lemma 1 formula,
        ``var(noise) * ||B||_F^2``
        (:meth:`ReleaseOperator.expected_squared_error`). Mechanisms
        without an operator raise; subclasses with a closer form (a
        structural term, a transform's closed form) override this.
        """
        self._check_fitted()
        epsilon = check_positive(epsilon, "epsilon")
        operator = self.release_operator()
        if operator is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no analytic error formula; "
                "use empirical_squared_error"
            )
        return operator.expected_squared_error(epsilon)

    def average_expected_error(self, epsilon):
        """Per-query analytic expected error (total divided by ``m``),
        the paper's *Average Squared Error* in expectation."""
        self._check_fitted()
        return self.expected_squared_error(epsilon) / self._workload.num_queries

    def empirical_squared_error(self, x, epsilon, trials=20, rng=None):
        """Monte-Carlo total squared error, averaged over ``trials`` runs.

        This is the measurement protocol of Section 6: each algorithm is
        executed repeatedly (20 times in the paper) and the mean squared L2
        distance to the exact answers is reported. The trials run through
        the batched :meth:`answer_many` path — one RNG draw and one GEMM
        for operator-backed mechanisms — so the RNG stream differs from the
        historical per-trial loop (the per-trial distribution does not).
        """
        self._check_fitted()
        trials = check_positive_int(trials, "trials")
        x = as_vector(x, "x", size=self._workload.domain_size)
        epsilon = check_positive(epsilon, "epsilon")
        rng = ensure_rng(rng)
        exact = self._workload.answer(x)
        noisy = self._answer_many(x, np.full(trials, epsilon), rng)
        residual = noisy - exact[None, :]
        return float(np.sum(residual * residual)) / trials

    def empirical_average_error(self, x, epsilon, trials=20, rng=None):
        """Per-query Monte-Carlo error (the figure-axis metric)."""
        self._check_fitted()
        sse = self.empirical_squared_error(x, epsilon, trials=trials, rng=rng)
        return sse / self._workload.num_queries

    # ------------------------------------------------------------------ #
    # Plan metadata
    # ------------------------------------------------------------------ #
    def plan_metadata(self):
        """Facts an :class:`repro.engine.plan.ExecutionPlan` reports about
        this mechanism: class, label, privacy model, fitted-workload
        identity. Subclasses extend with mechanism-specific structure
        (decomposition rank, noise calibration, ...) — everything returned
        must be JSON-serializable.
        """
        meta = {
            "class": type(self).__name__,
            "name": self.name,
            "privacy_model": "(eps, delta)-DP" if self.requires_delta else "pure eps-DP",
            "is_fitted": self.is_fitted,
        }
        if self.requires_delta:
            meta["delta"] = float(getattr(self, "delta", 0.0))
        if self.is_fitted:
            meta["workload_shape"] = list(self._workload.shape)
            meta["workload_digest"] = self._workload.content_digest
        return meta

    def __repr__(self):
        fitted = f"fitted shape={self._workload.shape}" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}({fitted})"
