"""Concentrated differential privacy: Rényi-DP curves and the RDP accountant.

Basic (eps, delta) composition charges ``sum eps_i`` and ``sum delta_i`` —
linear in the number of releases on *both* coordinates, which exhausts a
serving budget long before the actual privacy loss does. Rényi DP (Mironov
2017) tracks the loss as a *curve* ``eps(alpha)`` over Rényi orders
``alpha > 1``; curves **add** under composition, and the composed curve
converts back to a single (eps, delta_total) guarantee at the end. For
``k`` Gaussian releases the converted epsilon grows like ``sqrt(k)``
instead of ``k`` — the releases-per-budget win measured in
``benchmarks/test_bench_accounting_perf.py``.

Curves here are plain float arrays evaluated on a fixed order grid
(:data:`DEFAULT_ALPHA_GRID`), so composition is vector addition and the
ledger of :class:`RDPAccountant` is one array:

* :func:`gaussian_rdp_curve` — ``eps(alpha) = alpha / (2 (sigma/Delta)^2)``
  (Mironov 2017, Prop. 7; equivalently ``1/(2 (sigma/Delta)^2)``-zCDP).
* :func:`laplace_rdp_curve` — the known Laplace bound (Mironov 2017,
  Prop. 6), computed in log space.
* :func:`rdp_to_approx_dp` — the optimized conversion of Balle et al.
  (2020) / Canonne–Kamath–Steinke, minimized over the grid.

:class:`RDPAccountant` plugs into the engine through
``make_accountant(..., model="rdp")`` or
``PrivateQueryEngine(..., accountant="rdp")``. Costs arrive either as
typed :class:`repro.privacy.cost.NoiseCost` objects — the accountant
dispatches on the declared family (:func:`noise_cost_rdp_curve`) — or as
legacy (epsilon, delta) pairs, which keep the historical inference:

* ``delta == 0`` — a Laplace release at scale ``Delta/eps`` (every pure
  mechanism in this package is Laplace-noised; the Laplace curve is *not*
  a bound for arbitrary pure eps-DP mechanisms).
* ``delta > 0`` — a Gaussian release whose sigma is what the **default
  analytic calibration** (:func:`repro.privacy.noise.gaussian_sigma`)
  produces for that (eps, delta). A release that actually used a larger
  sigma (e.g. ``mode="classical"``) is accounted conservatively, never
  optimistically, since the RDP curve shrinks as sigma grows.

Typed Laplace/Gaussian costs are mapped with *exactly* the legacy
expressions (same sigma calibration, same curve arithmetic), so a typed
release composes bit-identically with its scalar twin. The typed
vocabulary additionally unlocks :func:`subsampled_gaussian_rdp_curve` —
the Sampled Gaussian Mechanism bound of Mironov, Talwar & Zhang (2019),
far tighter under composition than charging the amplified (ε, δ) pair —
and the discrete Gaussian, whose curve equals the continuous one at the
same sigma (Canonne–Kamath–Steinke 2020).
"""

from __future__ import annotations

import numpy as np

from scipy.special import gammaln, logsumexp

from repro.exceptions import PrivacyBudgetError
from repro.linalg.validation import check_positive
from repro.privacy.accountant import BudgetAccountant, _check_delta
from repro.privacy.cost import NoiseCost, amplified_pair
from repro.privacy.noise import gaussian_sigma

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "gaussian_rdp_curve",
    "laplace_rdp_curve",
    "subsampled_gaussian_rdp_curve",
    "compose_rdp_curves",
    "rdp_to_approx_dp",
    "release_rdp_curve",
    "noise_cost_rdp_curve",
    "releases_per_budget",
    "RDPAccountant",
]

#: Fixed Rényi-order grid (all ``alpha > 1``): dense fractional orders near
#: 1 (they win the conversion for large cumulative loss), integer orders
#: through 32, then a geometric tail (small cumulative loss / tiny deltas).
DEFAULT_ALPHA_GRID = np.array(
    [1.0 + x / 10.0 for x in range(1, 10)]
    + list(range(2, 33))
    + [40, 48, 64, 96, 128, 192, 256, 384, 512, 1024],
    dtype=np.float64,
)
DEFAULT_ALPHA_GRID.setflags(write=False)


def _as_alphas(alphas):
    if alphas is None:
        return DEFAULT_ALPHA_GRID
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size == 0 or np.any(alphas <= 1.0):
        raise PrivacyBudgetError("alpha grid must be a non-empty 1-D array of orders > 1")
    return alphas


def gaussian_rdp_curve(noise_multiplier, alphas=None):
    """RDP curve of the Gaussian mechanism: ``eps(alpha) = alpha / (2 nm^2)``.

    ``noise_multiplier`` is ``sigma / Delta_2`` — the noise scale per unit
    of L2 sensitivity. The curve is exact (Mironov 2017, Prop. 7) and is
    the zCDP line ``rho * alpha`` with ``rho = 1 / (2 nm^2)``.
    """
    noise_multiplier = check_positive(noise_multiplier, "noise_multiplier")
    alphas = _as_alphas(alphas)
    return alphas / (2.0 * noise_multiplier * noise_multiplier)


def laplace_rdp_curve(scale_ratio, alphas=None):
    """RDP curve of the Laplace mechanism at scale ``lambda = b / Delta_1``.

    Mironov 2017, Prop. 6 (``alpha > 1``):

        eps(alpha) = log( alpha/(2 alpha - 1) e^{(alpha-1)/lambda}
                          + (alpha-1)/(2 alpha - 1) e^{-alpha/lambda} )
                     / (alpha - 1)

    computed with ``logaddexp`` so large ``alpha / small lambda`` (high
    per-release epsilon) cannot overflow. Increasing in ``alpha`` and
    bounded by the pure-DP epsilon ``1 / lambda``.
    """
    scale_ratio = check_positive(scale_ratio, "scale_ratio")
    alphas = _as_alphas(alphas)
    first = np.log(alphas / (2.0 * alphas - 1.0)) + (alphas - 1.0) / scale_ratio
    second = np.log((alphas - 1.0) / (2.0 * alphas - 1.0)) - alphas / scale_ratio
    return np.logaddexp(first, second) / (alphas - 1.0)


def compose_rdp_curves(*curves):
    """Composition of RDP guarantees: curves (on one grid) simply add."""
    if not curves:
        raise PrivacyBudgetError("compose_rdp_curves needs at least one curve")
    total = np.zeros_like(np.asarray(curves[0], dtype=np.float64))
    for curve in curves:
        total = total + np.asarray(curve, dtype=np.float64)
    return total


def rdp_to_approx_dp(curve, delta, alphas=None):
    """Convert an RDP curve to the smallest epsilon at target ``delta``.

    The optimized conversion (Balle et al. 2020, Thm 21; as deployed in the
    standard DP-SGD accountants): for every order,

        eps(alpha) = rdp(alpha) + log1p(-1/alpha) - (log delta + log alpha)/(alpha - 1)

    minimized over the grid and floored at 0. A finer grid can only lower
    the result, so evaluating on the fixed grid is sound (an upper bound).
    """
    delta = check_positive(delta, "delta")
    if delta >= 1.0:
        raise PrivacyBudgetError(f"delta must be < 1, got {delta}")
    alphas = _as_alphas(alphas)
    curve = np.asarray(curve, dtype=np.float64)
    if curve.shape != alphas.shape:
        raise PrivacyBudgetError(
            f"curve shape {curve.shape} does not match alpha grid {alphas.shape}"
        )
    candidates = (
        curve
        + np.log1p(-1.0 / alphas)
        - (np.log(delta) + np.log(alphas)) / (alphas - 1.0)
    )
    return max(float(np.min(candidates)), 0.0)


def release_rdp_curve(epsilon, delta, alphas=None):
    """The RDP cost curve of one engine release charged at (epsilon, delta).

    ``delta == 0`` maps to the Laplace mechanism at scale ``Delta/eps``
    (scale ratio ``1/eps``); ``delta > 0`` maps to the Gaussian mechanism
    at the sigma the default analytic calibration assigns to
    (epsilon, delta). See the module docstring for the soundness
    discussion.
    """
    epsilon = check_positive(epsilon, "epsilon")
    delta = _check_delta(delta)
    if delta == 0.0:
        return laplace_rdp_curve(1.0 / epsilon, alphas)
    return gaussian_rdp_curve(gaussian_sigma(1.0, epsilon, delta), alphas)


def subsampled_gaussian_rdp_curve(noise_multiplier, sample_rate, alphas=None):
    """RDP curve of the Sampled Gaussian Mechanism (Bernoulli rate ``q``).

    Mironov, Talwar & Zhang 2019 ("Rényi Differential Privacy of the
    Sampled Gaussian Mechanism"), integer-order bound:

        eps(alpha) = log( sum_{k=0}^{alpha} C(alpha, k)
                          (1-q)^{alpha-k} q^k e^{(k^2-k)/(2 sigma^2)} )
                     / (alpha - 1)

    evaluated in log space (``gammaln`` binomials + ``logsumexp``) so
    large orders cannot overflow. Fractional grid orders are bounded by
    the value at ``ceil(alpha)`` — Rényi divergence is non-decreasing in
    the order, so that is a sound (slightly loose) upper bound — and the
    whole curve is capped at the *unsampled* Gaussian curve, which is
    itself always a valid bound for the subsampled mechanism
    (quasi-convexity of Rényi divergence in the mixture argument). At
    ``q = 1`` this reproduces :func:`gaussian_rdp_curve` exactly.
    """
    noise_multiplier = check_positive(noise_multiplier, "noise_multiplier")
    sample_rate = float(sample_rate)
    if not 0.0 < sample_rate <= 1.0:
        raise PrivacyBudgetError(
            f"sample_rate must be in (0, 1], got {sample_rate}"
        )
    alphas = _as_alphas(alphas)
    unsampled = gaussian_rdp_curve(noise_multiplier, alphas)
    if sample_rate == 1.0:
        return unsampled
    log_q = np.log(sample_rate)
    log_1mq = np.log1p(-sample_rate)
    inv_two_sigma_sq = 1.0 / (2.0 * noise_multiplier * noise_multiplier)
    orders = np.ceil(alphas).astype(np.int64)
    bound_by_order = {}
    for order in np.unique(orders):
        k = np.arange(order + 1, dtype=np.float64)
        log_binom = gammaln(order + 1.0) - gammaln(k + 1.0) - gammaln(order - k + 1.0)
        log_terms = (
            log_binom
            + k * log_q
            + (order - k) * log_1mq
            + (k * k - k) * inv_two_sigma_sq
        )
        bound_by_order[int(order)] = float(logsumexp(log_terms)) / (order - 1.0)
    sampled = np.array(
        [bound_by_order[int(order)] for order in orders], dtype=np.float64
    )
    return np.minimum(sampled, unsampled)


def noise_cost_rdp_curve(cost, alphas=None):
    """The RDP curve a typed :class:`NoiseCost` declares.

    Unlike :func:`release_rdp_curve` (the legacy inference from a bare
    pair), the family is dispatched structurally:

    * ``laplace`` — :func:`laplace_rdp_curve` at scale ratio ``1/eps``.
    * ``gaussian`` / ``discrete_gaussian`` — :func:`gaussian_rdp_curve`
      at the analytically calibrated sigma (the discrete Gaussian
      satisfies the same concentrated-DP guarantee as the continuous one
      at equal sigma; Canonne–Kamath–Steinke 2020).
    * ``subsampled_gaussian`` — :func:`subsampled_gaussian_rdp_curve` at
      the *base* mechanism's sigma and the declared sample rate.

    The Laplace/Gaussian branches use the exact expressions of
    :func:`release_rdp_curve`, so typed and scalar releases of the same
    guarantee compose bit-identically.
    """
    if not isinstance(cost, NoiseCost):
        raise PrivacyBudgetError(
            f"noise_cost_rdp_curve needs a NoiseCost, got {cost!r}"
        )
    if cost.family == "laplace":
        return laplace_rdp_curve(1.0 / cost.epsilon, alphas)
    if cost.family in ("gaussian", "discrete_gaussian"):
        return gaussian_rdp_curve(
            gaussian_sigma(1.0, cost.epsilon, cost.delta), alphas
        )
    # subsampled_gaussian: the (epsilon, delta) on the cost describe the
    # base (unsampled) release; sigma is re-derived with the same default
    # calibration the Gaussian branch uses.
    return subsampled_gaussian_rdp_curve(
        gaussian_sigma(1.0, cost.epsilon, cost.delta),
        cost.sample_rate,
        alphas,
    )


def releases_per_budget(
    epsilon, delta, total_epsilon, total_delta, model="rdp", alphas=None,
    sample_rate=1.0,
):
    """How many identical (epsilon, delta) releases fit one budget.

    The planning-side counterpart of the accountants, used by
    ``ExecutionPlan.explain(budget=...)`` and the accounting benchmark:

    * ``model="pure"`` — sequential composition (0 when ``delta > 0``).
    * ``model="basic"`` — basic (eps, delta) composition:
      ``min(floor(E/eps), floor(D/delta))``.
    * ``model="rdp"`` — largest ``k`` whose k-fold composed curve converts
      to at most ``total_epsilon`` at ``total_delta``.

    ``sample_rate`` < 1 prices each release as a *subsampled* release of
    the same base (epsilon, delta) guarantee served from a Bernoulli
    sample at rate q: the additive models charge the amplified pair
    ``(log(1 + q(e^eps - 1)), q delta)``, the RDP model composes
    :func:`subsampled_gaussian_rdp_curve` (which requires ``delta > 0`` —
    the subsampled family is Gaussian). At the default ``sample_rate=1``
    every code path is bit-identical to the historical behaviour.

    Counts are analytic (no ledger is mutated) and include the
    accountants' boundary-dust slack, so an exactly divisible budget
    counts its full quota. For the RDP model the k-fold curve is formed as
    ``k * cost`` while a live :class:`RDPAccountant` *accumulates* the
    cost sequentially — float addition is not multiplication, so at an
    exact float boundary the prediction can differ from a ledger drain by
    one release (never more: both use the same conversion and slack).
    """
    from repro.privacy.accountant import _resolve_model

    epsilon = check_positive(epsilon, "epsilon")
    delta = _check_delta(delta)
    total_epsilon = check_positive(total_epsilon, "total_epsilon")
    total_delta = _check_delta(total_delta, "total_delta")
    sample_rate = float(sample_rate)
    if not 0.0 < sample_rate <= 1.0:
        raise PrivacyBudgetError(
            f"sample_rate must be in (0, 1], got {sample_rate}"
        )
    # One alias vocabulary for every accounting entry point: the same
    # resolver make_accountant (and the engine's accountant= string) uses.
    resolved = _resolve_model(model, total_delta)
    if resolved in ("pure", "basic"):
        # amplified_pair is the identity at sample_rate == 1 (same floats).
        epsilon, delta = amplified_pair(epsilon, delta, sample_rate)
    if resolved == "pure":
        if delta > 0.0:
            return 0
        return int(np.floor(total_epsilon / epsilon * (1.0 + 1e-12)))
    if resolved == "basic":
        count = int(np.floor(total_epsilon / epsilon * (1.0 + 1e-12)))
        if delta > 0.0:
            if total_delta <= 0.0:
                return 0
            count = min(count, int(np.floor(total_delta / delta * (1.0 + 1e-9))))
        return count
    if total_delta <= 0.0:
        raise PrivacyBudgetError("RDP accounting needs total_delta > 0")
    alphas = _as_alphas(alphas)
    if sample_rate < 1.0:
        if delta <= 0.0:
            raise PrivacyBudgetError(
                "subsampled RDP accounting needs a per-release delta > 0 "
                "(the subsampled family is Gaussian)"
            )
        cost = noise_cost_rdp_curve(
            NoiseCost(
                family="subsampled_gaussian",
                epsilon=epsilon,
                delta=delta,
                sample_rate=sample_rate,
            ),
            alphas,
        )
    else:
        cost = release_rdp_curve(epsilon, delta, alphas)
    # Mirror the ledger's admission slack so a budget sitting exactly on a
    # k-fold boundary counts the same quota the accountant would admit.
    slack = 1e-12 * max(1.0, total_epsilon)

    def fits(k):
        return rdp_to_approx_dp(k * cost, total_delta, alphas) <= total_epsilon + slack

    if not fits(1):
        return 0
    hi = 1
    while fits(hi * 2):
        hi *= 2
        if hi > 2**62:  # pragma: no cover - absurd budgets
            return hi
    lo = hi  # fits(lo) is True, fits(hi * 2) is False
    hi = hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


class RDPAccountant(BudgetAccountant):
    """Concentrated-DP ledger: the accumulated RDP curve of all releases.

    The budget is still expressed as an (eps, delta) pair — the engine's
    interface does not change — but the ledger is the composed RDP curve:
    a spend is admitted iff the curve *including it* still converts to at
    most ``total_epsilon`` at target ``total_delta``. ``spent_epsilon``
    reports the converted epsilon of the current curve (the guarantee all
    committed releases jointly satisfy); ``spent_delta`` is ``0`` before
    any release and the conversion target ``total_delta`` afterwards — the
    whole point of the model is that per-release deltas calibrate noise
    but are *not* summed against the delta budget.

    Compared to the scalar accountants: the first release realizes a
    slightly larger epsilon than its nominal cost (the conversion is not
    tight for a single release), after which composition grows like
    ``sqrt(k)`` instead of ``k`` — for serving workloads the crossover is
    almost immediate (see ``benchmarks/test_bench_accounting_perf.py``).

    All :class:`BudgetAccountant` contracts carry over through the
    ledger-state hooks: ``spend`` raises before any state change,
    ``spend_many`` is all-or-nothing and bit-identical to a loop of
    ``spend`` calls (curves add in request order), and a failed
    ``spend_keyed`` restores the curve it started from.
    """

    name = "rdp"

    def __init__(self, total_epsilon, total_delta, alphas=None):
        total_delta = _check_delta(total_delta, "total_delta")
        if total_delta <= 0.0:
            raise PrivacyBudgetError(
                "RDPAccountant needs total_delta > 0 (the RDP->(eps, delta) "
                "conversion target); use PureDPAccountant for a pure budget"
            )
        super().__init__(total_epsilon, total_delta=total_delta)
        self._alphas = _as_alphas(alphas)
        self._curve = self._frozen(np.zeros(self._alphas.shape))
        self._spent_any = False
        # Serving batches repeat a handful of distinct costs; the Gaussian
        # cost curve hides an analytic-calibration bisection, so memoize
        # per cost pair (pure function of the pair and the grid).
        self._cost_cache = {}

    @staticmethod
    def _frozen(curve):
        curve = np.asarray(curve, dtype=np.float64)
        curve.setflags(write=False)
        return curve

    @property
    def alphas(self):
        """The Rényi order grid curves are evaluated on."""
        return self._alphas

    @property
    def rdp_curve(self):
        """The accumulated (composed) RDP curve of all committed releases."""
        return self._curve

    def _cost_curve(self, cost):
        # ``cost`` is a validated (epsilon, delta) tuple or a NoiseCost —
        # both hashable, so both memoize; a typed cost and its scalar twin
        # get distinct entries but (for Laplace/Gaussian) identical curves.
        curve = self._cost_cache.get(cost)
        if curve is None:
            if len(self._cost_cache) >= 1024:
                self._cost_cache.clear()
            if isinstance(cost, NoiseCost):
                curve = noise_cost_rdp_curve(cost, self._alphas)
            else:
                curve = release_rdp_curve(cost[0], cost[1], self._alphas)
            curve = self._cost_cache[cost] = self._frozen(curve)
        return curve

    def _realized_epsilon(self, curve, spent_any):
        if not spent_any:
            return 0.0
        realized = rdp_to_approx_dp(curve, self._total_delta, self._alphas)
        # The RDP analogue of the scalar accountants' sign-aware commit
        # clamp: admission tolerates boundary dust (realized <= total +
        # eps_slack), so a committed ledger can convert to a hair above
        # the total — dust by construction, clamped so spent_epsilon never
        # reads above total_epsilon (the documented ledger invariant, and
        # what lands in Release.metadata["realized"]). States further out
        # (only reachable transiently while *evaluating* a candidate
        # spend, which this clamp must not admit) stay unclamped.
        overshoot = realized - self._total_epsilon
        if 0.0 < overshoot <= self._eps_slack:
            realized = self._total_epsilon
        return realized

    # ------------------------------------------------------------------ #
    # Ledger-state hooks
    # ------------------------------------------------------------------ #
    def _fresh_state(self):
        return (self._frozen(np.zeros(self._alphas.shape)), False)

    def _ledger_state(self):
        # Curves are immutable (commits allocate a new array), so sharing
        # the array between the live ledger and saved states is safe.
        return (self._curve, self._spent_any)

    def _set_ledger_state(self, state):
        self._curve, self._spent_any = state

    def _state_spent(self, state):
        curve, spent_any = state
        return (
            self._realized_epsilon(curve, spent_any),
            self._total_delta if spent_any else 0.0,
        )

    def _fits_state(self, cost, state):
        curve, spent_any = state
        # No re-arm after exhaustion: every valid cost has epsilon > 0, so
        # once the realized guarantee reaches the total nothing more fits
        # (mirrors the scalar accountants' boundary semantics).
        if self._realized_epsilon(curve, spent_any) >= self._total_epsilon:
            return False
        composed = curve + self._cost_curve(cost)
        return (
            self._realized_epsilon(composed, True)
            <= self._total_epsilon + self._eps_slack
        )

    def _commit_state(self, cost, state):
        curve, _ = state
        return (self._frozen(curve + self._cost_curve(cost)), True)

    def _validate_cost(self, epsilon, delta):
        # Per-release delta is a *calibration* parameter under RDP (it
        # selects the Gaussian sigma), not a draw against total_delta, so
        # any delta in [0, 1) is acceptable — including values above the
        # budget's conversion target. Typed costs reach this through their
        # charged pair (BudgetAccountant._validate): the one shared rule
        # for what a release *claims*, even though the RDP ledger then
        # composes the family curve rather than summing the pair.
        epsilon = check_positive(epsilon, "epsilon")
        return epsilon, _check_delta(delta)
