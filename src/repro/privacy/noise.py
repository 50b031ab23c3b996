"""Noise primitives: Laplace (Section 3.1) and Gaussian (the (eps, delta)
extension).

The Laplace Mechanism adds i.i.d. zero-mean Laplace noise with scale
``Delta / eps`` to each coordinate of a query answer, where ``Delta`` is the
L1 sensitivity of the query set. The variance of ``Lap(s)`` is ``2 s^2``, so
the expected squared error of an m-dimensional answer is ``2 m Delta^2/eps^2``.

The Gaussian mechanism supports the relaxed (eps, delta)-differential
privacy used by the L2 branch of the matrix-mechanism line (and flagged as
future work in the paper): noise ``N(0, sigma^2)`` calibrated to the *L2*
sensitivity. The default calibration is the **analytic Gaussian mechanism**
(Balle & Wang, ICML 2018): the smallest sigma whose exact privacy profile

    P(Z >= Delta/(2 sigma) - eps sigma/Delta)
        - e^eps P(Z >= Delta/(2 sigma) + eps sigma/Delta) <= delta

holds (``Z`` standard normal), found by bisection — valid for **every**
``eps > 0``. The classical Dwork & Roth calibration
``sigma = Delta_2 sqrt(2 ln(1.25/delta)) / eps`` is available as
``mode="classical"``; it is only a sufficient condition for ``eps < 1`` and
is rejected outside that range. Note that the analytic sigma is **not**
proportional to ``1/eps``, so batched releases compute one calibrated sigma
per epsilon (:func:`gaussian_sigma_batch`) instead of scaling a unit-eps
sigma.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr, ndtr

from repro.exceptions import ValidationError
from repro.linalg.validation import (
    as_epsilon_batch,
    check_positive,
    check_positive_int,
    ensure_rng,
)

__all__ = [
    "laplace_noise",
    "laplace_noise_batch",
    "laplace_scale",
    "laplace_variance",
    "expected_squared_noise",
    "gaussian_sigma",
    "gaussian_sigma_batch",
    "gaussian_profile_delta",
    "gaussian_noise",
    "gaussian_noise_batch",
    "expected_squared_gaussian_noise",
    "discrete_gaussian_noise",
    "discrete_gaussian_noise_batch",
    "noise_rows",
]


def laplace_scale(sensitivity, epsilon):
    """Noise scale ``Delta / eps`` calibrated for eps-differential privacy."""
    sensitivity = check_positive(sensitivity, "sensitivity")
    epsilon = check_positive(epsilon, "epsilon")
    return sensitivity / epsilon


def laplace_variance(scale):
    """Variance of a Laplace variable with the given scale: ``2 scale^2``."""
    scale = check_positive(scale, "scale")
    return 2.0 * scale * scale


def laplace_noise(size, sensitivity, epsilon, rng=None):
    """Draw ``size`` i.i.d. Laplace samples with scale ``sensitivity/epsilon``.

    Parameters
    ----------
    size:
        Number of samples (positive int) or a shape tuple.
    sensitivity, epsilon:
        L1 sensitivity of the query set and the privacy budget.
    rng:
        ``None``, an int seed, or a :class:`numpy.random.Generator`.
    """
    if isinstance(size, tuple):
        for dim in size:
            check_positive_int(dim, "size dimension")
    else:
        size = (check_positive_int(size, "size"),)
    scale = laplace_scale(sensitivity, epsilon)
    rng = ensure_rng(rng)
    return rng.laplace(loc=0.0, scale=scale, size=size)


def laplace_noise_batch(size, sensitivity, epsilons, rng=None):
    """Draw Laplace noise for ``k`` releases in **one** RNG call.

    Returns a ``(k, size)`` array whose row ``i`` is i.i.d. Laplace noise
    with scale ``sensitivity / epsilons[i]`` — the batched form of
    :func:`laplace_noise` behind the vectorised multi-release serving path
    (``Mechanism.answer_many``). Row ``i`` is distributed exactly as a
    standalone ``laplace_noise(size, sensitivity, epsilons[i])`` draw; only
    the RNG stream position differs from ``k`` separate calls.
    """
    size = check_positive_int(size, "size")
    sensitivity = check_positive(sensitivity, "sensitivity")
    return noise_rows(
        "laplace", size, sensitivity, as_epsilon_batch(epsilons), ensure_rng(rng)
    )


def noise_rows(family, size, sensitivity, epsilons, rng, delta=0.0):
    """The one batch noise draw: a ``(k, size)`` array, row ``i`` at
    ``epsilons[i]``, for ``family`` ``"laplace"`` (scale
    ``sensitivity / eps``), ``"gaussian"`` or ``"discrete_gaussian"`` (the
    analytic sigma at ``delta``).

    Inputs are trusted — ``epsilons`` a validated 1-D float64 array
    (:func:`repro.linalg.validation.as_epsilon_batch`), ``sensitivity``
    positive, ``rng`` a Generator — so callers validate once, at their
    public entry. The continuous families multiply standard variates by
    the per-row scale column: numpy's ``laplace``/``normal`` compute
    ``0 + scale * standard`` too, so this is bit-identical to them (a
    one-row batch equals :func:`laplace_noise`/:func:`gaussian_noise`)
    and about 3x cheaper than an array-scale draw.
    """
    k = epsilons.size
    if family == "laplace":
        return rng.laplace(size=(k, size)) * (sensitivity / epsilons)[:, None]
    sigmas = sensitivity * _analytic_sigma_ratio_batch(epsilons, delta)
    if family == "discrete_gaussian":
        # The rejection sampler consumes a variable slice of the stream per
        # row, so rows are sampled in order.
        return np.stack(
            [_discrete_gaussian_samples(float(sigma), size, rng) for sigma in sigmas]
        )
    return rng.standard_normal((k, size)) * sigmas[:, None]


def expected_squared_noise(count, sensitivity, epsilon):
    """Expected total squared error of adding Laplace noise to ``count``
    answers at the given sensitivity: ``2 * count * (Delta/eps)^2``."""
    count = check_positive_int(count, "count")
    scale = laplace_scale(sensitivity, epsilon)
    return float(count) * laplace_variance(scale)


# --------------------------------------------------------------------- #
# Gaussian calibration
# --------------------------------------------------------------------- #
def _check_failure_delta(delta):
    delta = check_positive(delta, "delta")
    if delta >= 1.0:
        raise ValidationError(f"delta must be < 1, got {delta}")
    return delta


def gaussian_profile_delta(sigma, l2_sensitivity, epsilon):
    """Exact privacy profile of the Gaussian mechanism at ``epsilon``.

    The smallest ``delta`` for which ``N(0, sigma^2)`` noise on a query of
    L2 sensitivity ``Delta_2`` is (eps, delta)-DP (Balle & Wang 2018,
    Theorem 8):

        delta(sigma) = Phi(Delta/(2 sigma) - eps sigma/Delta)
                       - e^eps Phi(-Delta/(2 sigma) - eps sigma/Delta)

    with ``Phi`` the standard normal CDF. Decreasing in ``sigma``;
    vectorised over ``sigma`` and/or ``epsilon``. This is the condition the
    analytic calibration inverts, exposed so tests (and auditors) can
    verify a calibrated sigma against the promised guarantee.
    """
    l2_sensitivity = check_positive(l2_sensitivity, "l2_sensitivity")
    sigma = np.asarray(sigma, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    ratio = sigma / l2_sensitivity
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        a = 0.5 / ratio - epsilon * ratio
        b = 0.5 / ratio + epsilon * ratio
        # e^eps Phi(-b) in log space; the true product never exceeds 1, so
        # capping the exponent at 0 only suppresses overflow during
        # bracketing, never changes a meaningful value.
        tail = np.exp(np.minimum(epsilon + log_ndtr(-b), 0.0))
        profile = ndtr(a) - tail
    return profile


#: Bisection bracket (in log sigma/Delta) and iteration count for the
#: analytic calibration. The bracket covers eps from ~1e-18 to ~1e18 at any
#: delta representable in doubles; the fixed iteration count converges the
#: interval far below one ulp *and* keeps every batch element's search
#: independent of its neighbours, so a batch entry is bit-identical to the
#: same epsilon calibrated alone.
_ANALYTIC_LOG_BRACKET = (np.log(1e-20), np.log(1e30))
_ANALYTIC_ITERATIONS = 90


def _analytic_sigma_ratios(epsilons, delta):
    """Minimal ``sigma / Delta_2`` ratios satisfying the profile, per eps.

    Bisection on ``log(sigma/Delta)`` with the invariant that the upper
    endpoint always satisfies ``profile <= delta``; returning the upper
    endpoint therefore never under-noises (the interval at convergence is
    far below one ulp, so this costs no utility).
    """
    epsilons = np.asarray(epsilons, dtype=np.float64)
    lo = np.full(epsilons.shape, _ANALYTIC_LOG_BRACKET[0])
    hi = np.full(epsilons.shape, _ANALYTIC_LOG_BRACKET[1])
    if np.any(gaussian_profile_delta(np.exp(hi), 1.0, epsilons) > delta):
        raise ValidationError(
            "analytic Gaussian calibration bracket exhausted; epsilon/delta "
            "outside the calibratable range"
        )
    for _ in range(_ANALYTIC_ITERATIONS):
        mid = 0.5 * (lo + hi)
        too_small = gaussian_profile_delta(np.exp(mid), 1.0, epsilons) > delta
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return np.exp(hi)


#: Batches with at most this many *distinct* epsilons calibrate through the
#: lru-cached scalar path (one cache hit per distinct value on repeated
#: serving calls); larger spreads run one vectorised bisection instead of a
#: long Python loop of tiny ones.
_BATCH_CACHE_MAX_DISTINCT = 32


@lru_cache(maxsize=4096)
def _analytic_sigma_ratio_cached(epsilon, delta):
    """Scalar analytic ``sigma/Delta`` ratio, memoized for repeated releases.

    Computed through the same vectorised bisection as the batch path (on a
    one-element array), so a cached single-release sigma is bit-identical
    to the corresponding batch entry.
    """
    return float(_analytic_sigma_ratios(np.array([epsilon]), delta)[0])


def gaussian_sigma(l2_sensitivity, epsilon, delta, mode="analytic"):
    """Standard deviation calibrating the Gaussian mechanism to
    (eps, delta)-DP.

    ``mode="analytic"`` (default) is the analytic Gaussian mechanism of
    Balle & Wang (2018): the smallest sigma whose exact privacy profile
    (:func:`gaussian_profile_delta`) is at most ``delta`` — valid at every
    ``epsilon > 0``. ``mode="classical"`` is the Dwork & Roth (Thm A.1)
    formula ``Delta_2 sqrt(2 ln(1.25/delta)) / eps``, a sufficient
    condition only for ``eps < 1``; requesting it at ``eps >= 1`` raises
    (the formula silently under-noises there). Where both are valid the
    analytic sigma is never larger.
    """
    l2_sensitivity = check_positive(l2_sensitivity, "l2_sensitivity")
    epsilon = check_positive(epsilon, "epsilon")
    delta = _check_failure_delta(delta)
    if mode == "classical":
        if epsilon >= 1.0:
            raise ValidationError(
                "classical Gaussian calibration (Dwork & Roth Thm A.1) is "
                f"only valid for epsilon < 1, got {epsilon}; use the default "
                'mode="analytic" calibration'
            )
        return l2_sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon
    if mode != "analytic":
        raise ValidationError(f"unknown Gaussian calibration mode {mode!r}")
    return l2_sensitivity * _analytic_sigma_ratio_cached(epsilon, delta)


def gaussian_sigma_batch(l2_sensitivity, epsilons, delta, mode="analytic"):
    """Per-release Gaussian sigmas for a batch of epsilons, as a ``(k,)``
    array.

    Entry ``i`` equals ``gaussian_sigma(l2_sensitivity, epsilons[i],
    delta, mode)`` **bit-exactly** (the analytic bisection is element-wise
    independent), which is what keeps every row of a batched Gaussian
    release distributed exactly as the corresponding single release. The
    analytic calibration is not proportional to ``1/eps``, so this is a
    genuine per-epsilon solve, vectorised.
    """
    l2_sensitivity = check_positive(l2_sensitivity, "l2_sensitivity")
    epsilons = as_epsilon_batch(epsilons)
    delta = _check_failure_delta(delta)
    if mode == "classical":
        if np.any(epsilons >= 1.0):
            raise ValidationError(
                "classical Gaussian calibration is only valid for epsilon < 1; "
                f"got max epsilon {float(np.max(epsilons))}"
            )
        return l2_sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilons
    if mode != "analytic":
        raise ValidationError(f"unknown Gaussian calibration mode {mode!r}")
    return l2_sensitivity * _analytic_sigma_ratio_batch(epsilons, delta)


def _analytic_sigma_ratio_batch(epsilons, delta):
    """Analytic ``sigma / Delta`` ratios of a validated epsilon batch.

    Serving batches repeat a handful of distinct epsilons, so each
    distinct value is solved once. Small batches and few distinct values
    route through the lru-cached scalar path (amortized across calls on
    the hot path); many distinct values run one vectorised bisection over
    the deduplicated set. Both are bit-identical per element to the
    standalone calibration — the bisection is element-wise independent.
    """
    if epsilons.size <= _BATCH_CACHE_MAX_DISTINCT:
        return np.array(
            [_analytic_sigma_ratio_cached(eps, delta) for eps in epsilons.tolist()]
        )
    unique, inverse = np.unique(epsilons, return_inverse=True)
    if unique.size <= _BATCH_CACHE_MAX_DISTINCT:
        ratios = np.array(
            [_analytic_sigma_ratio_cached(float(eps), delta) for eps in unique]
        )
    else:
        ratios = _analytic_sigma_ratios(unique, delta)
    return ratios[inverse]


def gaussian_noise(size, l2_sensitivity, epsilon, delta, rng=None):
    """Draw i.i.d. Gaussian mechanism noise for ``size`` answers.

    Parameters mirror :func:`laplace_noise`, with the L2 sensitivity and the
    additional failure probability ``delta``.
    """
    if isinstance(size, tuple):
        for dim in size:
            check_positive_int(dim, "size dimension")
    else:
        size = (check_positive_int(size, "size"),)
    sigma = gaussian_sigma(l2_sensitivity, epsilon, delta)
    rng = ensure_rng(rng)
    return rng.normal(loc=0.0, scale=sigma, size=size)


def gaussian_noise_batch(size, l2_sensitivity, epsilons, delta, rng=None):
    """Draw Gaussian-mechanism noise for ``k`` releases in one RNG call.

    The (eps, delta) analogue of :func:`laplace_noise_batch`: a ``(k, size)``
    array whose row ``i`` has standard deviation
    ``gaussian_sigma(l2_sensitivity, epsilons[i], delta)`` exactly. Under
    the analytic calibration the per-release sigmas are solved per epsilon
    (:func:`gaussian_sigma_batch`) rather than scaled from a unit-epsilon
    sigma — the ``1/eps`` shortcut is only correct for the classical
    formula.
    """
    size = check_positive_int(size, "size")
    l2_sensitivity = check_positive(l2_sensitivity, "l2_sensitivity")
    return noise_rows(
        "gaussian", size, l2_sensitivity, as_epsilon_batch(epsilons),
        ensure_rng(rng), _check_failure_delta(delta),
    )


def expected_squared_gaussian_noise(count, l2_sensitivity, epsilon, delta):
    """Expected total squared error of the Gaussian mechanism on ``count``
    answers: ``count * sigma^2``."""
    count = check_positive_int(count, "count")
    sigma = gaussian_sigma(l2_sensitivity, epsilon, delta)
    return float(count) * sigma * sigma


# --------------------------------------------------------------------- #
# Discrete Gaussian (integral releases)
# --------------------------------------------------------------------- #
def _discrete_gaussian_samples(sigma, count, rng):
    """``count`` exact discrete-Gaussian samples at parameter ``sigma``.

    Canonne, Kamath & Steinke 2020 ("The Discrete Gaussian for
    Differential Privacy"), Algorithm 3: propose from the discrete
    Laplace at integer scale ``t = floor(sigma) + 1`` — realized as the
    difference of two i.i.d. geometric variables, which has mass
    proportional to ``exp(-|y|/t)`` — and accept with probability
    ``exp(-(|y| - sigma^2/t)^2 / (2 sigma^2))``. The accepted law is
    exactly ``P(Y = y) ∝ exp(-y^2 / (2 sigma^2))`` on the integers: no
    floating-point noise floor, no tail truncation.
    """
    t = int(np.floor(sigma)) + 1
    geom_p = 1.0 - np.exp(-1.0 / t)
    sigma_sq = sigma * sigma
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        # Headroom for rejections; the CKS proposal accepts with
        # probability bounded away from 0 uniformly in sigma.
        batch = max(16, 2 * need)
        failures_up = rng.geometric(geom_p, size=batch) - 1
        failures_down = rng.geometric(geom_p, size=batch) - 1
        proposal = failures_up - failures_down
        log_accept = -((np.abs(proposal) - sigma_sq / t) ** 2) / (2.0 * sigma_sq)
        accepted = proposal[rng.random(batch) < np.exp(log_accept)]
        take = min(accepted.size, need)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def discrete_gaussian_noise(size, l2_sensitivity, epsilon, delta, rng=None):
    """Draw i.i.d. **integer** discrete-Gaussian noise for ``size`` answers.

    The sigma is the same analytic (eps, delta) calibration the continuous
    Gaussian mechanism uses: the discrete Gaussian at equal sigma enjoys
    the same (eps, delta)- and concentrated-DP guarantees as the
    continuous one (Canonne–Kamath–Steinke 2020, Thm 7 / Thm 4), so the
    budget arithmetic — additive pairs and RDP curves alike — is shared
    with the ``gaussian`` family. Returns ``int64`` samples: adding them
    to integral query answers keeps the release exactly integral, no
    post-hoc rounding (and the privacy cost of rounding) required.
    """
    if isinstance(size, tuple):
        for dim in size:
            check_positive_int(dim, "size dimension")
        count = int(np.prod(size))
    else:
        size = (check_positive_int(size, "size"),)
        count = size[0]
    sigma = gaussian_sigma(l2_sensitivity, epsilon, delta)
    rng = ensure_rng(rng)
    return _discrete_gaussian_samples(sigma, count, rng).reshape(size)


def discrete_gaussian_noise_batch(size, l2_sensitivity, epsilons, delta, rng=None):
    """Discrete-Gaussian noise for ``k`` releases as a ``(k, size)`` array.

    The integral analogue of :func:`gaussian_noise_batch`: row ``i`` is
    distributed as ``discrete_gaussian_noise(size, l2_sensitivity,
    epsilons[i], delta)``. The rejection sampler is sequential per
    release (each row's acceptance pattern consumes a variable slice of
    the RNG stream), so rows are sampled in order rather than in one
    vectorised draw.
    """
    size = check_positive_int(size, "size")
    l2_sensitivity = check_positive(l2_sensitivity, "l2_sensitivity")
    return noise_rows(
        "discrete_gaussian", size, l2_sensitivity, as_epsilon_batch(epsilons),
        ensure_rng(rng), _check_failure_delta(delta),
    )
