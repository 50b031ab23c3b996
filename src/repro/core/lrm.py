"""The Low-Rank Mechanism (LRM) — the paper's primary contribution.

Given a workload ``W``, :class:`LowRankMechanism` finds the decomposition
``W ~= B L`` of Formula (8) with the ALM solver (:mod:`repro.core.alm`) and
releases

    M_P(Q, D) = B (L x + Lap(Delta(L) / eps)^r)                     (Eq. 6)

Because the decomposition constrains every column of ``L`` to L1 norm at
most 1, the intermediate query set ``L x`` has sensitivity at most 1 and the
expected squared noise error is ``2 tr(B^T B) Delta(L)^2 / eps^2`` (Lemma 1)
— the quantity the optimisation minimises. When ``gamma > 0`` the release
additionally carries the structural error ``||(W - B L) x||^2`` bounded by
Theorem 3.

Typical usage::

    from repro import LowRankMechanism, wrelated

    workload = wrelated(m=128, n=512, s=20, seed=0)
    mechanism = LowRankMechanism(gamma=1e-2).fit(workload)
    noisy = mechanism.answer(x, epsilon=0.1, rng=7)
"""

from __future__ import annotations

from repro.core.alm import decompose_workload, decompose_workload_operator
from repro.core.bounds import lrm_error_upper_bound
from repro.linalg.randomized import (
    RANDOMIZED_SVD_MIN_DIM,
    rank_discovery_needs_dense,
)
from repro.exceptions import NotFittedError
from repro.linalg.validation import as_vector, check_positive, check_positive_int
from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import ReleaseOperator

__all__ = ["LowRankMechanism", "GaussianLowRankMechanism", "spectral_cache_for_fit"]


def spectral_cache_for_fit(workload, rank):
    """The workload's spectral cache to hand the solver, or ``None``.

    Reuses an already-memoized ``Workload.thin_svd``; otherwise computes it
    only when an exact factorisation is the right tool anyway (automatic
    rank discovery, or a matrix small enough that LAPACK beats a sketch).
    With an explicit ``rank`` on a large matrix this returns ``None`` so
    :func:`repro.core.alm.decompose_workload` stays free to take its
    cheaper randomized range-finder path.
    """
    svd = workload.cached_thin_svd
    if svd is None and (rank is None or min(workload.shape) <= RANDOMIZED_SVD_MIN_DIM):
        svd = workload.thin_svd
    return svd


class LowRankMechanism(Mechanism):
    """Batch linear-query mechanism based on low-rank workload decomposition.

    Parameters
    ----------
    rank:
        Decomposition rank ``r``; ``None`` (default) uses
        ``ceil(rank_ratio * rank(W))``.
    rank_ratio:
        Ratio applied to ``rank(W)`` when ``rank`` is None. The paper's
        Section 6.1 recommends values in ``[1.0, 1.2]``; default 1.2.
    gamma:
        Relaxation tolerance of Formula (8); larger values converge faster
        at a small structural-error cost (Figure 2). Interpreted relative
        to ``||W||_F`` when ``gamma_is_relative`` (default), matching the
        solver's normalised internals; pass ``gamma_is_relative=False`` for
        the paper's absolute sweep values.
    gamma_is_relative:
        See above.
    max_outer, max_inner, nesterov_iters:
        Budgets forwarded to :func:`repro.core.alm.decompose_workload`.
    seed:
        Seed for the decomposition warm start (the *mechanism* randomness
        is supplied per ``answer`` call instead).
    """

    name = "LRM"
    #: Column-constraint norm of the decomposition program ("l1" pairs with
    #: Laplace noise / eps-DP; subclasses may use "l2" + Gaussian noise).
    decomposition_norm = "l1"

    def __init__(
        self,
        rank=None,
        rank_ratio=1.2,
        gamma=1e-2,
        gamma_is_relative=True,
        max_outer=150,
        max_inner=8,
        nesterov_iters=60,
        stall_iters=30,
        seed=0,
    ):
        super().__init__()
        if rank is not None:
            rank = check_positive_int(rank, "rank")
        self.rank = rank
        self.rank_ratio = check_positive(rank_ratio, "rank_ratio")
        self.gamma = check_positive(gamma, "gamma")
        self.gamma_is_relative = bool(gamma_is_relative)
        self.max_outer = check_positive_int(max_outer, "max_outer")
        self.max_inner = check_positive_int(max_inner, "max_inner")
        self.nesterov_iters = check_positive_int(nesterov_iters, "nesterov_iters")
        self.stall_iters = check_positive_int(stall_iters, "stall_iters")
        self.seed = seed
        self._decomposition = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _fit(self, workload):
        solver_kwargs = dict(
            rank=self.rank,
            rank_ratio=self.rank_ratio,
            gamma=self.gamma,
            gamma_is_relative=self.gamma_is_relative,
            max_outer=self.max_outer,
            max_inner=self.max_inner,
            nesterov_iters=self.nesterov_iters,
            stall_iters=self.stall_iters,
            norm=self.decomposition_norm,
            seed=self.seed,
        )
        m, n = workload.shape
        small = min(m, n)
        if workload.is_implicit and not rank_discovery_needs_dense((m, n), self.rank):
            # Matvec-driven fit: the sketch, the compressed k x n solve and
            # the lift never touch a dense W — the only path that exists at
            # large domains, and a large constant-factor win below them.
            # The memoized implicit_svd plays the role of the thin-SVD
            # cache: repeated fits on one workload share one sketch. When
            # rank discovery would outrun the sketch cap on a *moderate*
            # workload, fall through to the dense path instead (the same
            # rank_discovery_needs_dense predicate routes
            # decompose_workload_operator), so default fits of e.g.
            # full-rank WRange keep their pre-operator behaviour.
            sketch_rank = min(
                self.rank if self.rank is not None else RANDOMIZED_SVD_MIN_DIM,
                m,
                small,
            )
            self._decomposition = decompose_workload_operator(
                workload.operator,
                svd=workload.implicit_svd(sketch_rank, seed=0),
                **solver_kwargs,
            )
            return
        # Share the workload's memoized spectral cache: the fit then
        # performs no dense SVD of W at all, and repeated fits on the same
        # workload (parameter sweeps, engine releases) reuse one
        # factorisation.
        self._decomposition = decompose_workload(
            workload.matrix,
            svd=spectral_cache_for_fit(workload, self.rank),
            **solver_kwargs,
        )

    @property
    def decomposition(self):
        """The fitted :class:`repro.core.alm.Decomposition`."""
        if self._decomposition is None:
            raise NotFittedError("LowRankMechanism must be fitted before use")
        return self._decomposition

    @property
    def effective_rank(self):
        """Rank ``r`` actually used by the decomposition."""
        return self.decomposition.rank

    # ------------------------------------------------------------------ #
    # Answering (Eq. 6)
    # ------------------------------------------------------------------ #
    def release_operator(self):
        """Eq. 6 as a pipeline: strategy ``L``, recombination ``B``."""
        if self._decomposition is None:
            return None
        decomposition = self._decomposition
        sensitivity = decomposition.sensitivity
        return ReleaseOperator(
            strategy=decomposition.l,
            recombination=decomposition.b,
            sensitivity=sensitivity,
            noise=self._noise_family if sensitivity > 0.0 else "none",
            delta=float(getattr(self, "delta", 0.0)),
        )

    #: Noise family paired with the decomposition norm ("laplace" for the
    #: L1 program; the Gaussian subclass overrides to "gaussian").
    _noise_family = "laplace"

    # ------------------------------------------------------------------ #
    # Error accounting
    # ------------------------------------------------------------------ #
    def expected_squared_error(self, epsilon, x=None):
        """Expected total squared error of a release.

        The noise part is Lemma 1's ``2 Phi Delta^2 / eps^2``, exact. When
        ``gamma > 0`` the decomposition may not reproduce ``W`` exactly;
        pass the data vector ``x`` to include the (deterministic)
        structural error ``||(W - B L) x||^2``, otherwise only the noise
        part is returned.
        """
        epsilon = check_positive(epsilon, "epsilon")
        decomposition = self.decomposition
        error = decomposition.expected_noise_error(epsilon)
        if x is not None:
            x = as_vector(x, "x", size=self.workload.domain_size)
            # W x through the workload's operator action and B (L x) from
            # the small factors: no m x n product, so the structural term
            # stays available on implicit large-domain workloads.
            structural = self.workload.answer(x) - decomposition.b @ (decomposition.l @ x)
            error += float(structural @ structural)
        return error

    def theoretical_upper_bound(self, epsilon):
        """Lemma 3 upper bound evaluated on the fitted workload spectrum."""
        self._check_fitted()
        return lrm_error_upper_bound(self.workload.singular_values, epsilon)

    def plan_metadata(self):
        """Base metadata plus the decomposition facts ``explain()`` reports."""
        meta = super().plan_metadata()
        meta["noise"] = self._noise_family
        if self._decomposition is not None:
            decomposition = self._decomposition
            meta["decomposition_rank"] = int(decomposition.rank)
            meta["sensitivity"] = float(decomposition.sensitivity)
            meta["decomposition_norm"] = decomposition.norm
            meta["residual_norm"] = float(decomposition.residual_norm)
            meta["converged"] = bool(decomposition.converged)
        return meta


class GaussianLowRankMechanism(LowRankMechanism):
    """(eps, delta)-DP Low-Rank Mechanism with Gaussian noise.

    The decomposition program is solved with per-column **L2** constraints
    (``sum_i L_ij^2 <= 1``), the sensitivity becomes the max column L2 norm
    of ``L``, and the release is

        B (L x + N(0, sigma^2)^r),

    with ``sigma`` the analytic Gaussian calibration of
    :func:`repro.privacy.noise.gaussian_sigma` — the smallest noise
    satisfying the exact (eps, delta) privacy profile, valid at **every**
    ``eps > 0`` (the classical ``Delta_2 sqrt(2 ln(1.25/delta)) / eps``
    formula is a looser sufficient condition that only holds for eps < 1).

    This is the natural Gaussian companion of the paper's mechanism (its
    matrix-mechanism lineage optimises exactly this L2 program); the
    expected squared error is ``tr(B^T B) sigma^2``.

    Parameters are those of :class:`LowRankMechanism` plus ``delta``, the
    (eps, delta)-DP failure probability (must be < 1).
    """

    name = "GLRM"
    decomposition_norm = "l2"
    requires_delta = True
    privacy_params = ("delta",)
    _noise_family = "gaussian"

    def __init__(self, delta=1e-6, **kwargs):
        super().__init__(**kwargs)
        delta = check_positive(delta, "delta")
        if delta >= 1.0:
            from repro.exceptions import ValidationError

            raise ValidationError(f"delta must be < 1, got {delta}")
        self.delta = delta

    def expected_squared_error(self, epsilon, x=None):
        """``tr(B^T B) sigma^2`` plus the optional structural term."""
        epsilon = check_positive(epsilon, "epsilon")
        decomposition = self.decomposition
        if decomposition.sensitivity <= 0.0:
            error = 0.0
        else:
            error = decomposition.expected_gaussian_noise_error(epsilon, self.delta)
        if x is not None:
            x = as_vector(x, "x", size=self.workload.domain_size)
            # W x through the workload's operator action and B (L x) from
            # the small factors: no m x n product, so the structural term
            # stays available on implicit large-domain workloads.
            structural = self.workload.answer(x) - decomposition.b @ (decomposition.l @ x)
            error += float(structural @ structural)
        return error
