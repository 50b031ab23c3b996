"""Matrix Mechanism (MM) — the paper's main competitor, per its Appendix B.

Li et al. (PODS 2010; reference [16]) choose a full-rank strategy matrix
``A`` minimising ``||A||_2^2 * tr(W^T W (A^T A)^{-1})``. The paper's own
implementation (Appendix B) substitutes ``M = A^T A`` and solves the
semidefinite program

    min_{M > 0}  max(diag(M)) * tr(W^T W M^{-1})

with two devices we reproduce exactly:

* the non-smooth ``max(diag(M))`` is replaced by the log-sum-exp smoothing
  ``f_mu(v) = max(v) + mu * log(sum_i exp((v_i - max(v)) / mu))`` whose
  gradient is the softmax of ``v / mu`` (Eq. 14-15, written in the
  overflow-safe form of the appendix);
* the smoothed objective is minimised with the non-monotone spectral
  projected gradient method of Birgin, Martinez and Raydan (reference [2]),
  projecting onto the positive-definite cone by eigenvalue clipping.

The recovered strategy is ``A = M^{1/2}``. Crucially — and this is the
paper's critique — the optimisation targets the **L2** approximation of the
objective while eps-DP noise must be calibrated to the **L1** sensitivity of
``A``; the mechanism therefore runs with the true L1 column norm of
``M^{1/2}``, which is why MM's practical accuracy trails even noise-on-data
in Figures 4-6.

Cost: each iteration performs dense ``n x n`` eigen/solve work, so MM is
``O(n^3)`` per step — the "enormous computational overhead" of Section 1.
Keep ``n`` modest (the experiment harness caps MM's domain).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.exceptions import DecompositionError
from repro.linalg.validation import check_positive, check_positive_int
from repro.mechanisms.base import Mechanism
from repro.privacy.sensitivity import l1_sensitivity

__all__ = ["MatrixMechanism", "smoothed_max", "smoothed_max_gradient"]


def smoothed_max(v, mu):
    """Uniform smooth approximation of ``max(v)`` (Eq. 14, stable form)."""
    v = np.asarray(v, dtype=np.float64)
    top = float(v.max())
    return top + mu * float(np.log(np.sum(np.exp((v - top) / mu))))


def smoothed_max_gradient(v, mu):
    """Gradient of :func:`smoothed_max`: the softmax of ``v / mu``
    (Eq. 15, overflow-safe form)."""
    v = np.asarray(v, dtype=np.float64)
    shifted = np.exp((v - v.max()) / mu)
    return shifted / shifted.sum()


class MatrixMechanism(Mechanism):
    """Appendix-B Matrix Mechanism with spectral projected gradient.

    Parameters
    ----------
    max_iters:
        Iteration cap for the projected-gradient solve.
    smoothing:
        The ``mu`` of the log-sum-exp smoothing; ``None`` picks
        ``0.01 / log(n + 1)`` so the uniform approximation error of
        ``max(diag(M))`` is about 1%.
    eig_floor:
        Eigenvalues of ``M`` are clipped to at least this value when
        projecting back onto the positive-definite cone.
    history:
        Window length for the non-monotone line-search reference value.
    tol:
        Relative objective-change stopping tolerance.
    """

    name = "MM"

    def __init__(self, max_iters=60, smoothing=None, eig_floor=1e-8, history=10, tol=1e-7):
        super().__init__()
        self.max_iters = check_positive_int(max_iters, "max_iters")
        self.smoothing = None if smoothing is None else check_positive(smoothing, "smoothing")
        self.eig_floor = check_positive(eig_floor, "eig_floor")
        self.history = check_positive_int(history, "history")
        self.tol = check_positive(tol, "tol")
        self._strategy = None
        self._strategy_sensitivity = None
        self._recombination = None
        self._objective_history = None

    # ------------------------------------------------------------------ #
    # Optimisation internals
    # ------------------------------------------------------------------ #
    def _project_psd(self, m):
        """Project a symmetric matrix onto {M : eigenvalues >= eig_floor}."""
        m = 0.5 * (m + m.T)
        eigenvalues, eigenvectors = np.linalg.eigh(m)
        clipped = np.maximum(eigenvalues, self.eig_floor)
        return (eigenvectors * clipped) @ eigenvectors.T

    def _objective_and_gradient(self, m, s, mu):
        """Smoothed objective ``f_mu(diag M) * tr(S M^{-1})`` and gradient."""
        try:
            cho = sla.cho_factor(m, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by projection
            raise DecompositionError("M left the PD cone during line search") from exc
        m_inv_s = sla.cho_solve(cho, s, check_finite=False)
        trace_term = float(np.trace(m_inv_s))
        v = np.diag(m)
        f_max = smoothed_max(v, mu)
        objective = f_max * trace_term
        # d/dM [tr(S M^{-1})] = -M^{-1} S M^{-1};  d/dM f_mu(diag M) = diag(softmax).
        m_inv_s_m_inv = sla.cho_solve(cho, m_inv_s.T, check_finite=False)
        gradient = np.diag(trace_term * smoothed_max_gradient(v, mu)) - f_max * m_inv_s_m_inv
        gradient = 0.5 * (gradient + gradient.T)
        return objective, gradient

    def _solve(self, w):
        """Run non-monotone SPG on the smoothed SDP; returns optimal M."""
        n = w.shape[1]
        s = w.T @ w
        mu = self.smoothing if self.smoothing is not None else 0.01 / np.log(n + 1.0)
        m = np.eye(n)
        objective, gradient = self._objective_and_gradient(m, s, mu)
        history = [objective]
        alpha = 1.0
        previous_m = None
        previous_gradient = None
        for iteration in range(self.max_iters):
            direction = self._project_psd(m - alpha * gradient) - m
            derivative = float(np.sum(gradient * direction))
            if derivative > -1e-15:
                break  # Stationary on the feasible set.
            # Non-monotone Armijo backtracking against the history max.
            reference = max(history[-self.history :])
            step = 1.0
            accepted = False
            for _ in range(30):
                candidate = m + step * direction
                try:
                    cand_objective, cand_gradient = self._objective_and_gradient(candidate, s, mu)
                except DecompositionError:
                    step *= 0.5
                    continue
                if cand_objective <= reference + 1e-4 * step * derivative:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            previous_m, previous_gradient = m, gradient
            m, objective, gradient = candidate, cand_objective, cand_gradient
            history.append(objective)
            # Barzilai-Borwein spectral step length.
            sk = m - previous_m
            yk = gradient - previous_gradient
            sk_yk = float(np.sum(sk * yk))
            if sk_yk > 1e-12:
                alpha = float(np.sum(sk * sk)) / sk_yk
                alpha = min(max(alpha, 1e-6), 1e6)
            else:
                alpha = 1.0
            if (
                len(history) > 2
                and abs(history[-2] - history[-1]) <= self.tol * max(abs(history[-2]), 1.0)
            ):
                break
        self._objective_history = history
        return m

    # ------------------------------------------------------------------ #
    # Mechanism interface
    # ------------------------------------------------------------------ #
    def _fit(self, workload):
        w = workload.matrix
        m_opt = self._solve(w)
        # A = M^{1/2} via symmetric eigendecomposition (Appendix B).
        eigenvalues, eigenvectors = np.linalg.eigh(m_opt)
        eigenvalues = np.maximum(eigenvalues, self.eig_floor)
        strategy = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T
        self._strategy = strategy
        # eps-DP requires the true L1 sensitivity of the strategy actually run.
        self._strategy_sensitivity = l1_sensitivity(strategy)
        # Cache W A^{-1} for answering and the analytic error.
        self._recombination = sla.solve(strategy, w.T, assume_a="sym").T

    @property
    def strategy_matrix(self):
        """The fitted full-rank strategy ``A = M^{1/2}`` (n x n)."""
        self._check_fitted()
        return self._strategy

    @property
    def strategy_sensitivity(self):
        """True L1 sensitivity of the fitted strategy."""
        self._check_fitted()
        return self._strategy_sensitivity

    @property
    def objective_history(self):
        """Smoothed-objective value per accepted SPG iteration."""
        self._check_fitted()
        return list(self._objective_history)

    def release_operator(self):
        """The SDP-optimised ``(A, W A^{-1})`` pipeline."""
        if not self.is_fitted:
            return None
        from repro.mechanisms.operator import ReleaseOperator

        return ReleaseOperator(
            strategy=self._strategy,
            recombination=self._recombination,
            sensitivity=self._strategy_sensitivity,
        )
