"""Generic strategy mechanisms: answer ``W`` through a user-chosen strategy.

The matrix-mechanism calculus underlying the whole paper: pick a strategy
matrix ``A`` whose rows are the queries actually asked under the Laplace
mechanism, then recombine the noisy strategy answers to the workload via
least squares. The expected total squared error is

    2 * Delta_1(A)^2 / eps^2 * ||W A^+||_F^2.

Two concrete classes:

* :class:`StrategyMechanism` — bring your own ``A`` (the building block the
  paper's introduction walks through by hand);
* :class:`SVDStrategyMechanism` — the always-available Lemma-3 strategy
  ``A = V^T / sqrt(r)`` built from the workload's SVD; this is the LRM
  warm start run *as a mechanism*, which makes it the natural ablation
  baseline for how much the ALM optimisation actually buys.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.validation import as_matrix
from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import ReleaseOperator
from repro.privacy.sensitivity import l1_sensitivity

__all__ = ["StrategyMechanism", "SVDStrategyMechanism"]


class StrategyMechanism(Mechanism):
    """Answer a workload through an explicit strategy matrix ``A``.

    Parameters
    ----------
    strategy:
        The (r x n) strategy matrix. The fitted workload must lie in its
        row space (checked at ``fit`` time), otherwise the recombination
        cannot reproduce the exact answers.
    rcond:
        Pseudo-inverse cutoff forwarded to :func:`numpy.linalg.pinv`.
    """

    name = "STRATEGY"

    def __init__(self, strategy, rcond=1e-12):
        super().__init__()
        self.strategy = as_matrix(strategy, "strategy")
        self.rcond = float(rcond)
        self._recombination = None
        self._sensitivity = None

    def _fit(self, workload):
        if self.strategy.shape[1] != workload.domain_size:
            raise ValidationError(
                f"strategy has {self.strategy.shape[1]} columns but workload "
                f"has {workload.domain_size}"
            )
        pinv = np.linalg.pinv(self.strategy, rcond=self.rcond)
        recombination = workload.matrix @ pinv
        residual = recombination @ self.strategy - workload.matrix
        w_norm = max(float(np.linalg.norm(workload.matrix)), 1e-300)
        if float(np.linalg.norm(residual)) > 1e-6 * w_norm:
            raise ValidationError("workload is not in the row space of the strategy")
        self._recombination = recombination
        self._sensitivity = l1_sensitivity(self.strategy)

    def release_operator(self):
        """The explicit ``(A, W A^+)`` pipeline."""
        if not self.is_fitted:
            return None
        return ReleaseOperator(
            strategy=self.strategy,
            recombination=self._recombination,
            sensitivity=self._sensitivity,
            noise="laplace" if self._sensitivity > 0.0 else "none",
        )

    @property
    def strategy_sensitivity(self):
        """L1 sensitivity of the strategy actually asked."""
        self._check_fitted()
        return self._sensitivity


class SVDStrategyMechanism(Mechanism):
    """The Lemma-3 SVD strategy run as a mechanism (LRM-without-ALM).

    Fits the strategy ``A = V^T / Delta(V^T)`` where ``V`` comes from the
    thin SVD of the workload (rescaled onto the sensitivity boundary), and
    recombines with ``B = U S Delta``. Exactly the warm start the ALM
    solver improves upon — comparing this against
    :class:`repro.core.lrm.LowRankMechanism` isolates the optimisation's
    contribution (the ablation DESIGN.md calls out).
    """

    name = "SVDM"

    def __init__(self):
        super().__init__()
        self._b = None
        self._l = None
        self._sensitivity = None

    def _fit(self, workload):
        u, sigma, vt = np.linalg.svd(workload.matrix, full_matrices=False)
        tol = max(workload.shape) * np.finfo(np.float64).eps * (sigma[0] if sigma.size else 0.0)
        k = max(int(np.sum(sigma > tol)), 1)
        u, sigma, vt = u[:, :k], sigma[:k], vt[:k, :]
        delta = l1_sensitivity(vt)
        if delta <= 0.0:
            raise ValidationError("workload has an all-zero spectrum")
        self._l = vt / delta
        self._b = u * (sigma * delta)
        self._sensitivity = l1_sensitivity(self._l)

    def release_operator(self):
        """The Lemma-3 ``(L, B)`` pair."""
        if not self.is_fitted:
            return None
        return ReleaseOperator(
            strategy=self._l, recombination=self._b, sensitivity=self._sensitivity
        )

    @property
    def decomposition_factors(self):
        """The fitted ``(B, L)`` pair."""
        self._check_fitted()
        return self._b, self._l
