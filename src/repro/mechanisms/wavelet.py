"""Wavelet Mechanism (WM) — Privelet-style baseline.

Xiao, Wang and Gehrke (ICDE 2010; reference [28] in the paper) publish the
noisy Haar wavelet coefficients of the data vector and reconstruct. We use
the uniform-noise matrix-mechanism variant of their strategy (see DESIGN.md):
the strategy matrix is the unnormalised Haar family of
:mod:`repro.linalg.haar` with L1 sensitivity ``1 + log2(n)``, the noisy
coefficients are inverted exactly with the fast synthesis transform, and the
workload is evaluated on the reconstructed counts.

Expected total squared error (strategy-mechanism calculus):

    2 * (1 + log2 n)^2 / eps^2 * ||W A^{-1}||_F^2

For a range query, ``||w A^{-1}||^2`` involves only the ``O(log n)``
coefficients whose dyadic support straddles the range endpoints — the
polylogarithmic behaviour that makes WM strong on WRange at large ``n``.

Domains that are not a power of two are zero-padded; padding columns carry
zero workload weight so neither sensitivity nor error is affected.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.haar import (
    haar_analysis,
    haar_inverse_rows,
    haar_sensitivity,
    haar_synthesis,
    haar_synthesis_rows,
    next_power_of_two,
)
from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import transform_release

__all__ = ["WaveletMechanism"]


class WaveletMechanism(Mechanism):
    """Haar-wavelet strategy mechanism (WM in the experiments)."""

    name = "WM"

    def __init__(self):
        super().__init__()
        self._padded_n = None
        self._padded_workload = None
        self._coefficient_norm_squared = None

    def _fit(self, workload):
        n = workload.domain_size
        self._padded_n = next_power_of_two(n)
        if self._padded_n == n:
            self._padded_workload = workload.matrix
        else:
            padded = np.zeros((workload.num_queries, self._padded_n))
            padded[:, :n] = workload.matrix
            self._padded_workload = padded
        self._coefficient_norm_squared = None

    @property
    def strategy_sensitivity(self):
        """L1 sensitivity of the wavelet strategy: ``1 + log2(n_padded)``."""
        self._check_fitted()
        return haar_sensitivity(self._padded_n)

    def release_operator(self):
        """Haar analysis of the padded counts as ``L``; Haar synthesis then
        ``W`` as ``B`` — the fast transforms, never a dense Haar matrix."""
        if not self.is_fitted:
            return None
        return transform_release(
            self._workload, self._padded_workload, self._padded_n,
            haar_analysis, haar_synthesis, haar_synthesis_rows,
            self.strategy_sensitivity,
        )

    def expected_squared_error(self, epsilon):
        """``2 Delta^2 / eps^2 * ||W A^{-1}||_F^2`` with the fast transform."""
        self._check_fitted()
        if self._coefficient_norm_squared is None:
            transformed = haar_inverse_rows(self._padded_workload)
            self._coefficient_norm_squared = float(np.sum(transformed**2))
        scale = self.strategy_sensitivity / float(epsilon)
        return 2.0 * scale * scale * self._coefficient_norm_squared
