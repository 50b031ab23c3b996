"""Gaussian-mechanism baselines for (eps, delta)-differential privacy.

The paper's program is eps-DP with Laplace noise; its matrix-mechanism
lineage (Li et al.) equally supports the relaxed (eps, delta)-DP model with
Gaussian noise calibrated to the **L2** sensitivity. These baselines pair
with :class:`repro.core.lrm.GaussianLowRankMechanism`, which solves the
decomposition program under per-column L2 constraints.

Noise is calibrated by the analytic Gaussian mechanism
(:func:`repro.privacy.noise.gaussian_sigma`): the exact privacy-profile
inversion of Balle & Wang (2018), valid at every ``eps > 0`` — not the
classical ``sqrt(2 ln(1.25/delta))/eps`` formula, which only guarantees
(eps, delta)-DP for ``eps < 1``.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.linalg.validation import check_positive
from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import ReleaseOperator
from repro.privacy.noise import gaussian_sigma
from repro.privacy.sensitivity import l2_sensitivity

__all__ = [
    "DiscreteGaussianNoiseOnResultsMechanism",
    "GaussianNoiseOnDataMechanism",
    "GaussianNoiseOnResultsMechanism",
]


def _check_delta(delta):
    delta = check_positive(delta, "delta")
    if delta >= 1.0:
        raise ValidationError(f"delta must be < 1, got {delta}")
    return delta


class GaussianNoiseOnDataMechanism(Mechanism):
    """Gaussian noise on the unit counts (the (eps, delta) analogue of LM).

    Each record changes one unit count by 1, so the per-count L2
    sensitivity is 1; the release is ``W (x + N(0, sigma^2)^n)``.
    """

    name = "GLM"
    requires_delta = True
    privacy_params = ("delta", "unit_sensitivity")

    def __init__(self, delta=1e-6, unit_sensitivity=1.0):
        super().__init__()
        self.delta = _check_delta(delta)
        self.unit_sensitivity = check_positive(unit_sensitivity, "unit_sensitivity")

    def to_spec(self):
        return {"delta": self.delta, "unit_sensitivity": self.unit_sensitivity}

    def plan_metadata(self):
        meta = super().plan_metadata()
        meta["noise"] = "gaussian"
        meta["sensitivity"] = float(self.unit_sensitivity)
        # A reference point only: under the analytic calibration sigma is
        # *not* proportional to 1/eps, so this cannot be rescaled to other
        # epsilons (use gaussian_sigma directly for those).
        meta["sigma_at_unit_epsilon"] = float(
            gaussian_sigma(self.unit_sensitivity, 1.0, self.delta)
        )
        return meta

    def release_operator(self):
        """Identity strategy (noise on the counts), recombination ``W``."""
        if not self.is_fitted:
            return None
        workload = self._workload
        return ReleaseOperator(
            strategy=None,
            recombination=workload.operator if workload.is_implicit else workload.matrix,
            sensitivity=self.unit_sensitivity,
            noise="gaussian",
            delta=self.delta,
        )


class GaussianNoiseOnResultsMechanism(Mechanism):
    """Gaussian noise straight on the ``m`` query answers, calibrated to the
    workload's L2 sensitivity (max column L2 norm)."""

    name = "GNOR"
    requires_delta = True
    privacy_params = ("delta",)

    def __init__(self, delta=1e-6):
        super().__init__()
        self.delta = _check_delta(delta)

    def to_spec(self):
        return {"delta": self.delta}

    def plan_metadata(self):
        meta = super().plan_metadata()
        meta["noise"] = "gaussian"
        if self.is_fitted:
            sensitivity = l2_sensitivity(self.workload.operator)
            meta["sensitivity"] = float(sensitivity)
            if sensitivity > 0.0:
                meta["sigma_at_unit_epsilon"] = float(
                    gaussian_sigma(sensitivity, 1.0, self.delta)
                )
        return meta

    def release_operator(self):
        """Strategy ``W`` itself, identity recombination."""
        if not self.is_fitted:
            return None
        workload = self._workload
        sensitivity = l2_sensitivity(workload.operator)
        strategy = workload.operator if workload.is_implicit else workload.matrix
        if sensitivity == 0.0:
            return ReleaseOperator(
                strategy=strategy, recombination=None,
                sensitivity=0.0, noise="none", delta=self.delta,
            )
        return ReleaseOperator(
            strategy=strategy,
            recombination=None,
            sensitivity=sensitivity,
            noise="gaussian",
            delta=self.delta,
        )


class DiscreteGaussianNoiseOnResultsMechanism(GaussianNoiseOnResultsMechanism):
    """Integer noise on the query answers: the discrete Gaussian of
    Canonne, Kamath & Steinke (2020) at the analytic-Gaussian sigma.

    The discrete Gaussian at scale ``sigma`` satisfies every (eps, delta)
    guarantee the continuous Gaussian at the same ``sigma`` does (CKS
    2020, Thm. 7), so the privacy calibration, budget arithmetic and RDP
    curve are shared with :class:`GaussianNoiseOnResultsMechanism` — only
    the samples differ: they are integers, so counting workloads with
    integral exact answers release integral noisy answers (no
    floating-point side channel, directly publishable as counts).
    """

    name = "DGNOR"

    def release_operator(self):
        """Same pipeline as GNOR with the integer noise family."""
        operator = super().release_operator()
        if operator is None or operator.noise == "none":
            return operator
        return ReleaseOperator(
            strategy=operator.strategy,
            recombination=None,
            sensitivity=operator.sensitivity,
            noise="discrete_gaussian",
            delta=self.delta,
        )

    def plan_metadata(self):
        meta = super().plan_metadata()
        meta["noise"] = "discrete_gaussian"
        return meta
