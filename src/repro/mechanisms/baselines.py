"""Baseline Laplace mechanisms (Section 3.2 of the paper).

Two straightforward ways of answering a batch under eps-DP:

* **Noise on data** (``M_D``, the experiments' "LM"): perturb every unit
  count with ``Lap(1/eps)`` and evaluate the workload on the noisy counts.
  Expected total squared error: ``2 ||W||_F^2 / eps^2`` (Eq. 4).
* **Noise on results** (``M_R``, "NOQ" in the introduction): answer the
  queries exactly and perturb each result with ``Lap(Delta(W)/eps)`` where
  ``Delta(W)`` is the workload's L1 sensitivity.
  Expected total squared error: ``2 m Delta(W)^2 / eps^2`` (Eq. 5).

The paper notes ``M_R`` can only win when ``m < n``; both are dominated by a
good workload decomposition, which is LRM's whole point.
"""

from __future__ import annotations

from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import ReleaseOperator

__all__ = ["NoiseOnDataMechanism", "NoiseOnResultsMechanism", "LaplaceMechanism"]


class NoiseOnDataMechanism(Mechanism):
    """``M_D``: Laplace noise on the unit counts, then evaluate ``W``.

    Each record changes exactly one unit count by 1, so the per-count
    sensitivity is 1 regardless of the workload.
    """

    name = "LM"
    privacy_params = ("unit_sensitivity",)

    def __init__(self, unit_sensitivity=1.0):
        super().__init__()
        self.unit_sensitivity = float(unit_sensitivity)

    def release_operator(self):
        """Identity strategy (noise on the counts), recombination ``W``.

        Implicit workloads hand over their operator, so the serving path
        recombines through the fast action instead of a dense GEMM."""
        if not self.is_fitted:
            return None
        workload = self._workload
        return ReleaseOperator(
            strategy=None,
            recombination=workload.operator if workload.is_implicit else workload.matrix,
            sensitivity=self.unit_sensitivity,
        )


class NoiseOnResultsMechanism(Mechanism):
    """``M_R``: Laplace noise straight on the ``m`` query answers."""

    name = "NOR"

    def release_operator(self):
        """Strategy ``W`` itself, identity recombination."""
        if not self.is_fitted:
            return None
        workload = self._workload
        sensitivity = workload.sensitivity
        return ReleaseOperator(
            strategy=workload.operator if workload.is_implicit else workload.matrix,
            recombination=None,
            sensitivity=sensitivity,
            noise="laplace" if sensitivity > 0.0 else "none",
        )


#: Alias matching the experiment tables: the paper's "LM" is noise-on-data
#: (its Figure 4-6 error grows linearly with n; see DESIGN.md Section 5).
LaplaceMechanism = NoiseOnDataMechanism
