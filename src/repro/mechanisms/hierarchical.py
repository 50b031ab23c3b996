"""Hierarchical Mechanism (HM) — Hay et al. tree baseline with consistency.

Hay, Rastogi, Miklau and Suciu (PVLDB 2010; reference [15] in the paper)
answer every node of a balanced binary tree over the domain under the
Laplace mechanism (sensitivity = tree height ``log2 n + 1``) and then apply
*constrained inference*: the least-squares estimate consistent with the tree
structure, which provably lowers the error of every range query. The
two-pass closed form of that least-squares solve is implemented in
:func:`repro.linalg.trees.tree_consistency`.

Expected total squared error:

    2 * (log2 n + 1)^2 / eps^2 * ||W A^+||_F^2

computed with conjugate gradients against the fast tree operators (no dense
pseudo-inverse is ever formed). Non-power-of-two domains are zero-padded.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.haar import next_power_of_two
from repro.linalg.trees import (
    tree_apply,
    tree_consistency,
    tree_consistency_rows,
    tree_num_nodes,
    tree_pseudoinverse_rows,
    tree_sensitivity,
)
from repro.mechanisms.base import Mechanism
from repro.mechanisms.operator import transform_release

__all__ = ["HierarchicalMechanism"]


class HierarchicalMechanism(Mechanism):
    """Binary-tree strategy mechanism with Hay consistency (HM)."""

    name = "HM"

    def __init__(self):
        super().__init__()
        self._padded_n = None
        self._padded_workload = None
        self._pinv_norm_squared = None

    def _fit(self, workload):
        n = workload.domain_size
        self._padded_n = next_power_of_two(n)
        if self._padded_n == n:
            self._padded_workload = workload.matrix
        else:
            padded = np.zeros((workload.num_queries, self._padded_n))
            padded[:, :n] = workload.matrix
            self._padded_workload = padded
        self._pinv_norm_squared = None

    @property
    def strategy_sensitivity(self):
        """Tree height ``log2(n_padded) + 1``."""
        self._check_fitted()
        return tree_sensitivity(self._padded_n)

    @property
    def num_nodes(self):
        """Number of noisy node answers per release: ``2 n_padded - 1``."""
        self._check_fitted()
        return tree_num_nodes(self._padded_n)

    def release_operator(self):
        """Every tree node's count as ``L``; Hay consistency then ``W`` as
        ``B`` — the fast tree passes, never a dense tree matrix."""
        if not self.is_fitted:
            return None
        return transform_release(
            self._workload, self._padded_workload, self.num_nodes,
            tree_apply, tree_consistency, tree_consistency_rows,
            self.strategy_sensitivity,
        )

    def expected_squared_error(self, epsilon):
        """``2 Delta^2 / eps^2 * ||W A^+||_F^2`` via CG on the tree normal
        equations; the (workload-dependent) norm is cached after first use."""
        self._check_fitted()
        if self._pinv_norm_squared is None:
            rows = tree_pseudoinverse_rows(self._padded_workload)
            self._pinv_norm_squared = float(np.sum(rows**2))
        scale = self.strategy_sensitivity / float(epsilon)
        return 2.0 * scale * scale * self._pinv_norm_squared
