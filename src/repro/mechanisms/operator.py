"""Release operators: the data-independent linear form of a release.

Every mechanism in the paper's family releases

    M(Q, D) = B (L x + noise(Delta(L) / eps)^r)            (Eq. 6 shape)

for some strategy ``L`` (possibly the identity), recombination ``B``
(possibly the identity), sensitivity ``Delta`` and noise family. A
:class:`ReleaseOperator` captures exactly that tuple, which is what lets the
serving layer (:mod:`repro.engine.compiled`) precompute ``L x`` once per
data epoch and answer ``k`` releases with one RNG draw and one GEMM instead
of ``k`` GEMV/draw round trips.

Mechanisms expose their operator through
:meth:`repro.mechanisms.base.Mechanism.release_operator` and release
through it (``Mechanism.answer`` and ``answer_many`` run this module's
``answer``/``answer_many``). The fast-transform WM and HM hand over
:class:`TransformFactor` actions that keep their ``O(n log n)`` Haar and
tree transforms instead of dense matrices. Only the subsampled mechanism,
whose thinning is data-dependent, has no operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.operator import WorkloadOperator
from repro.privacy.cost import NoiseCost
from repro.privacy.noise import (
    discrete_gaussian_noise,
    discrete_gaussian_noise_batch,
    gaussian_noise,
    gaussian_noise_batch,
    gaussian_sigma,
    laplace_noise,
    laplace_noise_batch,
)

__all__ = ["ReleaseOperator", "TransformFactor", "transform_release"]


def _apply(factor, vector):
    """``factor @ vector`` for a dense array or an implicit operator."""
    if isinstance(factor, WorkloadOperator):
        return factor.matvec(vector)
    return factor @ vector


def _apply_rows(factor, rows):
    """``rows @ factor.T`` — apply ``factor`` to every row of a ``(k, n)``
    block, staying implicit for operator factors."""
    if isinstance(factor, WorkloadOperator):
        return factor.matmat(rows.T).T
    return rows @ factor.T


class TransformFactor(WorkloadOperator):
    """An ``m x n`` release factor applied by a fast transform.

    ``vector`` maps a length-``n`` vector to its length-``m`` image;
    ``rows``, when given, maps every row of a ``(k, n)`` block at once
    (the batched release), otherwise blocks go column by column. Only
    :meth:`rmatvec`, never on the release path, materialises.
    ``descriptor`` holds what determines the entries besides the shape.
    """

    kind = "transform"

    def __init__(self, shape, vector, rows=None, descriptor=()):
        self.shape = tuple(int(d) for d in shape)
        self._vector = vector
        self._rows = rows
        self._descriptor = tuple(descriptor)

    def matvec(self, x):
        return self._vector(x)

    def matmat(self, x):
        if self._rows is None:
            return super().matmat(x)
        return self._rows(np.asarray(x).T).T

    def rmatvec(self, u):
        return self.to_dense().T @ u

    def descriptor(self):
        return (self.kind, self.shape) + self._descriptor


@dataclass(frozen=True)
class ReleaseOperator:
    """The linear pipeline of one mechanism's release.

    Attributes
    ----------
    strategy:
        ``L`` (r x n) — a dense array or an implicit
        :class:`repro.linalg.operator.WorkloadOperator` — or ``None`` for
        the identity (noise-on-data mechanisms, where the strategy answers
        *are* the unit counts).
    recombination:
        ``B`` (m x r), dense or implicit, or ``None`` for the identity
        (noise-on-results mechanisms). Implicit factors are applied through
        their matvec actions, so large-domain workloads release without a
        dense GEMM against an ``m x n`` array.
    sensitivity:
        ``Delta(L)`` under the mechanism's norm (L1 for Laplace, L2 for
        Gaussian).
    noise:
        ``"laplace"``, ``"gaussian"``, ``"discrete_gaussian"`` (integer
        noise at the Gaussian-calibrated sigma, for integral releases),
        or ``"none"`` (a zero-sensitivity strategy releases exact
        strategy answers — the mechanism decides).
    delta:
        Per-release failure probability: the Gaussian family's delta, or
        the delta a zero-sensitivity (``noise="none"``) release of an
        (eps, delta) mechanism is charged.
    """

    strategy: Optional[Union[np.ndarray, WorkloadOperator]]
    recombination: Optional[Union[np.ndarray, WorkloadOperator]]
    sensitivity: float
    noise: str = "laplace"
    delta: float = 0.0

    def __post_init__(self):
        if self.noise not in ("laplace", "gaussian", "discrete_gaussian", "none"):
            raise ValidationError(f"unknown noise family {self.noise!r}")
        if self.noise in ("gaussian", "discrete_gaussian") and not (
            0.0 < self.delta < 1.0
        ):
            raise ValidationError(
                f"{self.noise} noise needs 0 < delta < 1, got {self.delta}"
            )

    def strategy_answers(self, x):
        """The data-dependent half of a release: ``L x`` (or ``x``)."""
        return x if self.strategy is None else _apply(self.strategy, x)

    def cost(self, epsilon):
        """The typed :class:`~repro.privacy.cost.NoiseCost` of one release.

        The (epsilon, delta) guarantee matches what the scalar engine
        charged bit for bit; the family and noise magnitude make the audit
        record self-describing. This is the only cost rule of a linear
        release, zero sensitivity included: ``noise="none"`` still charges
        the declared pair (the mechanism puts its declared delta on the
        operator), under the family the scalar accountants historically
        *assumed* for it (Gaussian when the release carries a delta,
        Laplace otherwise), with sensitivity 0.
        """
        epsilon = float(epsilon)
        if self.noise == "laplace":
            return NoiseCost(
                family="laplace",
                epsilon=epsilon,
                sigma_or_scale=(
                    self.sensitivity / epsilon if self.sensitivity > 0.0 else None
                ),
                sensitivity=self.sensitivity,
            )
        if self.noise in ("gaussian", "discrete_gaussian"):
            return NoiseCost(
                family=self.noise,
                epsilon=epsilon,
                delta=self.delta,
                sigma_or_scale=(
                    gaussian_sigma(self.sensitivity, epsilon, self.delta)
                    if self.sensitivity > 0.0
                    else None
                ),
                sensitivity=self.sensitivity,
            )
        family = "gaussian" if self.delta > 0.0 else "laplace"
        return NoiseCost(
            family=family, epsilon=epsilon, delta=self.delta, sensitivity=0.0
        )

    # ------------------------------------------------------------------ #
    # Releasing
    # ------------------------------------------------------------------ #
    def _noise_rows(self, size, epsilons, rng):
        """One ``(k, size)`` draw covering the whole batch."""
        if self.noise == "laplace":
            return laplace_noise_batch(size, self.sensitivity, epsilons, rng)
        if self.noise == "discrete_gaussian":
            return discrete_gaussian_noise_batch(
                size, self.sensitivity, epsilons, self.delta, rng
            )
        return gaussian_noise_batch(size, self.sensitivity, epsilons, self.delta, rng)

    def answer(self, strategy_answers, epsilon, rng):
        """One release from precomputed strategy answers.

        The single-release path of every linear mechanism:
        ``Mechanism.answer`` and ``CompiledPlan.answer`` both end here, so
        compiling a plan never moves a seeded engine's stream. One
        ``(r,)`` noise draw, then the recombination.
        """
        if self.noise == "none":
            noisy = strategy_answers
        elif self.noise == "laplace":
            noisy = strategy_answers + laplace_noise(
                strategy_answers.size, self.sensitivity, epsilon, rng
            )
        elif self.noise == "discrete_gaussian":
            noisy = strategy_answers + discrete_gaussian_noise(
                strategy_answers.size, self.sensitivity, epsilon, self.delta, rng
            )
        else:
            noisy = strategy_answers + gaussian_noise(
                strategy_answers.size, self.sensitivity, epsilon, self.delta, rng
            )
        return noisy if self.recombination is None else _apply(self.recombination, noisy)

    def answer_many(self, strategy_answers, epsilons, rng):
        """``k`` releases as a ``(k, m)`` array: one RNG draw, one GEMM.

        Row ``i`` is distributed exactly as ``answer(strategy_answers,
        epsilons[i], rng)``; only the RNG stream layout differs from a loop
        (one ``(k, r)`` draw instead of ``k`` ``(r,)`` draws).
        """
        epsilons = np.asarray(epsilons, dtype=np.float64)
        if self.noise == "none":
            noisy = np.broadcast_to(
                strategy_answers, (epsilons.size, strategy_answers.size)
            )
        else:
            noisy = strategy_answers[None, :] + self._noise_rows(
                strategy_answers.size, epsilons, rng
            )
        if self.recombination is None:
            return np.array(noisy) if self.noise == "none" else noisy
        return _apply_rows(self.recombination, np.asarray(noisy))


def transform_release(workload, padded_workload, size, analysis, synthesis,
                      synthesis_rows, sensitivity):
    """The Laplace release of a fast-transform strategy mechanism (WM, HM).

    ``L`` is ``analysis`` (length ``size``) of the zero-padded counts; ``B``
    is the transform's least-squares inverse ``synthesis`` followed by the
    padded workload ``W_p``, so a block ``X`` of noisy coefficients maps to
    ``(synthesis_rows(X.T) @ W_p.T).T``. Both stay transforms: no dense
    Haar or tree matrix is formed.
    """
    m, padded_n = padded_workload.shape

    def strategy(x):
        if x.size != padded_n:
            x = np.concatenate([x, np.zeros(padded_n - x.size)])
        return analysis(x)

    return ReleaseOperator(
        strategy=TransformFactor(
            (size, workload.domain_size), strategy,
            descriptor=(analysis.__name__,),
        ),
        recombination=TransformFactor(
            (m, size),
            lambda coefficients: padded_workload @ synthesis(coefficients),
            rows=lambda block: synthesis_rows(block) @ padded_workload.T,
            descriptor=(synthesis.__name__, workload.content_digest),
        ),
        sensitivity=sensitivity,
    )
