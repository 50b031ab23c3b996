"""Release operators: the data-independent linear form of a release.

Every mechanism in the paper's family releases

    M(Q, D) = B (L x + noise(Delta(L) / eps)^r)            (Eq. 6 shape)

for some strategy ``L`` (possibly the identity), recombination ``B``
(possibly the identity), sensitivity ``Delta`` and noise family, and its
expected squared error is one formula too, Lemma 1's
``var(noise) * ||B||_F^2``. A :class:`ReleaseOperator` captures exactly
that tuple, prices it (:meth:`ReleaseOperator.cost`), predicts its error
(:meth:`ReleaseOperator.expected_squared_error`) and draws it
(:meth:`ReleaseOperator.answer_many`).

``answer_many`` is the only release kernel: every release of a linear
mechanism is a batch, and a single release is a batch of one
(``Mechanism.answer``, ``CompiledPlan.answer`` and the engine all end
here). A batch of ``k`` is one RNG draw and one GEMM, which is what lets
the serving layer (:mod:`repro.engine.compiled`) precompute ``L x`` once
per data epoch and answer ``k`` releases without ``k`` GEMV/draw round
trips.

Mechanisms expose their operator through
:meth:`repro.mechanisms.base.Mechanism.release_operator`. The
fast-transform WM and HM hand over :class:`TransformFactor` actions that
keep their ``O(n log n)`` Haar and tree transforms instead of dense
matrices. Only the subsampled mechanism, whose thinning is
data-dependent, has no operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.operator import WorkloadOperator
from repro.privacy.cost import NoiseCost
from repro.privacy.noise import gaussian_sigma, noise_rows

__all__ = ["ReleaseOperator", "TransformFactor", "transform_release"]


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
        if self.noise != "none" and not self.sensitivity > 0.0:
            raise ValidationError(
                f"{self.noise} noise needs a positive sensitivity, got "
                f"{self.sensitivity}; a zero-sensitivity strategy releases "
                'with noise="none"'
            )

    def strategy_answers(self, x):
        """The data-dependent half of a release: ``L x`` (or ``x``)."""
        if self.strategy is None:
            return x
        if isinstance(self.strategy, WorkloadOperator):
            return self.strategy.matvec(x)
        return self.strategy @ x

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
                sigma_or_scale=self.sensitivity / epsilon,
                sensitivity=self.sensitivity,
            )
        if self.noise in ("gaussian", "discrete_gaussian"):
            return NoiseCost(
                family=self.noise,
                epsilon=epsilon,
                delta=self.delta,
                sigma_or_scale=gaussian_sigma(self.sensitivity, epsilon, self.delta),
                sensitivity=self.sensitivity,
            )
        family = "gaussian" if self.delta > 0.0 else "laplace"
        return NoiseCost(
            family=family, epsilon=epsilon, delta=self.delta, sensitivity=0.0
        )

    def expected_squared_error(self, epsilon):
        """Lemma 1's analytic ``E ||release - B L x||^2`` at ``epsilon``.

        The per-coordinate noise variance (``2 (Delta/eps)^2`` Laplace,
        ``sigma^2`` for the Gaussian family — an upper bound for the
        discrete one, CKS 2020 — and 0 for ``noise="none"``) times
        ``||B||_F^2``, which is ``r`` when ``B`` is the identity. The
        multiplication order keeps the closed forms the mechanisms used to
        state by hand bit for bit (``2 r s s`` on results, ``2 s s F``
        through a recombination).
        """
        if self.noise == "none":
            return 0.0
        epsilon = float(epsilon)
        if self.noise == "laplace":
            coefficient, scale = 2.0, self.sensitivity / epsilon
        else:
            coefficient = 1.0
            scale = gaussian_sigma(self.sensitivity, epsilon, self.delta)
        recombination = self.recombination
        if recombination is None:
            rows = self.strategy.shape[0]
            return coefficient * rows * scale * scale
        if isinstance(recombination, WorkloadOperator):
            frobenius_squared = recombination.frobenius_squared()
        else:
            frobenius_squared = float(np.sum(recombination**2))
        return coefficient * scale * scale * frobenius_squared

    def answer_many(self, strategy_answers, epsilons, rng):
        """``k`` releases as a ``(k, m)`` array: one RNG draw, one GEMM.

        The one release kernel of every linear mechanism — a single
        release is a batch of one. ``epsilons`` is a validated 1-D float64
        array (:func:`repro.linalg.validation.as_epsilon_batch`); callers
        validate at their public entry. Row ``i`` is an ``epsilons[i]``
        release; a batch draws its noise in one ``(k, r)`` call, so the RNG
        stream advances differently from ``k`` one-row batches (the
        distributions are identical). Every row is freshly allocated, so a
        release never aliases the cached strategy answers.
        """
        if self.noise == "none":
            noisy = np.broadcast_to(
                strategy_answers, (epsilons.size, strategy_answers.size)
            )
            if self.recombination is None:
                return np.array(noisy)
        else:
            noisy = strategy_answers[None, :] + noise_rows(
                self.noise, strategy_answers.size, self.sensitivity, epsilons,
                rng, self.delta,
            )
        if self.recombination is None:
            return noisy
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
