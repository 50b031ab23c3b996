"""Privacy amplification by subsampling: serve histograms from a sample.

Running a Gaussian-family mechanism on a Bernoulli subsample (each unit
included independently with probability ``q``) amplifies its privacy
guarantee: the release satisfies ``(log(1 + q (e^eps - 1)), q delta)``-DP
on the full dataset (Balle, Barthe & Gaboardi 2018), and under RDP
accounting composes with the much tighter subsampled-Gaussian curve
(Mironov, Talwar & Zhang 2019). At small ``q`` this multiplies the number
of releases a fixed budget admits by orders of magnitude — the price is
sampling variance in the answers.

:class:`SubsampledMechanism` wraps any Gaussian-family mechanism: it thins
the (integral, non-negative) unit counts binomially, answers through the
inner mechanism on the thinned counts, and rescales by ``1/q``
(Horvitz-Thompson, unbiased). Its :meth:`release_cost` is a
``subsampled_gaussian`` :class:`~repro.privacy.cost.NoiseCost` carrying
the *base* (eps, delta) and the sample rate, so every accountant charges
the amplified guarantee and the RDP ledger composes the amplified curve.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.validation import check_positive
from repro.mechanisms.base import Mechanism
from repro.privacy.cost import NoiseCost

__all__ = ["SubsampledMechanism"]

#: Inner-cost families the subsampled-Gaussian amplification analysis
#: covers (the discrete Gaussian shares the continuous curve, CKS 2020).
_AMPLIFIABLE_FAMILIES = ("gaussian", "discrete_gaussian")


class SubsampledMechanism(Mechanism):
    """Bernoulli-subsampled serving of a Gaussian-family mechanism.

    Parameters
    ----------
    inner:
        The base mechanism: a registry label (e.g. ``"GNOR"``) or a
        :class:`Mechanism` instance. Must be Gaussian-family
        (``requires_delta``) — pure-DP inner mechanisms are rejected,
        because the subsampled-Gaussian accounting curve would not
        describe them.
    sample_rate:
        Bernoulli inclusion probability ``q`` in (0, 1].
    **inner_kwargs:
        Forwarded to the registry factory when ``inner`` is a label.

    The data vector must hold non-negative integral counts (they are
    thinned binomially: each of the ``x_i`` units survives independently
    with probability ``q``). Answers are rescaled by ``1/q`` so the
    release is an unbiased estimate of the full-data answers.
    """

    name = "SUB"
    requires_delta = True
    #: ``inner`` contributes its own privacy state (e.g. a GLM inner's
    #: ``unit_sensitivity``) to the plan key.
    privacy_params = ("sample_rate", "delta", "inner")

    def __init__(self, inner="GNOR", sample_rate=0.1, **inner_kwargs):
        super().__init__()
        if isinstance(inner, Mechanism):
            if inner_kwargs:
                raise ValidationError(
                    "inner_kwargs are only valid with a registry label, "
                    "not a mechanism instance"
                )
            self._inner_label = None
            self._inner_kwargs = {}
            self.inner = inner
        else:
            from repro.mechanisms.registry import make_mechanism

            self._inner_label = str(inner).strip().upper()
            self._inner_kwargs = dict(inner_kwargs)
            self.inner = make_mechanism(self._inner_label, **inner_kwargs)
        if not self.inner.requires_delta:
            raise ValidationError(
                f"SubsampledMechanism needs a Gaussian-family inner "
                f"mechanism; {type(self.inner).__name__} is pure eps-DP"
            )
        sample_rate = check_positive(sample_rate, "sample_rate")
        if sample_rate > 1.0:
            raise ValidationError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        self.sample_rate = float(sample_rate)

    @property
    def delta(self):
        """The inner mechanism's per-release delta (base, pre-amplification)."""
        return float(getattr(self.inner, "delta", 0.0))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _fit(self, workload):
        self.inner.fit(workload)

    def _answer(self, x, epsilon, rng):
        counts = np.asarray(x, dtype=np.float64)
        if np.any(counts < 0.0) or not np.allclose(counts, np.rint(counts)):
            raise ValidationError(
                "SubsampledMechanism needs non-negative integral unit "
                "counts (Bernoulli thinning operates on individual units)"
            )
        if self.sample_rate >= 1.0:
            thinned = counts
        else:
            thinned = rng.binomial(
                np.rint(counts).astype(np.int64), self.sample_rate
            ).astype(np.float64)
        # The inner release is a batch of one through its release operator.
        release = self.inner._answer_many(thinned, np.array([epsilon]), rng)[0]
        return release / self.sample_rate

    def release_operator(self):
        """``None``: thinning is data-dependent, so the release is not a
        fixed linear pipeline and is served through :meth:`answer`."""
        return None

    # ------------------------------------------------------------------ #
    # Privacy cost
    # ------------------------------------------------------------------ #
    def release_cost(self, epsilon):
        """A ``subsampled_gaussian`` cost: base (eps, delta) plus ``q``.

        Additive accountants charge the amplified pair
        ``(log(1 + q (e^eps - 1)), q delta)``; the RDP accountant composes
        the subsampled-Gaussian curve. At ``q = 1`` both reduce exactly to
        the inner mechanism's own cost arithmetic.
        """
        epsilon = check_positive(epsilon, "epsilon")
        inner_cost = self.inner.release_cost(epsilon)
        if inner_cost.family not in _AMPLIFIABLE_FAMILIES:
            raise ValidationError(
                f"cannot amplify a {inner_cost.family!r} release by "
                "subsampling; only Gaussian-family inner mechanisms are "
                "supported"
            )
        return NoiseCost(
            family="subsampled_gaussian",
            epsilon=inner_cost.epsilon,
            delta=inner_cost.delta,
            sigma_or_scale=inner_cost.sigma_or_scale,
            sensitivity=inner_cost.sensitivity,
            sample_rate=self.sample_rate,
        )

    # ------------------------------------------------------------------ #
    # Spec protocol
    # ------------------------------------------------------------------ #
    def to_spec(self):
        if self._inner_label is None:
            inner_spec = self.inner.to_spec()  # may itself raise
            return {
                "inner_class": type(self.inner).__name__,
                "inner_spec": inner_spec,
                "sample_rate": self.sample_rate,
            }
        return {
            "inner": self._inner_label,
            "inner_kwargs": self._inner_kwargs,
            "sample_rate": self.sample_rate,
        }

    @classmethod
    def from_spec(cls, spec):
        spec = dict(spec)
        if "inner" in spec:
            return cls(
                inner=spec["inner"],
                sample_rate=spec.get("sample_rate", 0.1),
                **spec.get("inner_kwargs", {}),
            )
        import repro.mechanisms as _mechanisms

        inner_cls = getattr(_mechanisms, spec["inner_class"], None)
        if inner_cls is None or not (
            isinstance(inner_cls, type) and issubclass(inner_cls, Mechanism)
        ):
            raise ValidationError(
                f"unknown inner mechanism class {spec.get('inner_class')!r}"
            )
        inner = inner_cls.from_spec(spec.get("inner_spec", {}))
        return cls(inner=inner, sample_rate=spec.get("sample_rate", 0.1))

    # ------------------------------------------------------------------ #
    # Plan metadata
    # ------------------------------------------------------------------ #
    def plan_metadata(self):
        meta = super().plan_metadata()
        meta["noise"] = "subsampled_gaussian"
        meta["sample_rate"] = self.sample_rate
        meta["inner"] = self.inner.plan_metadata()
        return meta

    def __repr__(self):
        return (
            f"{type(self).__name__}(inner={type(self.inner).__name__}, "
            f"q={self.sample_rate})"
        )
