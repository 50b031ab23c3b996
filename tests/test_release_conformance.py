"""Release conformance: every mechanism's noise matches the cost it charges.

For each registry mechanism with a linear release (every label except the
subsampled ``SUB``, whose variance carries a Horvitz-Thompson term) the
sweep checks the audit record against the release itself:

* the record's ``sensitivity`` is the strategy's true maximum column norm
  (L1 for Laplace, L2 for the Gaussian family, the unit sensitivity for an
  identity strategy), recomputed here from the operator's factors;
* its ``sigma_or_scale`` is that sensitivity's calibration at epsilon;
* the empirical MSE of seeded ``answer_many`` rows around the noise-free
  release ``B L x`` equals ``var(scale) * ||B||_F^2`` within a tolerance
  of a few standard errors of the sample mean.

A mechanism whose noise is drawn at a different scale than it records, or
whose record misstates the strategy's sensitivity, fails here.
"""

import numpy as np
import pytest

from repro.linalg.operator import WorkloadOperator
from repro.mechanisms.operator import ReleaseOperator
from repro.mechanisms.registry import make_mechanism, mechanism_names
from repro.privacy.noise import gaussian_sigma
from repro.workloads import Workload, wrelated

EPSILON = 0.7
DELTA = 1e-5
ROWS = 20_000
#: Standard errors of the mean allowed between empirical and analytic MSE.
Z = 5.0
FAST_LRM = {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}

LABELS = [label for label in mechanism_names() if label != "SUB"]


def _mechanism(label):
    kwargs = dict(FAST_LRM) if label in ("LRM", "GLRM") else {}
    if label in ("GLM", "GNOR", "DGNOR", "GLRM"):
        kwargs["delta"] = DELTA
    return make_mechanism(label, **kwargs)


def _dense(factor):
    if isinstance(factor, WorkloadOperator):
        return factor.to_dense()
    return np.asarray(factor, dtype=np.float64)


@pytest.fixture(scope="module")
def workload():
    return wrelated(8, 32, s=2, seed=3)


@pytest.fixture(scope="module")
def counts():
    return np.random.default_rng(0).integers(0, 50, size=32).astype(np.float64)


@pytest.mark.parametrize("label", LABELS)
def test_release_matches_its_cost(label, workload, counts):
    mechanism = _mechanism(label).fit(workload)
    operator = mechanism.release_operator()
    assert isinstance(operator, ReleaseOperator)
    cost = mechanism.release_cost(EPSILON)
    gaussian = operator.noise in ("gaussian", "discrete_gaussian")
    assert cost.family == operator.noise
    assert cost.epsilon == EPSILON
    assert cost.delta == (DELTA if mechanism.requires_delta else 0.0)

    if operator.strategy is None:
        strategy = None
        true_sensitivity = mechanism.unit_sensitivity
    else:
        strategy = _dense(operator.strategy)
        norms = (
            np.sqrt(np.sum(strategy**2, axis=0))
            if gaussian
            else np.sum(np.abs(strategy), axis=0)
        )
        true_sensitivity = float(norms.max())
    assert cost.sensitivity == pytest.approx(true_sensitivity, rel=1e-9)

    if gaussian:
        scale = gaussian_sigma(true_sensitivity, EPSILON, DELTA)
        variance = scale**2
    else:
        scale = true_sensitivity / EPSILON
        variance = 2.0 * scale**2
    assert cost.sigma_or_scale == pytest.approx(scale, rel=1e-9)

    strategy_answers = counts if strategy is None else strategy @ counts
    if operator.recombination is None:
        noiseless = strategy_answers
        b_frobenius_sq = float(strategy_answers.size)
    else:
        recombination = _dense(operator.recombination)
        noiseless = recombination @ strategy_answers
        b_frobenius_sq = float(np.sum(recombination**2))

    rows = mechanism.answer_many(counts, np.full(ROWS, EPSILON), rng=2012)
    squared = np.sum((rows - noiseless[None, :]) ** 2, axis=1)
    expected = variance * b_frobenius_sq
    tolerance = Z * float(squared.std(ddof=1)) / np.sqrt(ROWS)
    assert abs(float(squared.mean()) - expected) <= tolerance, (
        f"{label}: empirical MSE {squared.mean():.6g} vs "
        f"var(scale)*||B||_F^2 {expected:.6g} (tolerance {tolerance:.3g})"
    )


class TestZeroSensitivityCost:
    """A zero-sensitivity strategy draws no noise yet charges the declared
    (epsilon, delta) pair, recorded with sensitivity 0."""

    @pytest.mark.parametrize(
        "label, family, delta",
        [("NOR", "laplace", 0.0), ("GNOR", "gaussian", DELTA), ("DGNOR", "gaussian", DELTA)],
    )
    def test_zero_workload_record(self, label, family, delta):
        kwargs = {"delta": DELTA} if delta else {}
        mechanism = make_mechanism(label, **kwargs).fit(Workload(np.zeros((3, 8))))
        assert mechanism.release_operator().noise == "none"
        record = mechanism.release_cost(0.5).to_record()
        assert record["family"] == family
        assert record["epsilon"] == 0.5
        assert record["delta"] == delta
        assert record["sensitivity"] == 0.0
        answers = mechanism.answer(np.arange(8.0), 0.5, rng=0)
        assert np.array_equal(answers, np.zeros(3))
