"""Release conformance: every mechanism's noise matches the cost it charges.

For each registry mechanism with a linear release (every label except the
subsampled ``SUB``, checked separately below) the sweep checks the audit
record against the release itself:

* the record's ``sensitivity`` is the strategy's true maximum column norm
  (L1 for Laplace, L2 for the Gaussian family, the unit sensitivity for an
  identity strategy), recomputed here from the operator's factors;
* its ``sigma_or_scale`` is that sensitivity's calibration at epsilon;
* the empirical MSE of seeded ``answer_many`` rows around the noise-free
  release ``B L x`` equals ``var(scale) * ||B||_F^2`` within a tolerance
  of a few standard errors of the sample mean.

* the mechanism's analytic ``expected_squared_error`` is that same
  ``var(scale) * ||B||_F^2``.

``SUB`` thins the counts binomially at rate ``q`` and rescales by ``1/q``,
so its MSE is the inner release's ``var * ||B||_F^2 / q^2`` plus the
Horvitz-Thompson term ``sum_j ||W e_j||^2 x_j (1 - q) / q``.

A mechanism whose noise is drawn at a different scale than it records, or
whose record misstates the strategy's sensitivity, fails here. The last
classes pin the single-release paths to the batch kernel: a release never
aliases cached strategy answers, and ``mechanism.answer``,
``plan.compile().answer`` and ``engine.execute`` give the same bits.
"""

import numpy as np
import pytest

from repro.engine import PrivateQueryEngine
from repro.linalg.operator import WorkloadOperator
from repro.mechanisms.operator import ReleaseOperator
from repro.mechanisms.registry import make_mechanism, mechanism_names
from repro.privacy.noise import gaussian_sigma
from repro.workloads import Workload, prefix_workload, wrange, wrelated

EPSILON = 0.7
DELTA = 1e-5
ROWS = 20_000
#: Standard errors of the mean allowed between empirical and analytic MSE.
Z = 5.0
FAST_LRM = {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}

#: Every label with a release operator: the registry minus SUB.
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

    expected = variance * b_frobenius_sq
    assert mechanism.expected_squared_error(EPSILON) == pytest.approx(
        expected, rel=1e-12
    )
    rows = mechanism.answer_many(counts, np.full(ROWS, EPSILON), rng=2012)
    squared = np.sum((rows - noiseless[None, :]) ** 2, axis=1)
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


@pytest.mark.parametrize("inner", ["GNOR", "GLM"])
def test_subsampled_release_matches_its_variance(inner, workload, counts):
    rate = 0.4
    mechanism = make_mechanism("SUB", inner=inner, sample_rate=rate, delta=DELTA)
    mechanism.fit(workload)
    operator = mechanism.inner.release_operator()
    cost = mechanism.release_cost(EPSILON)
    assert cost.family == "subsampled_gaussian"
    assert cost.sample_rate == rate
    assert cost.sigma_or_scale == operator.cost(EPSILON).sigma_or_scale

    if operator.recombination is None:
        b_frobenius_sq = float(_dense(operator.strategy).shape[0])
    else:
        b_frobenius_sq = float(np.sum(_dense(operator.recombination) ** 2))
    noise = cost.sigma_or_scale**2 * b_frobenius_sq / rate**2
    column_sq = np.sum(workload.matrix**2, axis=0)
    thinning = float(np.sum(column_sq * counts)) * (1.0 - rate) / rate

    rows = mechanism.answer_many(counts, np.full(ROWS, EPSILON), rng=2012)
    squared = np.sum((rows - workload.answer(counts)[None, :]) ** 2, axis=1)
    expected = noise + thinning
    tolerance = Z * float(squared.std(ddof=1)) / np.sqrt(ROWS)
    assert abs(float(squared.mean()) - expected) <= tolerance, (
        f"SUB({inner}): empirical MSE {squared.mean():.6g} vs "
        f"{expected:.6g} (tolerance {tolerance:.3g})"
    )


class TestZeroSensitivityAlias:
    """A noise-free release is a fresh array: writing into one release
    never reaches the plan's cached strategy answers or a later release."""

    @pytest.mark.parametrize("label", ["NOR", "NOQ", "GNOR"])
    def test_engine_release_owns_its_answers(self, label):
        gaussian = label == "GNOR"
        engine = PrivateQueryEngine(
            np.arange(8.0), total_budget=10.0, seed=0,
            delta=DELTA if gaussian else 0.0,
        )
        mechanism = make_mechanism(label, **({"delta": DELTA / 4} if gaussian else {}))
        plan = engine.plan(Workload(np.zeros((3, 8))), mechanism=mechanism)
        first = engine.execute(plan, 0.5)
        first.answers[:] = 99.0
        assert np.array_equal(engine.execute(plan, 0.5).answers, np.zeros(3))
        assert np.array_equal(
            plan.compile().answer(np.arange(8.0), 0.5, rng=0), np.zeros(3)
        )


SAME_BITS_WORKLOADS = {
    "dense": lambda: wrelated(8, 32, s=2, seed=3),
    "interval": lambda: prefix_workload(32),
    "padded": lambda: wrange(8, 48, seed=2),
}


@pytest.mark.parametrize("shape", sorted(SAME_BITS_WORKLOADS))
@pytest.mark.parametrize("label", LABELS)
def test_single_release_paths_give_the_same_bits(label, shape):
    """``mechanism.answer``, ``plan.compile().answer`` and
    ``engine.execute`` are one kernel under one seed: the padded shape
    (n = 48) runs WM and HM through their zero-padded transforms."""
    workload = SAME_BITS_WORKLOADS[shape]()
    counts = np.random.default_rng(1).integers(0, 50, size=workload.domain_size)
    counts = counts.astype(np.float64)
    delta = DELTA if label in ("GLM", "GNOR", "DGNOR", "GLRM") else 0.0
    engine = PrivateQueryEngine(
        counts, total_budget=10.0, seed=11, delta=delta,
        mechanism_kwargs={"LRM": FAST_LRM, "GLRM": FAST_LRM},
        accountant="basic" if delta else None,
    )
    plan = engine.plan(workload, mechanism=label)
    released = engine.execute(plan, EPSILON).answers
    direct = plan.mechanism.answer(counts, EPSILON, rng=11)
    compiled = plan.compile().answer(counts, EPSILON, np.random.default_rng(11))
    assert released.tobytes() == direct.tobytes()
    assert compiled.tobytes() == direct.tobytes()
