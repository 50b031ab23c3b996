"""Unit tests for the Mechanism framework and the Laplace baselines."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.mechanisms.base import Mechanism, as_workload
from repro.mechanisms.baselines import (
    LaplaceMechanism,
    NoiseOnDataMechanism,
    NoiseOnResultsMechanism,
)
from repro.mechanisms.registry import PAPER_MECHANISMS, make_mechanism, mechanism_names
from repro.workloads import Workload, wrange


class _EchoMechanism(Mechanism):
    """Trivial mechanism for framework tests: returns exact answers."""

    name = "ECHO"

    def _answer(self, x, epsilon, rng):
        return self.workload.answer(x)

    def expected_squared_error(self, epsilon):
        return 0.0


class TestFramework:
    def test_unfitted_answer_raises(self):
        with pytest.raises(NotFittedError):
            _EchoMechanism().answer(np.ones(3), 1.0)

    def test_unfitted_workload_raises(self):
        with pytest.raises(NotFittedError):
            _ = _EchoMechanism().workload

    def test_fit_returns_self(self):
        mech = _EchoMechanism()
        assert mech.fit(np.eye(3)) is mech
        assert mech.is_fitted

    def test_as_workload_coerces_matrix(self):
        w = as_workload(np.eye(2))
        assert isinstance(w, Workload)

    def test_as_workload_passthrough(self):
        w = Workload(np.eye(2))
        assert as_workload(w) is w

    def test_answer_validates_length(self):
        mech = _EchoMechanism().fit(np.eye(3))
        with pytest.raises(ValidationError):
            mech.answer(np.ones(4), 1.0)

    def test_answer_validates_epsilon(self):
        mech = _EchoMechanism().fit(np.eye(3))
        with pytest.raises(ValidationError):
            mech.answer(np.ones(3), 0.0)

    def test_empirical_error_zero_for_echo(self):
        mech = _EchoMechanism().fit(np.eye(3))
        assert mech.empirical_squared_error(np.ones(3), 1.0, trials=2) == 0.0

    def test_average_expected_error_divides_by_m(self):
        mech = _EchoMechanism().fit(np.ones((4, 2)))
        assert mech.average_expected_error(1.0) == 0.0

    def test_operator_only_subclass_releases_through_it(self):
        from repro.mechanisms.operator import ReleaseOperator

        class _Doubling(Mechanism):
            def release_operator(self):
                return ReleaseOperator(
                    strategy=None, recombination=2.0 * self.workload.matrix,
                    sensitivity=0.0, noise="none",
                )

        mech = _Doubling().fit(np.eye(3))
        assert np.array_equal(mech.answer(np.ones(3), 1.0), np.full(3, 2.0))
        assert np.array_equal(
            mech.answer_many(np.ones(3), [1.0, 2.0]), np.full((2, 3), 2.0)
        )

    def test_mechanism_without_a_release_raises(self):
        mech = Mechanism().fit(np.eye(2))
        with pytest.raises(NotImplementedError):
            mech.answer(np.ones(2), 1.0)

    def test_repr_states_fit(self):
        mech = _EchoMechanism()
        assert "unfitted" in repr(mech)
        mech.fit(np.eye(2))
        assert "fitted" in repr(mech)


class TestNoiseOnData:
    def test_analytic_error_formula(self):
        w = Workload([[1.0, 2.0], [0.0, 1.0]])
        mech = NoiseOnDataMechanism().fit(w)
        # 2 * ||W||_F^2 / eps^2 = 2 * 6 / 0.25
        assert mech.expected_squared_error(0.5) == pytest.approx(2 * 6 / 0.25)

    def test_empirical_matches_analytic(self):
        w = wrange(10, 32, seed=0)
        mech = NoiseOnDataMechanism().fit(w)
        x = np.ones(32) * 50
        empirical = mech.empirical_squared_error(x, 1.0, trials=3000, rng=0)
        assert empirical == pytest.approx(mech.expected_squared_error(1.0), rel=0.1)

    def test_unbiased(self):
        w = wrange(5, 16, seed=1)
        mech = NoiseOnDataMechanism().fit(w)
        x = np.arange(16.0)
        rng = np.random.default_rng(0)
        answers = np.mean([mech.answer(x, 1.0, rng) for _ in range(3000)], axis=0)
        exact = w.answer(x)
        assert np.allclose(answers, exact, atol=2.0)

    def test_error_decreases_with_epsilon(self):
        w = wrange(5, 16, seed=1)
        mech = NoiseOnDataMechanism().fit(w)
        assert mech.expected_squared_error(1.0) < mech.expected_squared_error(0.1)

    def test_quadratic_in_inverse_epsilon(self):
        w = wrange(5, 16, seed=1)
        mech = NoiseOnDataMechanism().fit(w)
        assert mech.expected_squared_error(0.1) == pytest.approx(
            100 * mech.expected_squared_error(1.0)
        )

    def test_lm_alias(self):
        assert LaplaceMechanism is NoiseOnDataMechanism


class TestNoiseOnResults:
    def test_analytic_error_formula(self):
        w = Workload([[1.0, 1.0], [0.0, 1.0]])  # sensitivity 2
        mech = NoiseOnResultsMechanism().fit(w)
        assert mech.expected_squared_error(1.0) == pytest.approx(2 * 2 * 4)

    def test_empirical_matches_analytic(self):
        w = wrange(8, 16, seed=2)
        mech = NoiseOnResultsMechanism().fit(w)
        x = np.ones(16)
        empirical = mech.empirical_squared_error(x, 1.0, trials=3000, rng=1)
        assert empirical == pytest.approx(mech.expected_squared_error(1.0), rel=0.1)

    def test_zero_workload_returns_exact(self):
        w = Workload(np.zeros((2, 3)))
        mech = NoiseOnResultsMechanism().fit(w)
        assert np.allclose(mech.answer(np.ones(3), 1.0, rng=0), 0.0)

    def test_intro_example_tradeoff(self):
        # Section 3.2: M_R beats M_D iff m * max_j sum_i W_ij^2 < ||W||_F^2;
        # for m >= n, M_R can never win.
        w = Workload(np.eye(4))
        nod = NoiseOnDataMechanism().fit(w)
        nor = NoiseOnResultsMechanism().fit(w)
        assert nor.expected_squared_error(1.0) >= nod.expected_squared_error(1.0)


class TestRegistry:
    def test_paper_mechanisms_constant(self):
        assert PAPER_MECHANISMS == ("MM", "LM", "WM", "HM", "LRM")

    def test_all_names_constructible(self):
        for name in mechanism_names():
            mech = make_mechanism(name)
            assert isinstance(mech, Mechanism)

    def test_case_insensitive(self):
        assert make_mechanism("lrm").name == "LRM"

    def test_kwargs_forwarded(self):
        mech = make_mechanism("LRM", rank=5)
        assert mech.rank == 5

    def test_unknown_raises(self):
        with pytest.raises(ValidationError):
            make_mechanism("XYZ")

    def test_lm_is_noise_on_data(self):
        assert isinstance(make_mechanism("LM"), NoiseOnDataMechanism)
