"""Unit tests for the privacy substrate: noise and sensitivity."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.privacy.noise import (
    expected_squared_noise,
    laplace_noise,
    laplace_scale,
    laplace_variance,
)
from repro.privacy.sensitivity import column_l1_norms, l1_sensitivity, scale_to_sensitivity


class TestLaplaceScale:
    def test_value(self):
        assert laplace_scale(2.0, 0.5) == pytest.approx(4.0)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValidationError):
            laplace_scale(1.0, 0.0)

    def test_rejects_negative_sensitivity(self):
        with pytest.raises(ValidationError):
            laplace_scale(-1.0, 1.0)


class TestLaplaceVariance:
    def test_value(self):
        assert laplace_variance(3.0) == pytest.approx(18.0)


class TestLaplaceNoise:
    def test_shape_int(self):
        assert laplace_noise(5, 1.0, 1.0, rng=0).shape == (5,)

    def test_shape_tuple(self):
        assert laplace_noise((2, 3), 1.0, 1.0, rng=0).shape == (2, 3)

    def test_deterministic_with_seed(self):
        assert np.array_equal(laplace_noise(4, 1.0, 1.0, rng=7), laplace_noise(4, 1.0, 1.0, rng=7))

    def test_empirical_variance(self):
        samples = laplace_noise(200_000, 2.0, 0.5, rng=1)
        # scale = 4, variance = 32
        assert np.var(samples) == pytest.approx(32.0, rel=0.05)

    def test_zero_mean(self):
        samples = laplace_noise(200_000, 1.0, 1.0, rng=2)
        assert abs(np.mean(samples)) < 0.02

    def test_rejects_zero_size(self):
        with pytest.raises(ValidationError):
            laplace_noise(0, 1.0, 1.0)


class TestExpectedSquaredNoise:
    def test_formula(self):
        # 2 * count * (Delta/eps)^2
        assert expected_squared_noise(10, 2.0, 0.5) == pytest.approx(2 * 10 * 16.0)

    def test_matches_empirical(self):
        expected = expected_squared_noise(1, 1.0, 1.0)
        samples = laplace_noise(300_000, 1.0, 1.0, rng=3)
        assert np.mean(samples**2) == pytest.approx(expected, rel=0.05)


class TestSensitivity:
    def test_column_norms(self):
        matrix = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert np.allclose(column_l1_norms(matrix), [4.0, 2.5])

    def test_l1_sensitivity(self):
        assert l1_sensitivity(np.array([[1.0, -2.0], [3.0, 0.5]])) == pytest.approx(4.0)

    def test_zero_matrix(self):
        assert l1_sensitivity(np.zeros((2, 2))) == 0.0

    def test_sparse_input(self):
        import scipy.sparse as sp

        matrix = sp.csr_matrix(np.array([[1.0, -2.0], [3.0, 0.5]]))
        assert l1_sensitivity(matrix) == pytest.approx(4.0)

    def test_intro_example(self):
        # Section 1: {q1, q2, q3} with q1 = q2 + q3 has sensitivity 2.
        w = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        assert l1_sensitivity(w) == 2.0


class TestScaleToSensitivity:
    def test_product_preserved(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 2))
        l = rng.standard_normal((2, 5))
        b2, l2 = scale_to_sensitivity(b, l)
        assert np.allclose(b @ l, b2 @ l2)

    def test_target_reached(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 2))
        l = rng.standard_normal((2, 5)) * 3
        _, l2 = scale_to_sensitivity(b, l, target=1.0)
        assert l1_sensitivity(l2) == pytest.approx(1.0)

    def test_error_objective_invariant(self):
        # Lemma 2: Phi * Delta^2 unchanged by rescaling.
        rng = np.random.default_rng(2)
        b = rng.standard_normal((4, 3))
        l = rng.standard_normal((3, 6))
        before = np.sum(b**2) * l1_sensitivity(l) ** 2
        b2, l2 = scale_to_sensitivity(b, l)
        after = np.sum(b2**2) * l1_sensitivity(l2) ** 2
        assert after == pytest.approx(before)

    def test_zero_l_raises(self):
        with pytest.raises(ValidationError):
            scale_to_sensitivity(np.ones((2, 2)), np.zeros((2, 2)))
