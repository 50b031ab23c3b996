"""Edge cases and failure injection across the public API.

These tests feed every mechanism and the solver pathological-but-legal
inputs (single query, single cell, zero rows, huge magnitudes, duplicated
queries) and assert graceful, correct behaviour instead of crashes or
silent nonsense.
"""

import numpy as np
import pytest

from repro.core.alm import decompose_workload
from repro.core.lrm import LowRankMechanism
from repro.exceptions import DecompositionError, ValidationError
from repro.mechanisms.baselines import NoiseOnDataMechanism, NoiseOnResultsMechanism
from repro.mechanisms.hierarchical import HierarchicalMechanism
from repro.mechanisms.wavelet import WaveletMechanism
from repro.workloads import Workload

FAST = {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}


class TestDegenerateWorkloads:
    def test_single_query_single_cell(self):
        w = Workload([[2.0]])
        for mech_cls in (NoiseOnDataMechanism, NoiseOnResultsMechanism,
                         WaveletMechanism, HierarchicalMechanism):
            mech = mech_cls().fit(w)
            answer = mech.answer(np.array([5.0]), 1.0, rng=0)
            assert answer.shape == (1,)
            assert np.isfinite(answer).all()

    def test_single_query_lrm(self):
        w = Workload([[1.0, 2.0, 3.0]])
        mech = LowRankMechanism(**FAST).fit(w)
        # Default ratio 1.2 over rank 1 -> ceil(1.2) = 2, clamped to the
        # single query row: extra columns in B beyond m never help.
        assert mech.effective_rank == 1
        assert np.isfinite(mech.answer(np.ones(3), 1.0, rng=0)).all()

    def test_workload_with_zero_rows(self):
        # A zero query is legal: its exact answer is 0 and stays 0-centred.
        w = Workload([[0.0, 0.0], [1.0, 1.0]])
        mech = NoiseOnDataMechanism().fit(w)
        answers = np.array([mech.answer(np.ones(2), 1.0, rng=i)[0] for i in range(500)])
        assert abs(answers.mean()) < 1.0

    def test_all_zero_workload_decomposition_fails_cleanly(self):
        with pytest.raises(DecompositionError, match="all-zero"):
            decompose_workload(np.zeros((3, 4)), **FAST)

    def test_duplicated_queries_are_rank_one(self):
        row = np.array([1.0, -1.0, 2.0, 0.0])
        w = Workload(np.tile(row, (6, 1)))
        assert w.rank == 1
        mech = LowRankMechanism(**FAST).fit(w)
        # One strategy query suffices; scale must beat NOD by ~m/stuff.
        nod = NoiseOnDataMechanism().fit(w)
        assert mech.expected_squared_error(1.0) < nod.expected_squared_error(1.0)

    def test_huge_magnitude_workload(self):
        rng = np.random.default_rng(0)
        w = Workload(rng.standard_normal((6, 12)) * 1e8)
        dec = decompose_workload(w.matrix, **FAST)
        assert np.isfinite(dec.scale)
        assert dec.residual_norm <= 1e-6 * np.linalg.norm(w.matrix)

    def test_tiny_magnitude_workload(self):
        rng = np.random.default_rng(1)
        w = Workload(rng.standard_normal((6, 12)) * 1e-8)
        dec = decompose_workload(w.matrix, **FAST)
        assert np.isfinite(dec.scale)
        assert dec.scale > 0

    def test_wide_single_row(self):
        w = Workload(np.ones((1, 64)))
        mech = LowRankMechanism(**FAST).fit(w)
        # A single sum query has optimal error 2/eps^2 (one Laplace draw).
        assert mech.expected_squared_error(1.0) <= 2.0 * 1.1

    def test_tall_workload_more_queries_than_cells(self):
        rng = np.random.default_rng(2)
        w = Workload(rng.standard_normal((20, 5)))
        mech = LowRankMechanism(**FAST).fit(w)
        assert mech.answer(np.ones(5), 1.0, rng=0).shape == (20,)


class TestNumericalRobustness:
    def test_negative_counts_are_legal_data(self):
        # The paper's records are real numbers; negative values must work.
        w = Workload(np.ones((2, 4)))
        mech = NoiseOnDataMechanism().fit(w)
        answer = mech.answer(np.array([-5.0, 3.0, -2.0, 1.0]), 1.0, rng=0)
        assert np.isfinite(answer).all()

    def test_epsilon_extremes(self):
        w = Workload(np.ones((2, 4)))
        mech = NoiseOnDataMechanism().fit(w)
        # Very large epsilon: noise nearly vanishes.
        answer = mech.answer(np.ones(4), 1e6, rng=0)
        assert np.allclose(answer, 4.0, atol=1e-3)
        # Very small epsilon: still finite.
        assert np.isfinite(mech.answer(np.ones(4), 1e-6, rng=0)).all()

    def test_non_contiguous_and_fortran_order_inputs(self):
        base = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        w = Workload(base)
        x = np.arange(8.0)[::2]  # non-contiguous view
        assert np.allclose(w.answer(x), base @ np.ascontiguousarray(x))

    def test_integer_inputs_coerced(self):
        w = Workload(np.array([[1, 0], [0, 1]]))
        assert w.matrix.dtype == np.float64
        answer = NoiseOnDataMechanism().fit(w).answer(np.array([1, 2]), 1.0, rng=0)
        assert answer.dtype == np.float64

    def test_rng_streams_independent_across_mechanisms(self):
        w = Workload(np.ones((2, 4)))
        a = NoiseOnDataMechanism().fit(w)
        b = NoiseOnDataMechanism().fit(w)
        shared = np.random.default_rng(0)
        first = a.answer(np.ones(4), 1.0, shared)
        second = b.answer(np.ones(4), 1.0, shared)
        # Same generator consumed sequentially: different draws.
        assert not np.allclose(first, second)


class TestPrivacyAccountingEdges:
    def test_engine_refuses_fit_cost_free_overspend(self):
        from repro.engine import PrivateQueryEngine
        from repro.exceptions import PrivacyBudgetError

        engine = PrivateQueryEngine(np.ones(8), total_budget=0.1, seed=0)
        w = Workload(np.ones((1, 8)))
        plan = engine.plan(w, mechanism="LM")  # free
        engine.execute(plan, epsilon=0.1)
        with pytest.raises(PrivacyBudgetError):
            engine.execute(engine.plan(w, mechanism="LM"), epsilon=0.01)

    def test_budget_not_spent_on_failed_fit(self):
        from repro.engine import PrivateQueryEngine

        engine = PrivateQueryEngine(np.ones(8), total_budget=1.0, seed=0)
        with pytest.raises(ValidationError):
            engine.execute(engine.plan(Workload(np.ones((1, 4))), epsilon_hint=0.5), 0.5)
        assert engine.spent_budget == 0.0
