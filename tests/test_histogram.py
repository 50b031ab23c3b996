"""Unit tests for the histogram front-end and domain mapper."""

import numpy as np
import pytest

from repro.data.histogram import (
    DomainMapper,
    grid_histogram_from_records,
    histogram_from_records,
)
from repro.exceptions import ValidationError


class TestHistogramFromRecords:
    def test_counts_sum_to_records(self):
        records = np.random.default_rng(0).normal(50, 10, 500)
        counts, _ = histogram_from_records(records, bins=16, value_range=(0, 100))
        assert counts.sum() == 500

    def test_explicit_edges(self):
        counts, edges = histogram_from_records([0.5, 1.5, 1.6], bins=[0.0, 1.0, 2.0])
        assert np.allclose(counts, [1.0, 2.0])
        assert np.allclose(edges, [0.0, 1.0, 2.0])

    def test_out_of_range_clipped(self):
        counts, _ = histogram_from_records([-5.0, 50.0], bins=2, value_range=(0, 10))
        assert counts.sum() == 2
        assert counts[0] == 1.0 and counts[1] == 1.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValidationError):
            histogram_from_records([1.0], bins=[0.0, 0.0, 1.0])

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValidationError):
            histogram_from_records([1.0, 1.0], bins=4)


class TestGridHistogram:
    def test_shape_and_total(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(0, 1, 300), rng.normal(0, 1, 300)
        counts, ex, ey = grid_histogram_from_records(x, y, 4, 6, range_x=(-3, 3), range_y=(-3, 3))
        assert counts.size == 24
        assert counts.sum() == 300
        assert ex.size == 5 and ey.size == 7

    def test_row_major_layout_matches_marginals(self):
        # One record at grid cell (row 1, col 2) of a 3x4 grid.
        counts, _, _ = grid_histogram_from_records(
            [1.5], [2.5], 3, 4, range_x=(0, 3), range_y=(0, 4)
        )
        grid = counts.reshape(3, 4)
        assert grid[1, 2] == 1.0
        from repro.workloads import marginals_workload

        answers = marginals_workload(3, 4).answer(counts)
        assert answers[1] == 1.0  # row-1 marginal
        assert answers[3 + 2] == 1.0  # col-2 marginal

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            grid_histogram_from_records([1.0, 2.0], [1.0], 2, 2, range_x=(0, 3), range_y=(0, 3))


class TestDomainMapper:
    def _mapper(self):
        return DomainMapper(np.linspace(0.0, 100.0, 11))  # 10 bins of width 10

    def test_domain_size(self):
        assert self._mapper().domain_size == 10

    def test_bin_of(self):
        mapper = self._mapper()
        assert mapper.bin_of(5.0) == 0
        assert mapper.bin_of(95.0) == 9
        assert mapper.bin_of(10.0) == 1  # right-open bins

    def test_bin_of_clips(self):
        mapper = self._mapper()
        assert mapper.bin_of(-50.0) == 0
        assert mapper.bin_of(500.0) == 9

    def test_range_row(self):
        row = self._mapper().range_row(25.0, 44.0)
        assert np.allclose(np.flatnonzero(row), [2, 3, 4])

    def test_range_row_rejects_inverted(self):
        with pytest.raises(ValidationError):
            self._mapper().range_row(50.0, 10.0)

    def test_range_workload(self):
        workload = self._mapper().range_workload([(0, 49), (50, 100)])
        assert workload.shape == (2, 10)
        # The two ranges partition the domain.
        assert np.allclose(workload.matrix.sum(axis=0), 1.0)

    def test_range_workload_needs_intervals(self):
        with pytest.raises(ValidationError):
            self._mapper().range_workload([])

    def test_end_to_end_private_range_count(self):
        # Records -> histogram -> value-space query -> DP release.
        from repro.engine import PrivateQueryEngine

        rng = np.random.default_rng(2)
        ages = rng.integers(0, 100, 2000).astype(float)
        counts, edges = histogram_from_records(ages, bins=20, value_range=(0, 100))
        mapper = DomainMapper(edges)
        workload = mapper.range_workload([(18, 64), (65, 100)])
        engine = PrivateQueryEngine(counts, total_budget=1.0, seed=3)
        plan = engine.plan(workload, mechanism="LM", epsilon_hint=0.5)
        release = engine.execute(plan, epsilon=0.5)
        exact = workload.answer(counts)
        # eps = 0.5 on thousands of records: answers within a loose band.
        assert np.all(np.abs(release.answers - exact) < 200)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValidationError):
            DomainMapper([3.0, 2.0, 1.0])


class TestWorkloadAlgebra:
    def test_scaled(self):
        from repro.workloads import Workload

        w = Workload(np.eye(3)).scaled(2.0)
        assert np.allclose(w.matrix, 2 * np.eye(3))

    def test_scaled_rejects_zero(self):
        from repro.workloads import Workload

        with pytest.raises(ValidationError):
            Workload(np.eye(2)).scaled(0.0)

    def test_kron_shape(self):
        from repro.workloads import Workload

        a = Workload(np.ones((2, 3)))
        b = Workload(np.eye(4))
        assert a.kron(b).shape == (8, 12)

    def test_kron_answers_product_queries(self):
        from repro.workloads import Workload, total_workload

        # total (x) identity over a 2x3 grid = column sums of the grid.
        grid = np.arange(6.0)  # [[0,1,2],[3,4,5]]
        w = total_workload(2).kron(Workload(np.eye(3)))
        assert np.allclose(w.answer(grid), [3.0, 5.0, 7.0])

    def test_kron_rank_multiplies(self):
        from repro.workloads import wrelated

        a = wrelated(6, 8, s=2, seed=0)
        b = wrelated(5, 7, s=2, seed=1)
        assert a.kron(b).rank == 4

    def test_kron_type_check(self):
        from repro.workloads import Workload

        with pytest.raises(ValidationError):
            Workload(np.eye(2)).kron(np.eye(2))
