"""Serving hot-path tests: vectorised batch releases, compiled plans,
data epochs and parallel candidate ranking.

The RNG-stream contract under test: a batched release draws all its noise
in one ``(k, r)`` RNG call, so the stream *position* differs from ``k``
looped calls while every release's *distribution* (and all audit-log
contents) is identical. The exact-equality tests below therefore compare
against a manual replication of the batched draw, not against the loop.
"""

import numpy as np
import pytest

from repro.engine import PrivateQueryEngine, rank_mechanisms
from repro.engine.plan import build_plan
from repro.exceptions import ReproError, ValidationError
from repro.mechanisms.base import Mechanism
from repro.mechanisms.baselines import NoiseOnDataMechanism, NoiseOnResultsMechanism
from repro.mechanisms.operator import ReleaseOperator
from repro.mechanisms.registry import make_mechanism
from repro.privacy.noise import gaussian_noise_batch, laplace_noise_batch
from repro.workloads import wrange, wrelated

FAST_LRM = {"LRM": {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}}


def _engine(n=64, seed=7, **kwargs):
    kwargs.setdefault("mechanism_kwargs", FAST_LRM)
    return PrivateQueryEngine(np.arange(float(n)), total_budget=1e6, seed=seed, **kwargs)


# --------------------------------------------------------------------- #
# Mechanism.answer_many
# --------------------------------------------------------------------- #
class TestAnswerMany:
    @pytest.mark.parametrize("label", ["LM", "NOR", "SVDM", "WM", "HM"])
    def test_shape_and_finiteness(self, label):
        mechanism = make_mechanism(label).fit(wrange(6, 32, seed=0))
        out = mechanism.answer_many(np.arange(32.0), [0.1, 0.2, 0.5], rng=3)
        assert out.shape == (3, 6)
        assert np.all(np.isfinite(out))

    def test_operator_batch_matches_manual_draw(self):
        # The batched release is exactly B (L x + one (k, r) Laplace draw).
        workload = wrelated(8, 64, s=2, seed=1)
        mechanism = make_mechanism("SVDM").fit(workload)
        x = np.arange(64.0)
        epsilons = [0.1, 0.3, 0.7]
        got = mechanism.answer_many(x, epsilons, rng=11)

        operator = mechanism.release_operator()
        rng = np.random.default_rng(11)
        noise = laplace_noise_batch(
            operator.strategy.shape[0], operator.sensitivity, epsilons, rng
        )
        expected = (operator.strategy @ x + noise) @ operator.recombination.T
        assert np.array_equal(got, expected)

    def test_gaussian_operator_batch_matches_manual_draw(self):
        workload = wrange(6, 32, seed=0)
        mechanism = make_mechanism("GNOR", delta=1e-6).fit(workload)
        x = np.arange(32.0)
        epsilons = [0.2, 0.4]
        got = mechanism.answer_many(x, epsilons, rng=5)

        operator = mechanism.release_operator()
        rng = np.random.default_rng(5)
        noise = gaussian_noise_batch(
            workload.num_queries, operator.sensitivity, epsilons, 1e-6, rng
        )
        assert np.array_equal(got, workload.matrix @ x + noise)

    def test_wavelet_batch_matches_manual_block_draw(self):
        # WM's batched release is one (k, n) Laplace draw on the Haar
        # coefficients, one batched synthesis, one GEMM — exactly.
        from repro.linalg.haar import haar_analysis, haar_synthesis_rows
        from repro.privacy.noise import laplace_noise_batch

        workload = wrange(6, 32, seed=0)
        batch_mechanism = make_mechanism("WM").fit(workload)
        assert isinstance(batch_mechanism.release_operator(), ReleaseOperator)
        x = np.arange(32.0)
        epsilons = [0.1, 0.5]
        got = batch_mechanism.answer_many(x, epsilons, rng=4)

        rng = np.random.default_rng(4)
        coefficients = haar_analysis(x)
        noise = laplace_noise_batch(
            coefficients.size, batch_mechanism.strategy_sensitivity, epsilons, rng
        )
        reconstructed = haar_synthesis_rows(coefficients[None, :] + noise)
        expected = reconstructed @ workload.matrix.T
        assert np.array_equal(got, expected)

    def test_hierarchical_batch_matches_manual_block_draw(self):
        # HM: one (k, 2n-1) draw on the tree nodes, one batched consistency
        # pass, one GEMM.
        from repro.linalg.trees import tree_apply, tree_consistency_rows
        from repro.privacy.noise import laplace_noise_batch

        workload = wrange(6, 32, seed=0)
        batch_mechanism = make_mechanism("HM").fit(workload)
        assert isinstance(batch_mechanism.release_operator(), ReleaseOperator)
        x = np.arange(32.0)
        epsilons = [0.2, 0.9]
        got = batch_mechanism.answer_many(x, epsilons, rng=7)

        rng = np.random.default_rng(7)
        nodes = tree_apply(x)
        noise = laplace_noise_batch(
            nodes.size, batch_mechanism.strategy_sensitivity, epsilons, rng
        )
        estimates = tree_consistency_rows(nodes[None, :] + noise)
        expected = estimates @ workload.matrix.T
        assert np.array_equal(got, expected)

    def test_transform_batch_rows_distributed_like_single_answers(self):
        # Each batched WM row has the distribution of a standalone answer:
        # means converge on the exact answers at the single-release rate.
        workload = wrange(4, 16, seed=0)
        mechanism = make_mechanism("WM").fit(workload)
        x = np.arange(16.0)
        rows = mechanism.answer_many(x, np.full(3000, 1.0), rng=0)
        exact = workload.answer(x)
        assert np.allclose(rows.mean(axis=0), exact, atol=2.0)
        expected_total_var = mechanism.expected_squared_error(1.0)
        assert np.sum(rows.var(axis=0)) == pytest.approx(expected_total_var, rel=0.2)

    def test_rows_distributed_like_single_answers(self):
        # Mean over many batched LM releases converges on the exact
        # answers with the Laplace variance of a single release.
        workload = wrange(4, 16, seed=0)
        mechanism = make_mechanism("LM").fit(workload)
        x = np.arange(16.0)
        epsilon, k = 1.0, 4000
        rows = mechanism.answer_many(x, np.full(k, epsilon), rng=0)
        exact = workload.answer(x)
        assert np.allclose(rows.mean(axis=0), exact, atol=1.5)
        # Per-coordinate noise variance of LM answers: 2/eps^2 * row norms.
        expected_var = 2.0 / epsilon**2 * np.sum(workload.matrix**2, axis=1)
        assert np.allclose(rows.var(axis=0), expected_var, rtol=0.25)

    def test_scalar_epsilon_promotes_to_one_release(self):
        mechanism = make_mechanism("LM").fit(wrange(4, 16, seed=0))
        out = mechanism.answer_many(np.arange(16.0), 0.5, rng=1)
        assert out.shape == (1, 4)

    @pytest.mark.parametrize("bad", [[], [0.1, -0.2], [np.inf], [[0.1, 0.2]]])
    def test_invalid_epsilons_rejected(self, bad):
        mechanism = make_mechanism("LM").fit(wrange(4, 16, seed=0))
        with pytest.raises(ValidationError):
            mechanism.answer_many(np.arange(16.0), bad, rng=1)

    def test_empirical_error_runs_through_batch_path(self):
        # empirical_squared_error == the batched-draw computation, exactly.
        workload = wrange(4, 16, seed=0)
        mechanism = make_mechanism("LM").fit(workload)
        x = np.arange(16.0)
        got = mechanism.empirical_squared_error(x, 0.5, trials=7, rng=9)
        rows = mechanism.answer_many(x, np.full(7, 0.5), rng=9)
        residual = rows - workload.answer(x)[None, :]
        assert got == pytest.approx(float(np.sum(residual**2)) / 7)
        assert mechanism.empirical_average_error(x, 0.5, trials=7, rng=9) == pytest.approx(
            got / workload.num_queries
        )


# --------------------------------------------------------------------- #
# Batched execute_many vs looped execute
# --------------------------------------------------------------------- #
class TestBatchLoopEquivalence:
    def test_audit_identical_and_spend_bit_identical(self):
        workload = wrelated(8, 64, s=2, seed=1)
        epsilons = [0.1, 0.25, 0.1, 0.4, 0.1]

        loop_engine = _engine(seed=3)
        loop_plan = loop_engine.plan(workload, mechanism="LRM")
        loop_releases = [loop_engine.execute(loop_plan, eps) for eps in epsilons]

        batch_engine = _engine(seed=3)
        batch_plan = batch_engine.plan(workload, mechanism="LRM")
        batch_releases = batch_engine.execute_many([(batch_plan, eps) for eps in epsilons])

        # Bit-identical accounting: same costs, committed in-order.
        assert loop_engine.spent_budget == batch_engine.spent_budget
        for loop_release, batch_release in zip(loop_releases, batch_releases):
            assert loop_release.mechanism == batch_release.mechanism
            assert loop_release.epsilon == batch_release.epsilon
            assert loop_release.delta == batch_release.delta
            assert loop_release.expected_error == batch_release.expected_error
            assert loop_release.workload_key == batch_release.workload_key
            assert loop_release.metadata == batch_release.metadata
            assert loop_release.answers.shape == batch_release.answers.shape

    def test_batch_answers_match_manual_batched_draw(self):
        # Seeded execute_many is exactly reconstructible from the plan's
        # release operator and one batched draw from the engine's stream.
        workload = wrelated(8, 64, s=2, seed=1)
        engine = _engine(seed=5)
        plan = engine.plan(workload, mechanism="LRM")
        epsilons = [0.1, 0.2, 0.3]
        releases = engine.execute_many([(plan, eps) for eps in epsilons])

        operator = plan.mechanism.release_operator()
        rng = np.random.default_rng(5)
        noise = laplace_noise_batch(
            operator.strategy.shape[0], operator.sensitivity, epsilons, rng
        )
        expected = (
            operator.strategy @ np.arange(64.0) + noise
        ) @ operator.recombination.T
        for release, row in zip(releases, expected):
            assert np.array_equal(release.answers, row)

    def test_mixed_plans_group_in_first_seen_order(self):
        # Requests interleaving two plans release in request order while
        # the RNG stream advances plan-group by plan-group (A's batch draw,
        # then B's) — the documented stream contract.
        workload_a = wrange(6, 64, seed=0)
        workload_b = wrange(4, 64, seed=1)
        engine = _engine(seed=9)
        plan_a = engine.plan(workload_a, mechanism="LM")
        plan_b = engine.plan(workload_b, mechanism="LM")
        releases = engine.execute_many(
            [(plan_a, 0.1), (plan_b, 0.2), (plan_a, 0.3)]
        )
        assert [r.workload_key for r in releases] == [
            plan_a.workload_key, plan_b.workload_key, plan_a.workload_key,
        ]

        x = np.arange(64.0)
        rng = np.random.default_rng(9)
        noise_a = laplace_noise_batch(64, 1.0, [0.1, 0.3], rng)
        noise_b = laplace_noise_batch(64, 1.0, [0.2], rng)
        expected = [
            workload_a.matrix @ (x + noise_a[0]),
            workload_b.matrix @ (x + noise_b[0]),
            workload_a.matrix @ (x + noise_a[1]),
        ]
        for release, row in zip(releases, expected):
            assert np.allclose(release.answers, row)

    def test_batch_releases_do_not_alias(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        first, second = engine.execute_many([(plan, 0.1), (plan, 0.1)])
        before = second.answers.copy()
        first.answers[:] = -1.0
        assert np.array_equal(second.answers, before)

    def test_batch_rollback_leaves_no_trace(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        spent_before = engine.spent_budget

        def boom(*args, **kwargs):
            raise RuntimeError("mid-batch failure")

        operator = plan.compile()
        original = operator.answer_many
        operator.answer_many = boom
        try:
            with pytest.raises(RuntimeError):
                engine.execute_many([(plan, 0.1), (plan, 0.1)])
        finally:
            operator.answer_many = original
        assert engine.spent_budget == spent_before
        assert engine.releases == []

    def test_per_release_postprocess_switches_still_apply(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        plain, integral = engine.execute_many(
            [(plan, 0.5), (plan, 0.5, {"integral": True})]
        )
        assert not plain.metadata["postprocess"]["integral"]
        assert integral.metadata["postprocess"]["integral"]
        assert np.array_equal(integral.answers, np.round(integral.answers))


# --------------------------------------------------------------------- #
# Compiled plans and data epochs
# --------------------------------------------------------------------- #
class TestCompiledPlan:
    def test_repeated_execute_reuses_strategy_answers(self):
        engine = _engine()
        plan = engine.plan(wrelated(8, 64, s=2, seed=1), mechanism="LRM")
        compiled = plan.compile()
        assert plan.compile() is compiled  # memoized on the plan
        for _ in range(3):
            engine.execute(plan, 0.1)
        engine.execute_many([(plan, 0.1), (plan, 0.2)])
        assert compiled.strategy_evaluations == 1
        assert compiled.releases == 5

    @staticmethod
    def _count_operator_builds(monkeypatch, mechanism):
        calls = []
        mechanism_cls = type(mechanism)
        original = mechanism_cls.release_operator

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(mechanism_cls, "release_operator", counted)
        return calls

    @pytest.mark.parametrize("label", ["LRM", "GNOR", "WM"])
    def test_costs_price_through_the_compiled_operator(self, label, monkeypatch):
        # plan.release_cost builds the release operator once per plan (at
        # compile), however often it prices, and charges exactly what the
        # mechanism's own pricing says.
        plan = _engine().plan(wrange(6, 64, seed=0), mechanism=label)
        calls = self._count_operator_builds(monkeypatch, plan.mechanism)
        records = [plan.release_cost(eps).to_record() for eps in (0.1, 0.2, 0.1, 0.2)]
        assert len(calls) == 1
        monkeypatch.undo()
        for record, eps in zip(records, (0.1, 0.2, 0.1, 0.2)):
            assert record == plan.mechanism.release_cost(eps).to_record()

    @pytest.mark.parametrize("label", ["LRM", "WM"])
    def test_repeated_execute_builds_the_operator_once(self, label, monkeypatch):
        # LRM and WM predict their error from their own closed forms, so a
        # whole run of executes builds the operator exactly once.
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism=label)
        calls = self._count_operator_builds(monkeypatch, plan.mechanism)
        records = [engine.execute(plan, 0.1).metadata["cost"] for _ in range(3)]
        records += [r.metadata["cost"] for r in engine.execute_many([(plan, 0.1)] * 2)]
        assert len(calls) == 1
        monkeypatch.undo()
        expected = plan.mechanism.release_cost(0.1).to_record()
        assert all(record == expected for record in records)

    def test_set_data_invalidates_cached_strategy_answers(self):
        engine = _engine(n=64)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        compiled = plan.compile()
        engine.execute(plan, 0.5)
        assert compiled.strategy_evaluations == 1

        new_data = np.arange(64.0)[::-1].copy()
        engine.set_data(new_data)
        # Huge epsilon => negligible noise: the release must reflect the
        # new data, not a stale cached L x.
        release = engine.execute(plan, 1e5)
        assert compiled.strategy_evaluations == 2
        assert np.allclose(release.answers, plan.workload.answer(new_data), atol=1e-3)

    def test_set_data_rejects_domain_change(self):
        engine = _engine(n=64)
        with pytest.raises(ValidationError):
            engine.set_data(np.arange(32.0))

    def test_engine_copies_data_against_inplace_mutation(self):
        data = np.arange(64.0)
        engine = PrivateQueryEngine(data, total_budget=1e6, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        engine.execute(plan, 1e5)
        data[:] = 0.0  # caller mutates their array; the engine must not care
        release = engine.execute(plan, 1e5)
        assert np.allclose(release.answers, plan.workload.answer(np.arange(64.0)), atol=1e-3)

    def test_epochs_do_not_collide_across_engines(self):
        # Two engines with different data sharing one plan object (shared
        # cache) must never serve each other's cached strategy answers.
        from repro.engine.plan_cache import PlanCache

        cache = PlanCache()
        workload = wrange(6, 64, seed=0)
        data_a = np.arange(64.0)
        data_b = np.arange(64.0)[::-1].copy()
        engine_a = PrivateQueryEngine(data_a, total_budget=1e6, seed=0, plan_cache=cache)
        engine_b = PrivateQueryEngine(data_b, total_budget=1e6, seed=0, plan_cache=cache)
        plan = engine_a.plan(workload, mechanism="LM")
        assert engine_b.plan(workload, mechanism="LM") is plan
        release_a = engine_a.execute(plan, 1e5)
        release_b = engine_b.execute(plan, 1e5)
        assert np.allclose(release_a.answers, workload.answer(data_a), atol=1e-3)
        assert np.allclose(release_b.answers, workload.answer(data_b), atol=1e-3)

    class _LaplaceOnResults(Mechanism):
        """Operator-less: releases only through its own ``_answer``."""

        name = "ANSWER_ONLY"

        def _answer(self, x, epsilon, rng):
            return self.workload.answer(x) + rng.laplace(0.0, 1.0 / epsilon, 6)

    def test_fallback_mechanism_keeps_exact_stream(self):
        # Operator-less plans forward to mechanism.answer: a seeded engine
        # release equals the mechanism's own seeded answer.
        workload = wrange(6, 64, seed=0)
        engine = _engine(seed=21)
        plan = engine.plan(workload, mechanism=self._LaplaceOnResults())
        assert plan.compile().operator is None
        release = engine.execute(plan, 0.5)
        expected = plan.mechanism.answer(np.arange(64.0), 0.5, np.random.default_rng(21))
        assert np.array_equal(release.answers, expected)

    @pytest.mark.parametrize("label", ["WM", "HM"])
    def test_transform_plan_computes_strategy_once_per_epoch(self, label):
        # WM and HM compile to their transform operators: L x (Haar
        # analysis or the tree's node counts) is computed once per data
        # epoch, and a seeded release equals the mechanism's own answer.
        engine = _engine(n=48, seed=5)
        plan = engine.plan(wrange(6, 48, seed=0), mechanism=label)
        compiled = plan.compile()
        assert isinstance(compiled.operator, ReleaseOperator)
        release = engine.execute(plan, 0.5)
        expected = plan.mechanism.answer(np.arange(48.0), 0.5, np.random.default_rng(5))
        assert np.array_equal(release.answers, expected)
        engine.execute(plan, 0.5)
        engine.execute_many([(plan, 0.1), (plan, 0.2)])
        assert compiled.strategy_evaluations == 1
        engine.set_data(np.arange(48.0)[::-1].copy())
        engine.execute(plan, 0.5)
        assert compiled.strategy_evaluations == 2

    def test_compiling_does_not_move_seeded_stream(self):
        # execute through the compiled operator draws the same noise as the
        # mechanism's own answer() with the same seed (same RNG call shape).
        workload = wrelated(8, 64, s=2, seed=1)
        engine = _engine(seed=13)
        plan = engine.plan(workload, mechanism="LRM")
        release = engine.execute(plan, 0.25)
        expected = plan.mechanism.answer(np.arange(64.0), 0.25, np.random.default_rng(13))
        assert np.array_equal(release.answers, expected)


# --------------------------------------------------------------------- #
# Parallel candidate ranking
# --------------------------------------------------------------------- #
class TestParallelRanking:
    def test_parallel_matches_serial_ordering(self):
        workload = wrange(6, 32, seed=0)
        serial = rank_mechanisms(workload, 0.1, mechanism_kwargs=FAST_LRM)
        parallel = rank_mechanisms(workload, 0.1, mechanism_kwargs=FAST_LRM, parallel=True)
        assert [c.label for c in serial] == [c.label for c in parallel]
        for serial_choice, parallel_choice in zip(serial, parallel):
            if serial_choice.ok:
                assert parallel_choice.expected_error == pytest.approx(
                    serial_choice.expected_error
                )

    def test_parallel_plan_picks_same_mechanism(self):
        workload = wrelated(8, 64, s=2, seed=1)
        engine = _engine()
        serial_plan = engine.plan(workload, use_cache=False)
        parallel_plan = engine.plan(workload, use_cache=False, parallel=True)
        assert serial_plan.mechanism_label == parallel_plan.mechanism_label
        assert [c.label for c in serial_plan.candidates] == [
            c.label for c in parallel_plan.candidates
        ]

    def test_unpicklable_candidate_falls_back_to_serial(self):
        mechanism = NoiseOnDataMechanism()
        mechanism.unpicklable = lambda: None  # lambdas cannot pickle
        choices = rank_mechanisms(
            wrange(4, 16, seed=0), 0.1, candidates=[mechanism, "NOR"], parallel=True
        )
        assert len(choices) == 2
        assert all(choice.ok for choice in choices)

    def test_build_plan_threads_parallel_knob(self):
        plan = build_plan(
            wrange(4, 16, seed=0), mechanism="auto",
            candidates=("LM", "NOR"), parallel=2,
        )
        assert plan.mechanism_label in {"LM", "NOR"}


class TestRankMechanismsFixes:
    class _ExplodingMechanism(Mechanism):
        name = "BOOM"

        def _fit(self, workload):
            raise ReproError("deliberate fit failure")

        def _answer(self, x, epsilon, rng):  # pragma: no cover
            return np.zeros(1)

    def test_failed_candidates_keep_fit_seconds(self):
        choices = rank_mechanisms(
            wrange(4, 16, seed=0), 0.1,
            candidates=[self._ExplodingMechanism(), "LM"],
        )
        failed = next(choice for choice in choices if choice.failure is not None)
        assert failed.label == "BOOM"
        assert failed.fit_seconds is not None and failed.fit_seconds >= 0.0

    def test_failed_candidate_fit_seconds_reach_plan_table(self):
        plan = build_plan(
            wrange(4, 16, seed=0), mechanism="auto",
            candidates=[self._ExplodingMechanism(), "LM"],
        )
        failed = next(c for c in plan.candidates if c.failure is not None)
        assert failed.fit_seconds is not None

    def test_caller_kwargs_and_instances_never_touched(self):
        kwargs = {"LM": {"unit_sensitivity": 2.0}}
        snapshot = {"LM": dict(kwargs["LM"])}
        instance = NoiseOnResultsMechanism()
        rank_mechanisms(
            wrange(4, 16, seed=0), 0.1,
            candidates=[instance, "LM"], mechanism_kwargs=kwargs,
        )
        assert kwargs == snapshot
        assert not instance.is_fitted  # the ranked copy was fitted, not ours
