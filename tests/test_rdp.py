"""Tests for the Rényi/zCDP accounting subsystem (repro.privacy.rdp)."""

import numpy as np
import pytest

from repro.engine import PrivateQueryEngine
from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.privacy.accountant import ApproxDPAccountant, make_accountant
from repro.privacy.noise import gaussian_sigma
from repro.privacy.rdp import (
    DEFAULT_ALPHA_GRID,
    RDPAccountant,
    compose_rdp_curves,
    gaussian_rdp_curve,
    laplace_rdp_curve,
    rdp_to_approx_dp,
    release_rdp_curve,
    releases_per_budget,
)
from repro.workloads import wrange


class TestCurves:
    def test_gaussian_curve_formula(self):
        curve = gaussian_rdp_curve(2.0)
        assert np.array_equal(curve, DEFAULT_ALPHA_GRID / 8.0)

    def test_gaussian_curve_custom_grid(self):
        alphas = np.array([2.0, 4.0])
        assert np.allclose(gaussian_rdp_curve(1.0, alphas), [1.0, 2.0])

    def test_laplace_curve_positive_increasing_and_capped_by_epsilon(self):
        # Mironov Prop. 6: increasing in alpha, converging to the pure-DP
        # epsilon 1/lambda from below.
        epsilon = 0.8
        curve = laplace_rdp_curve(1.0 / epsilon)
        assert np.all(curve > 0.0)
        assert np.all(np.diff(curve) >= 0.0)
        assert np.all(curve <= epsilon + 1e-12)
        big_alpha = laplace_rdp_curve(1.0 / epsilon, np.array([1e6]))[0]
        assert big_alpha == pytest.approx(epsilon, rel=1e-3)

    def test_laplace_curve_no_overflow_at_high_epsilon(self):
        curve = laplace_rdp_curve(1.0 / 1e5)  # eps = 1e5 per release
        assert np.all(np.isfinite(curve))
        assert curve[-1] <= 1e5 + 1e-6

    def test_curves_reject_bad_inputs(self):
        with pytest.raises(ValidationError):
            gaussian_rdp_curve(0.0)
        with pytest.raises(ValidationError):
            laplace_rdp_curve(-1.0)
        with pytest.raises(PrivacyBudgetError):
            gaussian_rdp_curve(1.0, np.array([0.5, 2.0]))  # order <= 1

    def test_composition_is_addition(self):
        a = gaussian_rdp_curve(1.0)
        b = laplace_rdp_curve(2.0)
        assert np.array_equal(compose_rdp_curves(a, b), a + b)
        with pytest.raises(PrivacyBudgetError):
            compose_rdp_curves()

    def test_kfold_gaussian_matches_closed_form(self):
        # k releases at sigma compose to exactly one release at sigma/sqrt(k):
        # k * alpha/(2 sigma^2) == alpha/(2 (sigma/sqrt(k))^2). The curve
        # arithmetic must reproduce the closed form bit-for-bit.
        sigma, k = 3.0, 16  # sqrt(16) exact in floats
        composed = compose_rdp_curves(*([gaussian_rdp_curve(sigma)] * k))
        closed_form = gaussian_rdp_curve(sigma / np.sqrt(k))
        assert np.allclose(composed, closed_form, rtol=1e-15)
        assert rdp_to_approx_dp(composed, 1e-6) == pytest.approx(
            rdp_to_approx_dp(closed_form, 1e-6), rel=1e-12
        )


class TestConversion:
    def test_decreasing_in_delta(self):
        curve = gaussian_rdp_curve(2.0)
        assert rdp_to_approx_dp(curve, 1e-9) > rdp_to_approx_dp(curve, 1e-3)

    def test_never_negative(self):
        assert rdp_to_approx_dp(np.zeros_like(DEFAULT_ALPHA_GRID), 0.5) == 0.0

    def test_single_gaussian_release_roundtrip_is_conservative(self):
        # Calibrate sigma for (eps0, delta), run it through the RDP curve
        # and convert back at the same delta: the result must upper-bound
        # the exact eps0 (RDP is not tight for one release) without being
        # wildly loose.
        eps0, delta = 0.5, 1e-6
        sigma = gaussian_sigma(1.0, eps0, delta)
        converted = rdp_to_approx_dp(gaussian_rdp_curve(sigma), delta)
        assert converted >= eps0
        assert converted <= 3.0 * eps0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            rdp_to_approx_dp(np.zeros(3), 1e-6)

    def test_delta_bounds(self):
        curve = gaussian_rdp_curve(1.0)
        with pytest.raises((PrivacyBudgetError, ValidationError)):
            rdp_to_approx_dp(curve, 0.0)
        with pytest.raises(PrivacyBudgetError):
            rdp_to_approx_dp(curve, 1.0)


class TestReleaseCurve:
    def test_pure_cost_is_laplace(self):
        assert np.array_equal(release_rdp_curve(0.4, 0.0), laplace_rdp_curve(2.5))

    def test_gaussian_cost_uses_analytic_sigma(self):
        eps, delta = 0.7, 1e-7
        expected = gaussian_rdp_curve(gaussian_sigma(1.0, eps, delta))
        assert np.array_equal(release_rdp_curve(eps, delta), expected)


class TestReleasesPerBudget:
    def test_pure_model(self):
        assert releases_per_budget(0.1, 0.0, 1.0, 0.0, model="pure") == 10
        assert releases_per_budget(0.1, 1e-8, 1.0, 0.0, model="pure") == 0

    def test_basic_model_minimum_of_both_coordinates(self):
        assert releases_per_budget(0.1, 1e-7, 10.0, 1e-6, model="basic") == 10
        assert releases_per_budget(0.1, 1e-8, 1.0, 1e-6, model="basic") == 10

    def test_rdp_beats_basic_for_many_gaussian_releases(self):
        basic = releases_per_budget(0.05, 1e-8, 2.0, 1e-5, model="basic")
        rdp = releases_per_budget(0.05, 1e-8, 2.0, 1e-5, model="rdp")
        assert rdp >= 5 * basic

    def test_rdp_count_matches_accountant_loop(self):
        # Within one release of a live drain (k*cost vs sequential curve
        # accumulation — documented); exact on this off-boundary cell.
        eps, delta, total_eps, total_delta = 0.5, 1e-8, 4.0, 1e-5
        accountant = RDPAccountant(total_eps, total_delta)
        count = 0
        while accountant.can_spend(eps, delta):
            accountant.spend(eps, delta)
            count += 1
        predicted = releases_per_budget(eps, delta, total_eps, total_delta, model="rdp")
        assert abs(count - predicted) <= 1
        assert count == predicted  # this cell sits away from any boundary

    def test_rdp_requires_delta_budget(self):
        with pytest.raises(PrivacyBudgetError):
            releases_per_budget(0.1, 1e-8, 1.0, 0.0, model="rdp")

    def test_unknown_model_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            releases_per_budget(0.1, 0.0, 1.0, 0.0, model="martingale")


class TestRDPAccountant:
    def test_initial_state(self):
        accountant = RDPAccountant(1.0, 1e-6)
        assert accountant.total_epsilon == 1.0
        assert accountant.total_delta == 1e-6
        assert accountant.spent_epsilon == 0.0
        assert accountant.spent_delta == 0.0
        assert accountant.remaining_epsilon == 1.0
        assert np.array_equal(accountant.rdp_curve, np.zeros(DEFAULT_ALPHA_GRID.shape))

    def test_requires_positive_total_delta(self):
        with pytest.raises(PrivacyBudgetError):
            RDPAccountant(1.0, 0.0)

    def test_spend_accumulates_sublinearly(self):
        # The realized epsilon grows with each spend but, past the first
        # release, far slower than the nominal sum — the whole point.
        accountant = RDPAccountant(10.0, 1e-6)
        realized = []
        for _ in range(20):
            accountant.spend(0.2, 1e-8)
            realized.append(accountant.spent_epsilon)
        assert np.all(np.diff(realized) > 0.0)
        assert realized[-1] < 20 * 0.2
        assert accountant.spent_delta == 1e-6  # conversion target, not a sum

    def test_pure_costs_compose_through_laplace_curve(self):
        accountant = RDPAccountant(5.0, 1e-6)
        accountant.spend(0.3)
        assert np.array_equal(accountant.rdp_curve, laplace_rdp_curve(1.0 / 0.3))

    def test_many_small_pure_releases_beat_sequential_composition(self):
        # The Laplace curve composes sub-linearly too; the win appears once
        # per-release epsilons are small relative to the budget.
        pure = releases_per_budget(0.01, 0.0, 1.0, 1e-6, model="pure")
        rdp = releases_per_budget(0.01, 0.0, 1.0, 1e-6, model="rdp")
        assert pure == 100
        assert rdp >= 4 * pure

    def test_overspend_raises_and_leaves_state(self):
        accountant = RDPAccountant(0.5, 1e-6)
        accountant.spend(0.3, 1e-8)
        curve_before = accountant.rdp_curve
        spent_before = accountant.spent_epsilon
        with pytest.raises(PrivacyBudgetError):
            accountant.spend(0.5, 1e-8)
        assert accountant.rdp_curve is curve_before
        assert accountant.spent_epsilon == spent_before

    def test_dust_releases_cannot_leak_unbounded(self):
        # Every spend strictly grows the realized epsilon (the curve only
        # adds), so dust-sized releases are refused in finite time and the
        # ledger never under-reports past the total.
        accountant = RDPAccountant(0.05, 1e-6)
        count = 0
        while accountant.can_spend(0.005, 1e-9) and count < 10_000:
            accountant.spend(0.005, 1e-9)
            count += 1
        assert 0 < count < 10_000
        assert accountant.spent_epsilon <= 0.05 + 1e-10
        with pytest.raises(PrivacyBudgetError):
            accountant.spend(0.005, 1e-9)

    def test_slack_admitted_final_spend_never_reads_above_total(self):
        # Regression: admission tolerates boundary dust (realized <= total
        # + eps_slack), so the final spend's conversion can land a hair
        # above the total — the report must clamp to the total (the scalar
        # accountants' sign-aware clamp, RDP edition), never read above it.
        eps, delta, total_delta = 0.05, 1e-8, 1e-5
        probe = RDPAccountant(1e9, total_delta)
        for _ in range(200):
            probe.spend(eps, delta)
        boundary = probe.spent_epsilon
        # Total strictly below the 200-fold realized epsilon, inside the
        # admission slack: spend 200 is admitted and overshoots in raw
        # conversion terms.
        total = boundary - 0.5e-12 * max(1.0, boundary)
        accountant = RDPAccountant(total, total_delta)
        count = 0
        while accountant.can_spend(eps, delta):
            accountant.spend(eps, delta)
            count += 1
        assert count == 200
        assert accountant.spent_epsilon <= accountant.total_epsilon
        assert accountant.spent_epsilon == accountant.total_epsilon
        assert accountant.remaining_epsilon == 0.0
        assert not accountant.can_spend(eps, delta)

    def test_no_rearm_once_realized_reaches_total(self):
        # A ledger whose realized guarantee has reached the total refuses
        # every further cost, however tiny (mirrors the scalar
        # accountants' exhaustion guard). Saturation is set through the
        # ledger-state hook — discrete spends land *near* the boundary,
        # not on it.
        accountant = RDPAccountant(0.4, 1e-6)
        saturated_curve = np.full(DEFAULT_ALPHA_GRID.shape, 50.0)
        accountant._set_ledger_state((saturated_curve, True))
        assert accountant.remaining_epsilon == 0.0
        for _ in range(3):
            with pytest.raises(PrivacyBudgetError):
                accountant.spend(1e-9)
        assert not accountant.can_spend(1e-9)

    def test_can_spend_is_a_total_predicate(self):
        accountant = RDPAccountant(1.0, 1e-6)
        assert accountant.can_spend(0.1, 1e-8)
        assert accountant.can_spend(0.1)  # pure cost fine
        assert not accountant.can_spend(0.0)
        assert not accountant.can_spend(-1.0)
        assert not accountant.can_spend(0.1, delta=-0.1)
        assert not accountant.can_spend(0.1, delta=1.0)

    def test_per_release_delta_above_budget_target_is_legal(self):
        # Under RDP the per-release delta calibrates sigma; it is not a
        # draw against total_delta.
        accountant = RDPAccountant(10.0, 1e-8)
        accountant.spend(0.1, 1e-6)
        assert accountant.spent_delta == 1e-8

    def test_reset(self):
        accountant = RDPAccountant(1.0, 1e-6)
        accountant.spend(0.3, 1e-8)
        accountant.reset()
        assert accountant.spent_epsilon == 0.0
        assert accountant.spent_delta == 0.0
        assert np.array_equal(accountant.rdp_curve, np.zeros(DEFAULT_ALPHA_GRID.shape))

    def test_repr(self):
        assert "RDPAccountant" in repr(RDPAccountant(1.0, 1e-6))


class TestRDPSpendMany:
    COSTS = [(0.2, 1e-8)] * 4 + [(0.1, 0.0)] * 3 + [(0.3, 1e-7)]

    def test_batch_bit_identical_to_loop(self):
        batch = RDPAccountant(10.0, 1e-6)
        realized = []
        batch.spend_many(self.COSTS, realized_out=realized)
        loop = RDPAccountant(10.0, 1e-6)
        loop_realized = []
        for cost in self.COSTS:
            loop.spend(*cost)
            loop_realized.append((loop.spent_epsilon, loop.spent_delta))
        assert np.array_equal(batch.rdp_curve, loop.rdp_curve)
        assert batch.spent_epsilon == loop.spent_epsilon
        assert realized == loop_realized

    def test_all_or_nothing(self):
        accountant = RDPAccountant(1.0, 1e-6)
        accountant.spend(0.2, 1e-8)
        curve_before = accountant.rdp_curve
        with pytest.raises(PrivacyBudgetError, match="batch of"):
            accountant.spend_many([(0.3, 1e-8)] * 200)
        assert accountant.rdp_curve is curve_before

    def test_batch_admits_exactly_what_the_loop_would(self):
        eps, delta, total = 0.5, 1e-8, 4.0
        loop = RDPAccountant(total, 1e-5)
        count = 0
        while loop.can_spend(eps, delta):
            loop.spend(eps, delta)
            count += 1
        batch = RDPAccountant(total, 1e-5)
        batch.spend_many([(eps, delta)] * count)
        assert batch.spent_epsilon == loop.spent_epsilon
        fresh = RDPAccountant(total, 1e-5)
        with pytest.raises(PrivacyBudgetError):
            fresh.spend_many([(eps, delta)] * (count + 1))
        assert fresh.spent_epsilon == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            RDPAccountant(1.0, 1e-6).spend_many([])


class TestMakeAccountantModels:
    def test_rdp_model(self):
        accountant = make_accountant(1.0, 1e-6, model="rdp")
        assert isinstance(accountant, RDPAccountant)
        assert accountant.name == "rdp"

    def test_aliases(self):
        assert isinstance(make_accountant(1.0, 1e-6, model="zcdp"), RDPAccountant)
        assert isinstance(make_accountant(1.0, 1e-6, model="approx"), ApproxDPAccountant)

    def test_rdp_requires_delta(self):
        with pytest.raises(PrivacyBudgetError):
            make_accountant(1.0, 0.0, model="rdp")

    def test_pure_model_rejects_delta(self):
        with pytest.raises(PrivacyBudgetError):
            make_accountant(1.0, 1e-6, model="pure")

    def test_unknown_model(self):
        with pytest.raises(PrivacyBudgetError, match="unknown accountant model"):
            make_accountant(1.0, 1e-6, model="quantum")


class TestEngineIntegration:
    def _engines(self, model):
        data = np.arange(64.0)
        kwargs = dict(
            total_budget=1.0, delta=1e-6, seed=3,
            mechanism_kwargs={"GLM": {"delta": 1e-8}},
        )
        return PrivateQueryEngine(data, accountant=model, **kwargs)

    def test_accountant_string_constructs_rdp(self):
        engine = self._engines("rdp")
        assert isinstance(engine.accountant, RDPAccountant)

    def test_invalid_accountant_argument_rejected(self):
        with pytest.raises(ValidationError):
            PrivateQueryEngine(np.arange(8.0), total_budget=1.0, accountant=42)

    def test_rdp_engine_serves_more_gaussian_releases(self):
        workload = wrange(6, 64, seed=0)
        basic = self._engines("basic")
        rdp = self._engines("rdp")
        basic_plan = basic.plan(workload, mechanism="GLM")
        rdp_plan = rdp.plan(workload, mechanism="GLM")
        cap = 500

        def drain(engine, plan):
            count = 0
            while count < cap and engine.can_execute(plan, 0.05):
                engine.execute(plan, 0.05)
                count += 1
            return count

        basic_count = drain(basic, basic_plan)
        rdp_count = drain(rdp, rdp_plan)
        assert basic_count == 20  # eps-bound: 1.0 / 0.05
        assert rdp_count >= 5 * basic_count

    def test_release_metadata_records_model_and_realized(self):
        engine = self._engines("rdp")
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        first = engine.execute(plan, 0.05)
        second = engine.execute(plan, 0.05)
        assert first.metadata["accountant"] == "rdp"
        assert first.metadata["realized"]["delta"] == 1e-6
        assert first.metadata["realized"]["epsilon"] > 0.0
        assert second.metadata["realized"]["epsilon"] > first.metadata["realized"]["epsilon"]
        # The audit trail mirrors the live ledger after the last charge.
        assert second.metadata["realized"]["epsilon"] == engine.accountant.spent_epsilon

    def test_loop_and_batch_audit_metadata_identical_under_rdp(self):
        workload = wrange(6, 64, seed=0)
        loop_engine = self._engines("rdp")
        batch_engine = self._engines("rdp")
        loop_plan = loop_engine.plan(workload, mechanism="GLM")
        batch_plan = batch_engine.plan(workload, mechanism="GLM")
        epsilons = [0.05, 0.1, 0.05]
        loop = [loop_engine.execute(loop_plan, eps) for eps in epsilons]
        batch = batch_engine.execute_many([(batch_plan, eps) for eps in epsilons])
        assert loop_engine.spent_budget == batch_engine.spent_budget
        for loop_release, batch_release in zip(loop, batch):
            assert loop_release.metadata == batch_release.metadata
            assert loop_release.epsilon == batch_release.epsilon
            assert loop_release.delta == batch_release.delta

    def test_batch_rollback_restores_rdp_curve(self):
        engine = self._engines("rdp")
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        curve_before = np.array(engine.accountant.rdp_curve, copy=True)

        def boom(*args, **kwargs):
            raise RuntimeError("mid-batch failure")

        compiled = plan.compile()
        original = compiled.answer_many
        compiled.answer_many = boom
        try:
            with pytest.raises(RuntimeError):
                engine.execute_many([(plan, 0.05), (plan, 0.05)])
        finally:
            compiled.answer_many = original
        assert np.array_equal(engine.accountant.rdp_curve, curve_before)
        assert engine.spent_budget == 0.0
        assert engine.releases == []


class TestExplainBudget:
    def test_explain_reports_releases_per_budget(self):
        engine = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, delta=1e-6, seed=0,
            mechanism_kwargs={"GLM": {"delta": 1e-8}},
        )
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        report = plan.explain(epsilon=0.05, budget=1.0, budget_delta=1e-6)
        assert "releases/budget" in report
        assert "basic x20" in report
        import re

        match = re.search(r"rdp x(\d+)", report)
        assert match is not None and int(match.group(1)) >= 100

    def test_pure_plan_reports_pure_and_rdp_na_without_delta(self):
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        report = plan.explain(epsilon=0.1, budget=1.0)
        assert "pure x10" in report
        assert "rdp n/a" in report

    def test_pure_plan_with_delta_budget_gets_rdp_count(self):
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        report = plan.explain(epsilon=0.01, budget=1.0, budget_delta=1e-6)
        import re

        match = re.search(r"rdp x(\d+)", report)
        # With a delta budget the comparison column is basic composition
        # (which equals pure counting for delta-free releases).
        assert "basic x100" in report
        assert match is not None and int(match.group(1)) > 100

    def test_no_budget_no_line(self):
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        assert "releases/budget" not in plan.explain(epsilon=0.1)

    @pytest.mark.parametrize("bad_delta", [-0.5, 1.0, 2.0])
    def test_malformed_budget_delta_raises(self, bad_delta):
        # A bad budget_delta must raise like any other explain parameter,
        # not be rendered as an "n/a" capacity column.
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        with pytest.raises(PrivacyBudgetError):
            plan.explain(epsilon=0.1, budget=1.0, budget_delta=bad_delta)
        with pytest.raises(ValidationError):
            plan.explain(epsilon=0.1, budget=-1.0, budget_delta=1e-6)

    def test_budget_delta_without_budget_raises(self):
        # A lone budget_delta would otherwise be silently dropped (no
        # capacity line is rendered without a budget).
        engine = PrivateQueryEngine(np.arange(64.0), total_budget=1.0, seed=0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        with pytest.raises(ValidationError, match="without budget"):
            plan.explain(epsilon=0.1, budget_delta=1e-6)
