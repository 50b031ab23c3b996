"""Tests for the plan/execute API: ExecutionPlan, PlanCache, accountant
routing, and the budget-accounting edge cases of the executor."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.engine import PlanCache, PrivateQueryEngine
from repro.engine.plan import ExecutionPlan, PlanCandidate, build_plan, plan_key
from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.io.serialization import load_plan, save_plan
from repro.mechanisms.baselines import NoiseOnDataMechanism
from repro.privacy.accountant import ApproxDPAccountant, PureDPAccountant
from repro.workloads import wdiscrete, wrange, wrelated

FAST_LRM = {"LRM": {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}}


def _engine(budget=1.0, **kwargs):
    kwargs.setdefault("mechanism_kwargs", FAST_LRM)
    kwargs.setdefault("seed", 0)
    return PrivateQueryEngine(np.arange(64.0), total_budget=budget, **kwargs)


class TestPlanning:
    def test_plan_returns_execution_plan(self):
        plan = _engine().plan(wrange(6, 64, seed=0), mechanism="LM")
        assert isinstance(plan, ExecutionPlan)
        assert plan.mechanism_label == "LM"
        assert plan.mechanism.is_fitted
        assert plan.shape == (6, 64)

    def test_plan_consumes_no_budget(self):
        engine = _engine()
        engine.plan(wrange(6, 64, seed=0))
        assert engine.spent_budget == 0.0

    def test_explain_lists_every_candidate(self):
        engine = _engine(candidates=("LM", "WM", "HM", "NOPE"))
        plan = engine.plan(wrange(6, 64, seed=0))
        report = plan.explain()
        for label in ("LM", "WM", "HM", "NOPE"):
            assert label in report
        assert "<- chosen" in report
        assert "failed" in report  # NOPE is reported, not hidden
        assert len(plan.candidates) == 4

    def test_explain_predicted_error_at_epsilon(self):
        plan = _engine().plan(wrange(6, 64, seed=0), mechanism="LM")
        report = plan.explain(epsilon=0.5)
        assert "eps=0.5" in report
        predicted = plan.predicted_error(0.5)
        assert predicted == pytest.approx(
            plan.mechanism.expected_squared_error(0.5)
        )

    def test_candidates_ranked_ascending(self):
        plan = _engine(candidates=("LM", "WM", "HM")).plan(wrange(6, 64, seed=0))
        errors = [c.expected_error for c in plan.candidates if c.ok]
        assert errors == sorted(errors)
        assert plan.candidates[0].chosen

    def test_all_candidates_fail_raises(self):
        with pytest.raises(ValidationError, match="no usable mechanism"):
            _engine(candidates=("NOPE",)).plan(wrange(6, 64, seed=0))

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="domain"):
            _engine().plan(wrange(4, 32, seed=0))

    def test_instance_not_mutated(self):
        mechanism = NoiseOnDataMechanism()
        plan = _engine().plan(wrange(6, 64, seed=0), mechanism=mechanism)
        assert not mechanism.is_fitted
        assert plan.mechanism is not mechanism
        assert plan.mechanism.is_fitted

    def test_instance_cache_key_stable_across_fitting(self):
        # The old cache keyed on str(mechanism).upper(), which embeds the
        # fitted/unfitted repr — the same instance mapped to a different key
        # after fitting and was silently refit. Instances now key by class
        # name, so unfitted and fitted instances share one plan.
        engine = _engine()
        wl = wrange(6, 64, seed=0)
        unfitted = NoiseOnDataMechanism()
        first = engine.plan(wl, mechanism=unfitted)
        second = engine.plan(wl, mechanism=unfitted)
        assert first is second
        fitted = NoiseOnDataMechanism().fit(wl)
        third = engine.plan(wl, mechanism=fitted)
        assert third is first

    def test_differently_configured_instance_bypasses_cache(self):
        # Same class, different constructor state: the cached plan's noise
        # calibration would be wrong for this instance, so it must get a
        # fresh plan (and the original cache entry must survive).
        engine = _engine()
        wl = wrange(6, 64, seed=0)
        default_plan = engine.plan(wl, mechanism=NoiseOnDataMechanism())
        custom_plan = engine.plan(wl, mechanism=NoiseOnDataMechanism(unit_sensitivity=2.0))
        assert custom_plan is not default_plan
        assert custom_plan.mechanism.unit_sensitivity == 2.0
        assert engine.plan(wl, mechanism=NoiseOnDataMechanism()) is default_plan

    def test_plan_key_spec_components(self):
        # Layout: workload prefix | mechanism spec | 12-hex privacy digest.
        wl = wrange(6, 64, seed=0)
        prefix = re.escape(f"6x64:{wl.content_digest}|")
        digest = r"\|[0-9a-f]{12}"
        assert re.fullmatch(prefix + "LM" + digest, plan_key(wl, "lm"))
        assert re.fullmatch(
            prefix + "instance:NoiseOnDataMechanism" + digest,
            plan_key(wl, NoiseOnDataMechanism()),
        )
        auto = plan_key(wl, "auto", candidates=("LM", "WM"))
        assert re.fullmatch(prefix + re.escape("auto[LM,WM]") + digest, auto)
        # Case-insensitive labels share the key; the plan carries it.
        assert plan_key(wl, "lm") == plan_key(wl, "LM")
        assert build_plan(wl, mechanism="lm").plan_key == plan_key(wl, "LM")
        assert build_plan(wl, mechanism="auto", candidates=("LM", "WM")).plan_key == auto

    def test_prepare_returns_cached_plan_mechanism(self):
        engine = _engine()
        wl = wrelated(8, 64, s=2, seed=1)
        first = engine.plan(wl, mechanism="LRM").mechanism
        second = engine.plan(wl, mechanism="LRM").mechanism
        assert first is second
        assert first is engine.plan(wl, mechanism="LRM").mechanism

    def test_use_cache_false_replans(self):
        engine = _engine()
        wl = wrange(6, 64, seed=0)
        first = engine.plan(wl, mechanism="LM")
        second = engine.plan(wl, mechanism="LM", use_cache=False)
        assert first is not second

    def test_explain_rank_skips_failed_candidates(self):
        plan = _engine(candidates=("LM", "NOPE", "WM")).plan(wrange(6, 64, seed=0))
        # Force a failed candidate between two successes in display order.
        plan = ExecutionPlan(
            mechanism=plan.mechanism,
            mechanism_label=plan.mechanism_label,
            mechanism_spec=plan.mechanism_spec,
            workload_key=plan.workload_key,
            epsilon_hint=plan.epsilon_hint,
            candidates=[
                PlanCandidate("LM", expected_error=1.0, chosen=True),
                PlanCandidate("NOPE", failure="unknown mechanism"),
                PlanCandidate("WM", expected_error=2.0),
            ],
        )
        report = plan.explain()
        assert "1. LM" in report
        assert "x. NOPE" in report
        assert "2. WM" in report  # not rank 3: failures don't consume ranks

    def test_explain_no_closed_form_candidate_is_not_a_failure(self):
        # A chosen mechanism without an analytic error formula must render
        # as "no closed form", not as a failed candidate.
        from repro.mechanisms.base import Mechanism

        class EmpiricalOnly(Mechanism):
            name = "EMP"

            def _answer(self, x, epsilon, rng):
                return self.workload.answer(x)

        plan = _engine().plan(wrange(6, 64, seed=0), mechanism=EmpiricalOnly())
        report = plan.explain()
        assert "no closed form" in report
        assert "<- chosen" in report
        assert "failed" not in report

    def test_build_plan_standalone(self):
        plan = build_plan(wrange(6, 64, seed=0).matrix, mechanism="LM")
        assert plan.mechanism_label == "LM"
        assert plan.epsilon_hint == 0.1


class TestExecution:
    def test_execute_release_fields(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        release = engine.execute(plan, 0.25, non_negative=True)
        assert release.answers.shape == (6,)
        assert release.epsilon == 0.25
        assert release.delta == 0.0
        assert release.workload_key == plan.workload_key
        assert release.metadata["postprocess"] == {
            "non_negative": True, "integral": False, "consistent": False,
        }
        assert release.metadata["plan_key"] == plan.plan_key
        assert release.metadata["accountant"] == "pure-dp"
        assert engine.remaining_budget == pytest.approx(0.75)

    def test_execute_requires_plan(self):
        engine = _engine()
        with pytest.raises(ValidationError, match="ExecutionPlan"):
            engine.execute(wrange(6, 64, seed=0), 0.1)

    def test_rejected_release_leaves_audit_log_untouched(self):
        engine = _engine(budget=0.3)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        engine.execute(plan, 0.2)
        with pytest.raises(PrivacyBudgetError):
            engine.execute(plan, 0.2)
        assert len(engine.releases) == 1
        assert engine.spent_budget == pytest.approx(0.2)

    def test_exact_exhaustion_releases(self):
        engine = _engine(budget=0.3)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        for _ in range(3):
            engine.execute(plan, 0.1)
        assert engine.remaining_budget == 0.0
        assert len(engine.releases) == 3
        with pytest.raises(PrivacyBudgetError):
            engine.execute(plan, 1e-9)
        assert len(engine.releases) == 3

    def test_execute_many_atomic_success(self):
        engine = _engine(budget=0.5)
        plan_a = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        plan_b = engine.plan(wrange(4, 64, seed=1), mechanism="WM")
        releases = engine.execute_many([(plan_a, 0.25), (plan_b, 0.25)])
        assert [r.mechanism for r in releases] == ["LM", "WM"]
        assert engine.remaining_budget == 0.0
        assert len(engine.releases) == 2

    def test_execute_many_atomic_rejection(self):
        engine = _engine(budget=0.5)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        with pytest.raises(PrivacyBudgetError):
            engine.execute_many([(plan, 0.3), (plan, 0.3)])
        # Nothing spent, nothing released.
        assert engine.spent_budget == 0.0
        assert engine.releases == []

    def test_execute_many_per_request_postprocess(self):
        engine = _engine(budget=1.0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        plain, rounded = engine.execute_many(
            [(plan, 0.2), (plan, 0.2, {"integral": True, "non_negative": True})]
        )
        assert plain.metadata["postprocess"]["integral"] is False
        assert rounded.metadata["postprocess"]["integral"] is True
        assert np.allclose(rounded.answers, np.round(rounded.answers))
        assert np.all(rounded.answers >= 0)

    def test_execute_many_rejects_unknown_switch(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        with pytest.raises(ValidationError, match="unknown post-processing"):
            engine.execute_many([(plan, 0.1, {"nonneg": True})])
        assert engine.spent_budget == 0.0

    def test_execute_many_rejects_malformed_requests(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        for bad in ([plan], [(plan,)], [(plan, 0.1, ["integral"])], [(plan, 0.1, True)]):
            with pytest.raises(ValidationError):
                engine.execute_many(bad)
        assert engine.spent_budget == 0.0
        assert engine.releases == []

    def test_execute_many_validates_before_spending(self):
        engine = _engine(budget=1.0)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        with pytest.raises(ValidationError):
            engine.execute_many([(plan, 0.1), ("not a plan", 0.1)])
        assert engine.spent_budget == 0.0
        assert engine.releases == []

    def test_execute_rolls_back_on_build_failure(self):
        # A release-build failure after the charge (the noise is discarded
        # unexposed) must restore the ledger instead of burning budget with
        # no audit entry.
        from repro.mechanisms.base import Mechanism

        class Exploding(Mechanism):
            name = "BOOM"

            def _answer(self, x, epsilon, rng):
                raise RuntimeError("boom")

        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism=Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            engine.execute(plan, 0.3)
        assert engine.spent_budget == 0.0
        assert engine.releases == []

    def test_execute_many_rolls_back_on_mid_batch_failure(self):
        # All-or-nothing also when producing a release fails after the
        # charge: the ledger is restored and the audit log stays untouched.
        from repro.mechanisms.base import Mechanism

        class Exploding(Mechanism):
            name = "BOOM"

            def _answer(self, x, epsilon, rng):
                raise RuntimeError("boom")

        engine = _engine(budget=1.0)
        good = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        bad = engine.plan(wrange(6, 64, seed=0), mechanism=Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            engine.execute_many([(good, 0.1), (bad, 0.1)])
        assert engine.spent_budget == 0.0
        assert engine.releases == []

    def test_execute_many_empty_rejected(self):
        with pytest.raises(ValidationError):
            _engine().execute_many([])

    def test_reproducible_across_engines(self):
        def run():
            engine = _engine()
            plan = engine.plan(wrange(4, 64, seed=0), mechanism="LM")
            return engine.execute(plan, 0.5).answers

        assert np.allclose(run(), run())


class TestDeltaRouting:
    def test_delta_engine_uses_approx_accountant(self):
        engine = _engine(delta=1e-6)
        assert isinstance(engine.accountant, ApproxDPAccountant)
        assert engine.delta == 1e-6
        # Gaussian candidates join the default auto pool.
        for label in ("GLM", "GNOR", "GLRM"):
            assert label in engine.candidates

    def test_pure_engine_uses_pure_accountant(self):
        engine = _engine()
        assert isinstance(engine.accountant, PureDPAccountant)
        assert "GLM" not in engine.candidates

    def test_gaussian_release_tracks_eps_delta(self):
        engine = _engine(delta=1e-6)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        assert plan.requires_delta
        assert plan.delta == 1e-6  # engine delta injected into the mechanism
        release = engine.execute(plan, 0.3)
        assert release.delta == 1e-6
        assert release.metadata["accountant"] == "approx-dp"
        assert engine.spent_delta == pytest.approx(1e-6)
        assert engine.spent_budget == pytest.approx(0.3)

    def test_can_execute_knows_the_plan_delta(self):
        # The guard-then-execute pattern must be reliable: can_answer only
        # sees epsilon, but can_execute charges exactly what execute would,
        # including the Gaussian plan's per-release delta.
        engine = _engine(delta=1e-6)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        assert engine.can_execute(plan, 0.1)
        engine.execute(plan, 0.1)  # exhausts the delta pool by design
        assert engine.can_answer(0.1)  # eps-only view still says yes...
        assert not engine.can_execute(plan, 0.1)  # ...the plan-aware guard says no
        with pytest.raises(PrivacyBudgetError):
            engine.execute(plan, 0.1)

    def test_can_execute_is_a_predicate_not_a_validator(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        assert not engine.can_execute("not a plan", 0.1)
        assert not engine.can_execute(plan, -1.0)

    def test_pure_release_on_delta_engine_spends_no_delta(self):
        engine = _engine(delta=1e-6)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        release = engine.execute(plan, 0.3)
        assert release.delta == 0.0
        assert engine.spent_delta == 0.0

    def test_pure_engine_rejects_gaussian_release(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        with pytest.raises(PrivacyBudgetError, match="pure eps-DP"):
            engine.execute(plan, 0.3)
        assert engine.releases == []
        assert engine.spent_budget == 0.0

    def test_delta_budget_exhaustion(self):
        engine = _engine(delta=1e-6)
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="GLM")
        engine.execute(plan, 0.1)
        with pytest.raises(PrivacyBudgetError):
            engine.execute(plan, 0.1)  # delta pool exhausted
        assert len(engine.releases) == 1

    def test_can_answer_with_delta(self):
        engine = _engine(delta=1e-6)
        assert engine.can_answer(0.5, delta=1e-6)
        assert not engine.can_answer(0.5, delta=1e-5)


class TestPlanSerialization:
    def test_roundtrip_cheap_mechanism(self, tmp_path):
        plan = build_plan(wrange(6, 64, seed=0), mechanism="LM")
        path = tmp_path / "lm.plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored.mechanism_label == "LM"
        assert restored.workload_key == plan.workload_key
        assert restored.epsilon_hint == plan.epsilon_hint
        assert [c.label for c in restored.candidates] == [c.label for c in plan.candidates]
        assert restored.predicted_error(0.5) == pytest.approx(plan.predicted_error(0.5))

    def test_roundtrip_lrm_keeps_decomposition(self, tmp_path):
        plan = build_plan(
            wrelated(8, 64, s=2, seed=1), mechanism="LRM", mechanism_kwargs=FAST_LRM
        )
        path = tmp_path / "lrm.plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert np.array_equal(
            restored.mechanism.decomposition.b, plan.mechanism.decomposition.b
        )
        assert np.array_equal(
            restored.mechanism.decomposition.l, plan.mechanism.decomposition.l
        )
        x = np.arange(64.0)
        assert np.allclose(
            restored.mechanism.answer(x, 0.5, rng=7), plan.mechanism.answer(x, 0.5, rng=7)
        )

    def test_roundtrip_gaussian_keeps_delta(self, tmp_path):
        plan = build_plan(
            wrange(6, 64, seed=0), mechanism="GLM",
            mechanism_kwargs={"GLM": {"delta": 1e-5}},
        )
        path = tmp_path / "glm.plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored.delta == 1e-5
        assert restored.requires_delta

    def test_glrm_plan_from_delta_engine_reloads(self, tmp_path):
        # Regression: the engine injects delta into GLRM's fit_kwargs, and
        # load_plan also passes the stored delta explicitly — the reload
        # must not die on a duplicate 'delta' keyword.
        engine = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, delta=1e-6, seed=0,
            plan_cache=tmp_path / "plans",
            mechanism_kwargs={"GLRM": dict(FAST_LRM["LRM"])},
        )
        plan = engine.plan(wrelated(8, 64, s=2, seed=1), mechanism="GLRM")
        assert plan.fit_kwargs["delta"] == 1e-6
        fresh = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, delta=1e-6, seed=0,
            plan_cache=tmp_path / "plans",
        )
        reloaded = fresh.plan(wrelated(8, 64, s=2, seed=1), mechanism="GLRM")
        assert fresh.plan_cache.disk_hits == 1
        assert reloaded.delta == 1e-6
        assert np.array_equal(
            reloaded.mechanism.decomposition.b, plan.mechanism.decomposition.b
        )

    @staticmethod
    def _tamper(path, name, mutate):
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload[name] = mutate(payload[name])
        np.savez_compressed(path, **payload)

    def test_dtype_swapped_arrays_rejected(self, tmp_path):
        # Same raw bytes, different dtype: l.view(int64) leaves the buffer
        # identical, so the digest must cover the dtype — a reinterpreted L
        # yields a garbage sensitivity (crafted bits could under-noise).
        plan = build_plan(
            wrelated(8, 64, s=2, seed=1), mechanism="LRM", mechanism_kwargs=FAST_LRM
        )
        path = tmp_path / "lrm.plan.npz"
        save_plan(plan, path)
        self._tamper(path, "l", lambda l: l.view(np.int64))
        with pytest.raises(ValidationError, match="integrity"):
            load_plan(path)

    def test_tampered_workload_rejected(self, tmp_path):
        plan = build_plan(wdiscrete(6, 64, seed=0), mechanism="LM")
        path = tmp_path / "lm.plan.npz"
        save_plan(plan, path)
        self._tamper(path, "workload", lambda w: w + 1.0)
        with pytest.raises(ValidationError, match="integrity"):
            load_plan(path)

    def test_tampered_operator_workload_rejected(self, tmp_path):
        # Implicit workloads archive their operator arrays instead of a
        # dense matrix; shifting an interval endpoint (still in-range, so
        # the operator itself reconstructs) must fail the digest check.
        plan = build_plan(wrange(6, 64, seed=0), mechanism="LM")
        path = tmp_path / "lm.plan.npz"
        save_plan(plan, path)
        self._tamper(path, "op_lows", lambda lows: np.zeros_like(lows))
        with pytest.raises(ValidationError, match="integrity"):
            load_plan(path)

    def test_tampered_decomposition_rejected(self, tmp_path):
        # Shrinking L's column norms would mis-calibrate the noise scale —
        # the integrity check must cover the strategy arrays, not just W.
        plan = build_plan(
            wrelated(8, 64, s=2, seed=1), mechanism="LRM", mechanism_kwargs=FAST_LRM
        )
        path = tmp_path / "lrm.plan.npz"
        save_plan(plan, path)
        self._tamper(path, "l", lambda l: l * 0.01)
        with pytest.raises(ValidationError, match="integrity"):
            load_plan(path)

    def test_default_instance_plan_is_serializable(self, tmp_path):
        # A default-constructed registry instance refits identically, so it
        # may be persisted.
        plan = build_plan(wrange(6, 64, seed=0), mechanism=NoiseOnDataMechanism())
        path = tmp_path / "lm.plan.npz"
        save_plan(plan, path)
        assert load_plan(path).mechanism_label == "LM"

    def test_customized_instance_plan_roundtrips_state(self, tmp_path):
        # Regression: constructor state of instance-built plans is captured
        # in fit_kwargs, so the restored mechanism keeps its calibration
        # (a refit with defaults would silently change the noise scale).
        plan = build_plan(
            wrange(6, 64, seed=0), mechanism=NoiseOnDataMechanism(unit_sensitivity=2.0)
        )
        path = tmp_path / "custom.plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored.mechanism.unit_sensitivity == 2.0
        assert restored.predicted_error(0.5) == pytest.approx(plan.predicted_error(0.5))

    def test_customized_auto_candidate_persists_state(self, tmp_path):
        # Same guarantee through the auto pool: the winning instance's
        # unit_sensitivity=2.0 survives the disk round trip.
        cache = PlanCache(directory=tmp_path / "plans")
        engine = PrivateQueryEngine(
            np.arange(64.0), total_budget=1.0, seed=0, plan_cache=cache,
            candidates=(NoiseOnDataMechanism(unit_sensitivity=2.0),),
        )
        plan = engine.plan(wrange(6, 64, seed=0))
        assert plan.mechanism.unit_sensitivity == 2.0
        fresh = PlanCache(directory=tmp_path / "plans")
        restored = fresh.get(plan.plan_key)
        assert restored is not None
        assert restored.mechanism.unit_sensitivity == 2.0

    def test_lrm_instance_plan_roundtrips_constructor_state(self, tmp_path):
        # The restored LowRankMechanism must carry the instance's solver
        # configuration, not defaults — the instance spec's privacy digest
        # covers that state, so a restored plan must still match it (and a
        # default-instance caller must not be served this decomposition).
        from repro.core.lrm import LowRankMechanism

        custom = LowRankMechanism(gamma=0.5, **FAST_LRM["LRM"])
        plan = build_plan(wrelated(8, 64, s=2, seed=1), mechanism=custom)
        path = tmp_path / "lrm-custom.plan.npz"
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored.mechanism.gamma == 0.5
        assert restored.mechanism.max_outer == FAST_LRM["LRM"]["max_outer"]
        assert np.array_equal(
            restored.mechanism.decomposition.b, plan.mechanism.decomposition.b
        )

    def test_lrm_instance_with_foreign_attrs_rejected(self, tmp_path):
        # A foreign public attribute would persist an archive load_plan can
        # never rebuild (unexpected constructor kwarg) — the save gate must
        # reject it so the disk cache degrades to memory-only instead of
        # silently refitting on every restart.
        from repro.core.lrm import LowRankMechanism

        annotated = LowRankMechanism(**FAST_LRM["LRM"])
        annotated.note = "analyst"
        plan = build_plan(wrelated(8, 64, s=2, seed=1), mechanism=annotated)
        with pytest.raises(ValidationError, match="not serializable"):
            save_plan(plan, tmp_path / "annotated.plan.npz")

    def test_lrm_subclass_plan_rejected(self, tmp_path):
        # An unknown low-rank subclass must not round-trip into a base-class
        # mechanism with differently-calibrated noise.
        from repro.core.lrm import LowRankMechanism

        class L2Variant(LowRankMechanism):
            decomposition_norm = "l2"

        plan = build_plan(
            wrelated(8, 64, s=2, seed=1),
            mechanism=L2Variant(**FAST_LRM["LRM"]),
        )
        with pytest.raises(ValidationError, match="not serializable"):
            save_plan(plan, tmp_path / "l2.plan.npz")

    def test_lowrank_archive_missing_arrays_rejected(self, tmp_path):
        # Stripping b/l must not silently fall through to a full refit.
        plan = build_plan(
            wrelated(8, 64, s=2, seed=1), mechanism="LRM", mechanism_kwargs=FAST_LRM
        )
        path = tmp_path / "lrm.plan.npz"
        save_plan(plan, path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload.pop("b")
        payload.pop("l")
        np.savez_compressed(path, **payload)
        with pytest.raises(ValidationError, match="integrity"):
            load_plan(path)

    def test_workload_key_mismatch_rejected(self, tmp_path):
        import json

        plan = build_plan(wrange(6, 64, seed=0), mechanism="LM")
        path = tmp_path / "lm.plan.npz"
        save_plan(plan, path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        metadata = json.loads(bytes(payload["metadata"].tobytes()).decode())
        metadata["plan"]["workload_key"] = "6x64:" + "0" * 40
        payload["metadata"] = np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValidationError, match="workload_key"):
            load_plan(path)

    def test_unfitted_plan_rejected(self, tmp_path):
        plan = build_plan(wrange(6, 64, seed=0), mechanism="LM")
        plan.mechanism._workload = None
        with pytest.raises(ValidationError, match="fitted"):
            save_plan(plan, tmp_path / "unfitted.plan.npz")


class TestPlanCache:
    def test_memory_cache_reuse(self):
        engine = _engine()
        wl = wrelated(8, 64, s=2, seed=1)
        first = engine.plan(wl, mechanism="LRM")
        second = engine.plan(wl, mechanism="LRM")
        assert first is second
        assert engine.plan_cache.hits == 1

    def test_disk_roundtrip_identical_answers(self, tmp_path):
        # The acceptance path: plan in one engine, persist, load in a fresh
        # engine ("new process"), execute — identical answers under a fixed
        # seed, with no refit.
        data = np.arange(64.0)
        wl = wrelated(8, 64, s=2, seed=1)
        first = PrivateQueryEngine(
            data, total_budget=1.0, mechanism_kwargs=FAST_LRM, seed=3,
            plan_cache=tmp_path / "plans",
        )
        plan = first.plan(wl, mechanism="LRM")
        assert (tmp_path / "plans").exists()

        fresh = PrivateQueryEngine(
            data, total_budget=1.0, seed=3, plan_cache=tmp_path / "plans",
        )
        reloaded = fresh.plan(wl, mechanism="LRM")
        assert fresh.plan_cache.disk_hits == 1
        # Identical fitted state (no refit: fresh lacks FAST_LRM kwargs, so a
        # refit would have produced a different decomposition).
        assert np.array_equal(
            reloaded.mechanism.decomposition.b, plan.mechanism.decomposition.b
        )
        assert np.allclose(
            first.execute(plan, 0.5).answers, fresh.execute(reloaded, 0.5).answers
        )

    def test_shared_cache_instance(self):
        cache = PlanCache()
        wl = wrange(6, 64, seed=0)
        engine_a = _engine(plan_cache=cache)
        engine_b = _engine(plan_cache=cache)
        plan = engine_a.plan(wl, mechanism="LM")
        assert engine_b.plan(wl, mechanism="LM") is plan

    def test_registry_instance_with_foreign_attrs_degrades_to_memory(self, tmp_path):
        # Extra public attributes the constructor does not accept must not
        # crash planning with a disk cache — the refit gate rejects them
        # (TypeError from the constructor) and the plan stays memory-only.
        cache = PlanCache(directory=tmp_path / "plans")
        engine = _engine(plan_cache=cache)
        annotated = NoiseOnDataMechanism()
        annotated.note = "analyst"
        plan = engine.plan(wrange(6, 64, seed=0), mechanism=annotated)
        assert plan.mechanism_label == "LM"
        assert not list((tmp_path / "plans").glob("*.plan.npz"))

    def test_unserializable_plan_degrades_to_memory(self, tmp_path):
        from repro.mechanisms.base import Mechanism

        class OffRegistry(Mechanism):
            name = "OFFREG"

            def _answer(self, x, epsilon, rng):
                return self.workload.answer(x)

        cache = PlanCache(directory=tmp_path / "plans")
        engine = _engine(plan_cache=cache)
        wl = wrange(6, 64, seed=0)
        custom = OffRegistry()
        plan = engine.plan(wl, mechanism=custom)
        assert engine.plan(wl, mechanism=custom) is plan
        assert not list((tmp_path / "plans").glob("*.npz"))

    def test_contains_len_clear(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "plans")
        engine = _engine(plan_cache=cache)
        wl = wrange(6, 64, seed=0)
        engine.plan(wl, mechanism="LM")
        key = plan_key(wl, "LM")
        assert key in cache
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert key in cache  # still on disk
        cache.clear(disk=True)
        assert key not in cache

    def test_put_rejects_non_plan(self):
        with pytest.raises(ValidationError):
            PlanCache().put("key", object())

    def test_array_attr_instance_cache_reuse(self):
        # Constructor state with ndarray values (a strategy matrix) must
        # key by content, not identity — else every plan() call misses
        # the cache and refits.
        from repro.mechanisms.strategy import StrategyMechanism

        engine = _engine()
        wl = wrange(6, 64, seed=0)
        first = engine.plan(wl, mechanism=StrategyMechanism(np.eye(64)))
        second = engine.plan(wl, mechanism=StrategyMechanism(np.eye(64)))
        assert first is second
        different = engine.plan(wl, mechanism=StrategyMechanism(2.0 * np.eye(64)))
        assert different is not first

    def test_stale_format_version_treated_as_miss(self, tmp_path):
        import json

        cache = PlanCache(directory=tmp_path / "plans")
        engine = _engine(plan_cache=cache)
        wl = wrange(6, 64, seed=0)
        plan = engine.plan(wl, mechanism="LM")
        path = cache.path_for(plan.plan_key)
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        metadata = json.loads(bytes(payload["metadata"].tobytes()).decode())
        metadata["plan_format_version"] = 99
        payload["metadata"] = np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8)
        np.savez_compressed(path, **payload)
        fresh = PlanCache(directory=tmp_path / "plans")
        assert fresh.get(plan.plan_key) is None  # stale != broken
        # A fresh engine simply replans and overwrites the stale archive.
        replanned = _engine(plan_cache=fresh).plan(wl, mechanism="LM")
        assert replanned.mechanism_label == "LM"

    def test_corrupt_archive_treated_as_miss(self, tmp_path):
        # A truncated/garbage archive (crashed writer) must not poison the
        # cache: plan() replans and overwrites instead of crashing forever.
        cache = PlanCache(directory=tmp_path / "plans")
        wl = wrange(6, 64, seed=0)
        key = plan_key(wl, "LM")
        (tmp_path / "plans").mkdir(parents=True)
        cache.path_for(key).write_bytes(b"not a zip archive")
        engine = _engine(plan_cache=cache)
        plan = engine.plan(wl, mechanism="LM")
        assert plan.mechanism_label == "LM"
        # The bad file was replaced by a loadable archive.
        fresh = PlanCache(directory=tmp_path / "plans")
        assert fresh.get(key) is not None

    def test_corrupt_archive_is_quarantined_with_warning(self, tmp_path, caplog):
        # The unreadable bytes are preserved for post-mortem (renamed to
        # *.corrupt) and a warning names the archive — corruption must be
        # visible, not silently papered over by the refit.
        import logging

        cache = PlanCache(directory=tmp_path / "plans")
        wl = wrange(6, 64, seed=0)
        key = plan_key(wl, "LM")
        (tmp_path / "plans").mkdir(parents=True)
        path = cache.path_for(key)
        path.write_bytes(b"not a zip archive")
        with caplog.at_level(logging.WARNING, logger="repro.engine.plan_cache"):
            assert cache.get(key) is None
        assert "unreadable archive" in caplog.text
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_bytes() == b"not a zip archive"
        # The refit lands at the original path; the quarantine file stays
        # until clear(disk=True).
        _engine(plan_cache=cache).plan(wl, mechanism="LM")
        assert PlanCache(directory=tmp_path / "plans").get(key) is not None
        assert quarantined.exists()
        cache.clear(disk=True)
        assert not quarantined.exists()

    def test_rename_failure_degrades_to_memory(self, tmp_path, monkeypatch):
        # os.replace can fail after a successful staging write (e.g. a
        # concurrent reader holding the target open on Windows); put() must
        # keep the memory entry instead of failing the planning call.
        import repro.engine.plan_cache as plan_cache_module

        cache = PlanCache(directory=tmp_path / "plans")
        engine = _engine(plan_cache=cache)

        def refuse(src, dst):
            raise PermissionError("target held open by a concurrent reader")

        monkeypatch.setattr(plan_cache_module.os, "replace", refuse)
        wl = wrange(6, 64, seed=0)
        plan = engine.plan(wl, mechanism="LM")
        assert engine.plan(wl, mechanism="LM") is plan
        assert not list((tmp_path / "plans").glob("*.plan.npz"))
        assert not list((tmp_path / "plans").glob("*.tmp.npz"))

    def test_no_stale_staging_files(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "plans")
        _engine(plan_cache=cache).plan(wrange(6, 64, seed=0), mechanism="LM")
        assert not list((tmp_path / "plans").glob("*.tmp.npz"))


class TestPlanCacheLRU:
    def _plans(self, engine, count):
        workloads = [wrange(3 + index, 64, seed=index) for index in range(count)]
        return workloads, [engine.plan(wl, mechanism="LM") for wl in workloads]

    def test_evicts_oldest_past_cap(self):
        cache = PlanCache(max_entries=2)
        engine = _engine(plan_cache=cache)
        workloads, plans = self._plans(engine, 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        first_key = plan_key(workloads[0], "LM")
        assert first_key not in cache.keys()
        # The evicted plan refits on next use (memory-only cache).
        assert engine.plan(workloads[0], mechanism="LM") is not plans[0]

    def test_get_refreshes_recency(self):
        cache = PlanCache(max_entries=2)
        engine = _engine(plan_cache=cache)
        workloads, plans = self._plans(engine, 2)
        assert engine.plan(workloads[0], mechanism="LM") is plans[0]  # touch oldest
        engine.plan(wrange(9, 64, seed=9), mechanism="LM")  # forces one eviction
        # The recently-touched entry survived; the untouched one was evicted.
        assert plan_key(workloads[0], "LM") in cache.keys()
        assert plan_key(workloads[1], "LM") not in cache.keys()

    def test_eviction_leaves_disk_archives_intact(self, tmp_path):
        cache = PlanCache(directory=tmp_path / "plans", max_entries=1)
        engine = _engine(plan_cache=cache)
        workloads, plans = self._plans(engine, 2)
        assert len(cache) == 1
        assert len(list((tmp_path / "plans").glob("*.plan.npz"))) == 2
        # The evicted entry reloads from its archive — no refit.
        disk_hits_before = cache.disk_hits
        reloaded = engine.plan(workloads[0], mechanism="LM")
        assert cache.disk_hits == disk_hits_before + 1
        assert reloaded.workload_key == plans[0].workload_key

    def test_unbounded_by_default(self):
        cache = PlanCache()
        engine = _engine(plan_cache=cache)
        self._plans(engine, 4)
        assert len(cache) == 4
        assert cache.evictions == 0

    def test_max_entries_validated(self):
        with pytest.raises(ValidationError):
            PlanCache(max_entries=0)


class _FakeClock:
    """Stand-in for the ``time`` module inside ``plan_cache``: only
    ``time()`` is consulted by the staleness gates."""

    def __init__(self, now):
        self.now = float(now)

    def time(self):
        return self.now


class TestPlanCacheStaleness:
    """TTL + solver-version provenance gates (disk-tier freshness)."""

    def _plan(self):
        from repro.engine.plan import build_plan

        return build_plan(wrange(4, 16, seed=0), epsilon_hint=0.1, mechanism="LM")

    def _patch_clock(self, monkeypatch, start=None):
        import time as real_time

        import repro.engine.plan_cache as plan_cache_module

        clock = _FakeClock(real_time.time() if start is None else start)
        monkeypatch.setattr(plan_cache_module, "time", clock)
        return clock

    def test_ttl_expires_memory_entry(self, monkeypatch):
        clock = self._patch_clock(monkeypatch)
        cache = PlanCache(ttl_seconds=60)
        plan = self._plan()
        cache.put(plan.plan_key, plan)
        assert cache.get(plan.plan_key) is plan
        clock.now += 120
        assert cache.get(plan.plan_key) is None
        assert cache.expirations == 1
        assert len(cache) == 0  # the stale memory entry was dropped

    def test_ttl_expires_disk_archive(self, tmp_path, monkeypatch):
        plan = self._plan()
        writer = PlanCache(directory=tmp_path / "plans")
        writer.put(plan.plan_key, plan)

        clock = self._patch_clock(monkeypatch)
        reader = PlanCache(directory=tmp_path / "plans", ttl_seconds=60)
        clock.now += 120
        assert reader.get(plan.plan_key) is None
        assert reader.expirations == 1
        # The refit's put() overwrites the stale archive, after which the
        # entry is fresh again.
        reader.put(plan.plan_key, plan)
        assert reader.get(plan.plan_key) is plan

    def test_promoted_disk_hit_inherits_archive_stamp(self, tmp_path, monkeypatch):
        # A disk hit promoted into memory must expire on the *archive's*
        # schedule, not live a fresh TTL from the promotion instant.
        plan = self._plan()
        writer = PlanCache(directory=tmp_path / "plans")
        writer.put(plan.plan_key, plan)

        clock = self._patch_clock(monkeypatch)
        reader = PlanCache(directory=tmp_path / "plans", ttl_seconds=100)
        clock.now += 60
        assert reader.get(plan.plan_key) is not None  # promoted, 60s old
        clock.now += 60  # now 120s past save: expired even though promoted at 60s
        assert reader.get(plan.plan_key) is None
        assert reader.expirations >= 1

    def test_old_solver_version_misses(self, tmp_path):
        from repro.core.alm import SOLVER_VERSION

        plan = self._plan()
        writer = PlanCache(directory=tmp_path / "plans")
        writer.put(plan.plan_key, plan)

        strict = PlanCache(
            directory=tmp_path / "plans", min_solver_version=SOLVER_VERSION + 1
        )
        assert strict.get(plan.plan_key) is None
        assert strict.expirations == 1 and strict.misses == 1

        accepting = PlanCache(
            directory=tmp_path / "plans", min_solver_version=SOLVER_VERSION
        )
        assert accepting.get(plan.plan_key) is not None
        assert accepting.disk_hits == 1

    def test_pre_provenance_archive_reads_as_version_zero(self, tmp_path):
        import numpy as np_module

        from repro.io.serialization import plan_archive_info, save_plan

        plan = self._plan()
        path = tmp_path / "old.plan.npz"
        save_plan(plan, path)
        # Strip the provenance fields the way an old-library archive lacks
        # them entirely.
        with np_module.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        metadata = json.loads(bytes(payload["metadata"].tobytes()).decode("utf-8"))
        metadata.pop("solver_version", None)
        metadata.pop("saved_at", None)
        payload["metadata"] = np_module.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np_module.uint8
        )
        np_module.savez(path, **payload)
        info = plan_archive_info(path)
        assert info["solver_version"] == 0
        assert info["saved_at"] is not None  # falls back to the file mtime

    def test_ttl_validated(self):
        with pytest.raises(ValidationError):
            PlanCache(ttl_seconds=0)
        with pytest.raises(ValidationError):
            PlanCache(ttl_seconds=-5)


class TestCacheHitPrivacyGuard:
    """A shared PlanCache must never serve a plan calibrated for another
    engine's privacy configuration (regression for the label/auto cache-hit
    paths, which used to skip the configuration check instance specs get).
    The privacy digest in the plan key enforces this: differently
    configured engines look up different keys."""

    def test_label_hit_with_other_unit_sensitivity_replans(self):
        # An engine declaring unit_sensitivity=2.0 sharing a cache with a
        # default-configured engine must not release the cached
        # sensitivity-1.0 calibration — that would be under-noised for the
        # guarantee it claims, with no error raised anywhere.
        cache = PlanCache()
        wl = wrange(6, 64, seed=0)
        default_engine = _engine(plan_cache=cache)
        sensitive_engine = _engine(
            plan_cache=cache,
            mechanism_kwargs={**FAST_LRM, "LM": {"unit_sensitivity": 2.0}},
        )
        baseline = default_engine.plan(wl, mechanism="LM")
        assert baseline.mechanism.unit_sensitivity == 1.0
        replanned = sensitive_engine.plan(wl, mechanism="LM")
        assert replanned is not baseline
        assert replanned.mechanism.unit_sensitivity == 2.0
        # Each configuration owns its own key: the default engine still
        # gets its own calibration, and each engine keeps getting the
        # right one.
        assert default_engine.plan(wl, mechanism="LM") is baseline
        assert sensitive_engine.plan(wl, mechanism="LM").mechanism.unit_sensitivity == 2.0

    def test_label_hit_guard_is_order_independent(self):
        # Reversed planning order: the default engine must not be served
        # the 2.0-calibrated plan either (over-noised is still the wrong
        # configuration).
        cache = PlanCache()
        wl = wrange(6, 64, seed=0)
        sensitive_engine = _engine(
            plan_cache=cache,
            mechanism_kwargs={**FAST_LRM, "LM": {"unit_sensitivity": 2.0}},
        )
        default_engine = _engine(plan_cache=cache)
        assert sensitive_engine.plan(wl, mechanism="LM").mechanism.unit_sensitivity == 2.0
        assert default_engine.plan(wl, mechanism="LM").mechanism.unit_sensitivity == 1.0

    def test_auto_hit_with_other_unit_sensitivity_replans(self):
        cache = PlanCache()
        wl = wrange(6, 64, seed=0)
        first = _engine(plan_cache=cache, candidates=("LM",)).plan(wl)
        replanned = _engine(
            plan_cache=cache,
            candidates=("LM",),
            mechanism_kwargs={"LM": {"unit_sensitivity": 2.0}},
        ).plan(wl)
        assert replanned is not first
        assert replanned.mechanism.unit_sensitivity == 2.0

    def test_disk_hit_with_other_delta_replans(self, tmp_path):
        # The engine's delta becomes the Gaussian mechanisms' default
        # failure probability; a restarted engine with a different delta
        # must refit rather than reuse the other calibration from disk.
        data = np.arange(64.0)
        wl = wrange(6, 64, seed=0)
        writer = PrivateQueryEngine(
            data, total_budget=1.0, delta=1e-5, seed=0,
            plan_cache=tmp_path / "plans",
        )
        assert writer.plan(wl, mechanism="GLM").mechanism.delta == 1e-5
        reader = PrivateQueryEngine(
            data, total_budget=1.0, delta=1e-7, seed=0,
            plan_cache=tmp_path / "plans",
        )
        assert reader.plan(wl, mechanism="GLM").mechanism.delta == 1e-7

    def test_solver_tuning_difference_still_shares_the_fit(self, tmp_path):
        # The key digests privacy-critical state only: LRM solver knobs
        # change the fit, not the calibration (noise is scaled to the
        # decomposition actually held), so the expensive fit stays shared.
        data = np.arange(64.0)
        wl = wrelated(8, 64, s=2, seed=1)
        tuned = PrivateQueryEngine(
            data, total_budget=1.0, mechanism_kwargs=FAST_LRM, seed=3,
            plan_cache=tmp_path / "plans",
        )
        plan = tuned.plan(wl, mechanism="LRM")
        untuned = PrivateQueryEngine(
            data, total_budget=1.0, seed=3, plan_cache=tmp_path / "plans",
        )
        reloaded = untuned.plan(wl, mechanism="LRM")
        assert untuned.plan_cache.disk_hits == 1
        assert np.array_equal(
            reloaded.mechanism.decomposition.b, plan.mechanism.decomposition.b
        )

    def test_mismatch_one_off_plan_is_memoized_per_engine(self):
        # A differently configured engine must not refit on every plan()
        # call: its plan is cached under its own key and re-served, and
        # the default engine keeps its own.
        cache = PlanCache()
        wl = wrange(6, 64, seed=0)
        default_engine = _engine(plan_cache=cache)
        baseline = default_engine.plan(wl, mechanism="LM")
        tuned = _engine(
            plan_cache=cache,
            mechanism_kwargs={**FAST_LRM, "LM": {"unit_sensitivity": 2.0}},
        )
        one_off = tuned.plan(wl, mechanism="LM")
        assert tuned.plan(wl, mechanism="LM") is one_off
        assert default_engine.plan(wl, mechanism="LM") is baseline

    def test_auto_pool_instance_candidate_keeps_cache_reuse(self):
        # For an auto-pool *instance* candidate the engine's reference
        # configuration is the instance itself, so the engine keeps
        # hitting the plan it built from it.
        engine = _engine(candidates=(NoiseOnDataMechanism(unit_sensitivity=2.0),))
        wl = wrange(6, 64, seed=0)
        first = engine.plan(wl)
        assert first.mechanism.unit_sensitivity == 2.0
        assert engine.plan(wl) is first

    def test_mixed_auto_pool_is_compatible_with_its_own_plans(self):
        # A pool naming both the registry label and a same-named instance
        # with a different privacy configuration could crown either one;
        # the engine must stay compatible with whichever won instead of
        # rejecting its own plan and refitting the pool on every call.
        engine = _engine(
            candidates=("LM", NoiseOnDataMechanism(unit_sensitivity=2.0)),
        )
        wl = wrange(6, 64, seed=0)
        first = engine.plan(wl)
        assert engine.plan(wl) is first

    def test_alternating_mismatched_instances_each_memoized(self):
        # Two instance configurations that both differ from the first
        # must each keep their own plan — the fit is paid once per
        # configuration, not once per call.
        engine = _engine()
        wl = wrange(6, 64, seed=0)
        engine.plan(wl, mechanism=NoiseOnDataMechanism())
        two = engine.plan(wl, mechanism=NoiseOnDataMechanism(unit_sensitivity=2.0))
        three = engine.plan(wl, mechanism=NoiseOnDataMechanism(unit_sensitivity=3.0))
        assert engine.plan(wl, mechanism=NoiseOnDataMechanism(unit_sensitivity=2.0)) is two
        assert engine.plan(wl, mechanism=NoiseOnDataMechanism(unit_sensitivity=3.0)) is three

    def test_epsilon_hint_validated_on_cache_hit(self):
        # Input validation must not depend on cache state: a hit with a
        # bogus epsilon_hint raises exactly like a miss would.
        engine = _engine()
        wl = wrange(6, 64, seed=0)
        engine.plan(wl, mechanism="LM")
        with pytest.raises(ValidationError):
            engine.plan(wl, mechanism="LM", epsilon_hint=-1.0)


#: Every registry label whose mechanism declares ``privacy_params``, with
#: one privacy parameter to change: (label, mechanism_kwargs for it).
PRIVACY_CHANGES = [
    ("LM", {"unit_sensitivity": 2.0}),
    ("NOD", {"unit_sensitivity": 2.0}),
    ("GLM", {"delta": 1e-5}),
    ("GLM", {"unit_sensitivity": 2.0}),
    ("GNOR", {"delta": 1e-5}),
    ("DGNOR", {"delta": 1e-5}),
    ("SUB", {"sample_rate": 0.2}),
    ("SUB", {"delta": 1e-5}),
    ("SUB", {"inner": "GLM", "unit_sensitivity": 2.0}),
    ("GLRM", {"delta": 1e-5}),
]


class TestPlanKeyPrivacyDigest:
    """The privacy configuration is part of the plan key, so the cache
    lookup alone decides which engines may share a plan."""

    def test_parametrization_covers_every_privacy_declaring_label(self):
        from repro.mechanisms.registry import make_mechanism, mechanism_names

        declaring = {
            label for label in mechanism_names() if make_mechanism(label).privacy_params
        }
        assert declaring == {label for label, _ in PRIVACY_CHANGES}

    @pytest.mark.parametrize(
        "label,change", PRIVACY_CHANGES,
        ids=[f"{label}-{'-'.join(change)}" for label, change in PRIVACY_CHANGES],
    )
    def test_privacy_parameter_changes_the_key(self, label, change):
        wl = wrange(6, 64, seed=0)
        default = plan_key(wl, label)
        changed = plan_key(wl, label, mechanism_kwargs={label: change})
        assert changed != default
        # Same layout, same prefix: only the digest moved.
        assert changed.rsplit("|", 1)[0] == default.rsplit("|", 1)[0]
        auto = plan_key(wl, "auto", candidates=(label,))
        assert plan_key(wl, "auto", candidates=(label,),
                        mechanism_kwargs={label: change}) != auto

    @pytest.mark.parametrize("label,tuning", [
        ("LRM", FAST_LRM["LRM"]),
        ("GLRM", FAST_LRM["LRM"]),
        ("MM", {"max_iters": 5}),
    ])
    def test_solver_tuning_keeps_the_key(self, label, tuning):
        wl = wrange(6, 64, seed=0)
        assert plan_key(wl, label, mechanism_kwargs={label: tuning}) == plan_key(wl, label)
        assert plan_key(
            wl, "auto", candidates=("LM", label), mechanism_kwargs={label: tuning}
        ) == plan_key(wl, "auto", candidates=("LM", label))

    def test_unbuildable_pool_entry_is_a_fixed_marker(self):
        wl = wrange(6, 64, seed=0)
        # An unknown label and a label whose kwargs its constructor rejects
        # both contribute the marker instead of raising.
        unknown = plan_key(wl, "auto", candidates=("LM", "NOPE"))
        assert unknown == plan_key(
            wl, "auto", candidates=("LM", "NOPE"), mechanism_kwargs={"NOPE": {"x": 1}}
        )
        plan_key(wl, "auto", candidates=("LM",), mechanism_kwargs={"LM": {"bogus": 1}})
        assert plan_key(
            wl, "auto", candidates=("LM", "WM"), mechanism_kwargs={"WM": {"bogus": 1}}
        ) != plan_key(wl, "auto", candidates=("LM", "WM"))

    def test_instance_key_covers_full_state_arrays_and_nested_mechanisms(self):
        from repro.mechanisms.gaussian import GaussianNoiseOnDataMechanism
        from repro.mechanisms.strategy import StrategyMechanism
        from repro.mechanisms.subsampled import SubsampledMechanism

        wl = wrange(6, 64, seed=0)
        eye = plan_key(wl, StrategyMechanism(np.eye(64)))
        assert plan_key(wl, StrategyMechanism(np.eye(64))) == eye
        assert plan_key(wl, StrategyMechanism(2.0 * np.eye(64))) != eye
        nested = plan_key(wl, SubsampledMechanism(GaussianNoiseOnDataMechanism()))
        assert plan_key(wl, SubsampledMechanism(GaussianNoiseOnDataMechanism())) == nested
        assert plan_key(
            wl, SubsampledMechanism(GaussianNoiseOnDataMechanism(unit_sensitivity=2.0))
        ) != nested

    def test_key_is_the_same_before_and_after_fitting(self):
        wl = wrange(6, 64, seed=0)
        mechanism = NoiseOnDataMechanism(unit_sensitivity=2.0)
        key = plan_key(wl, mechanism)
        mechanism.fit(wl)
        assert plan_key(wl, mechanism) == key

    def test_restarted_engine_with_other_configuration_reuses_its_archive(
        self, tmp_path, monkeypatch
    ):
        # One default engine, then three restarts of a unit_sensitivity=2.0
        # engine on the same directory: each configuration fits once and
        # persists its own archive.
        from repro.engine import query_engine

        calls = []
        real_build_plan = query_engine.build_plan

        def counting_build_plan(*args, **kwargs):
            calls.append(kwargs.get("mechanism"))
            return real_build_plan(*args, **kwargs)

        monkeypatch.setattr(query_engine, "build_plan", counting_build_plan)
        wl = wrange(6, 64, seed=0)
        plans = tmp_path / "plans"
        default = _engine(plan_cache=plans).plan(wl, mechanism="LM")
        assert default.mechanism.unit_sensitivity == 1.0
        for _ in range(3):
            restarted = _engine(
                plan_cache=plans, mechanism_kwargs={"LM": {"unit_sensitivity": 2.0}},
            )
            assert restarted.plan(wl, mechanism="LM").mechanism.unit_sensitivity == 2.0
        assert len(calls) == 2
        assert len(list(plans.glob("*.plan.npz"))) == 2
        assert _engine(plan_cache=plans).plan(wl, mechanism="LM").mechanism.unit_sensitivity == 1.0
        assert len(calls) == 2


PLAN_FIXTURES = Path(__file__).parent / "fixtures" / "plans"


class TestPlanArchiveCompatibility:
    """Only format 4 is written; the committed format-3 archives (see
    ``tests/fixtures/make_v3_plans.py``) still restore the same strategy
    and the same answers."""

    @pytest.mark.parametrize("name", ["lm", "lrm"])
    def test_v3_fixture_restores_the_same_plan(self, name):
        from repro.io.serialization import plan_archive_info

        path = PLAN_FIXTURES / f"v3_{name}.plan.npz"
        assert plan_archive_info(path)["plan_format_version"] == 3
        plan = load_plan(path)
        assert plan.mechanism_label == name.upper()
        with np.load(PLAN_FIXTURES / "v3_expected.npz") as expected:
            if name == "lrm":
                assert np.array_equal(plan.mechanism.decomposition.b, expected["lrm_b"])
                assert np.array_equal(plan.mechanism.decomposition.l, expected["lrm_l"])
            answers = plan.mechanism.answer(
                np.arange(64.0), 0.5, rng=np.random.default_rng(2012)
            )
            np.testing.assert_allclose(answers, expected[f"{name}_answers"], rtol=1e-12)

    @pytest.mark.parametrize("mechanism", ["LM", "LRM", "SUB"])
    def test_every_archive_is_written_as_version_4(self, tmp_path, mechanism):
        from repro.io.serialization import plan_archive_info

        wl = wrelated(8, 64, s=2, seed=1)
        kwargs = {**FAST_LRM, "SUB": {"inner": "GNOR", "sample_rate": 0.25}}
        plan = build_plan(wl, mechanism=mechanism, mechanism_kwargs=kwargs)
        path = tmp_path / "plan.plan.npz"
        save_plan(plan, path)
        assert plan_archive_info(path)["plan_format_version"] == 4
        assert load_plan(path).plan_key == plan.plan_key


class TestReleaseDataclass:
    def test_optional_fields_default(self):
        release_cls_fields = {f.name for f in __import__("dataclasses").fields(
            __import__("repro.engine.query_engine", fromlist=["Release"]).Release
        )}
        assert {"answers", "mechanism", "epsilon", "delta", "expected_error",
                "workload_key", "metadata"} <= release_cls_fields

    def test_expected_error_none_when_no_closed_form(self):
        # Empirical-only mechanisms record None, not a bogus float.
        from repro.mechanisms.base import Mechanism

        class EmpiricalOnly(Mechanism):
            name = "EMP"

            def _answer(self, x, epsilon, rng):
                return self.workload.answer(x)

        engine = _engine()
        release = engine.execute(
            engine.plan(wrange(6, 64, seed=0), mechanism=EmpiricalOnly()), 0.2
        )
        assert release.expected_error is None

    def test_expected_error_float_with_closed_form(self):
        engine = _engine()
        plan = engine.plan(wrange(6, 64, seed=0), mechanism="LM")
        release = engine.execute(plan, 0.2)
        assert isinstance(release.expected_error, float)
