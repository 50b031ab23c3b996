"""Unit tests for the query engine and mechanism selection (the one-shot
plan-then-execute cases; plan-API coverage lives in ``test_plan.py``)."""

import numpy as np
import pytest

from repro.engine.plan import workload_key
from repro.engine.query_engine import PrivateQueryEngine, Release
from repro.engine.selection import (
    DEFAULT_CANDIDATES,
    MechanismChoice,
    rank_mechanisms,
    select_mechanism,
)
from repro.exceptions import PrivacyBudgetError, ValidationError
from repro.mechanisms.baselines import NoiseOnDataMechanism
from repro.workloads import wrange, wrelated

FAST_LRM = {"LRM": {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}}


def answer(engine, workload, epsilon, mechanism="auto", **postprocess):
    """One-shot release: plan ``workload`` at ``epsilon``, then execute it."""
    plan = engine.plan(workload, mechanism=mechanism, epsilon_hint=epsilon)
    return engine.execute(plan, epsilon, **postprocess)


class TestSelection:
    def test_rank_returns_all_candidates(self):
        wl = wrange(6, 32, seed=0)
        choices = rank_mechanisms(wl, 0.1, candidates=("LM", "WM", "HM"))
        assert [c.label for c in choices if c.ok]
        assert len(choices) == 3

    def test_ranked_ascending(self):
        wl = wrange(6, 32, seed=0)
        choices = rank_mechanisms(wl, 0.1, candidates=("LM", "WM", "HM"))
        errors = [c.expected_error for c in choices if c.ok]
        assert errors == sorted(errors)

    def test_failures_sort_last(self):
        wl = wrange(6, 32, seed=0)
        choices = rank_mechanisms(wl, 0.1, candidates=("NOPE", "LM"))
        assert choices[0].label == "LM"
        assert not choices[-1].ok

    def test_constructor_rejecting_kwargs_fails_only_that_candidate(self):
        # A label whose kwargs its constructor rejects (TypeError) is a
        # failed candidate, like an unknown label, not a failed plan.
        engine = PrivateQueryEngine(
            np.ones(64), total_budget=1.0, candidates=("LM", "WM"),
            mechanism_kwargs={"WM": {"bogus": 1}},
        )
        plan = engine.plan(wrange(6, 64, seed=0))
        assert plan.mechanism_label == "LM"
        failed = [c for c in plan.candidates if c.failure is not None]
        assert [c.label for c in failed] == ["WM"]
        assert "bogus" in failed[0].failure

    def test_select_returns_fitted_best(self):
        wl = wrelated(8, 64, s=2, seed=1)
        mech = select_mechanism(wl, 0.1, candidates=("LM", "LRM"), mechanism_kwargs=FAST_LRM)
        assert mech.is_fitted
        # low-rank workload: LRM should win the selection
        assert mech.name == "LRM"

    def test_select_lm_wins_on_identity(self):
        from repro.workloads import identity_workload

        wl = identity_workload(16)
        mech = select_mechanism(wl, 0.1, candidates=("LM", "WM", "HM"))
        assert mech.name == "LM"

    def test_select_all_fail_raises(self):
        wl = wrange(4, 8, seed=0)
        with pytest.raises(ValidationError, match="no usable mechanism"):
            select_mechanism(wl, 0.1, candidates=("NOPE",))

    def test_accepts_instances(self):
        wl = wrange(4, 8, seed=0)
        mech = select_mechanism(wl, 0.1, candidates=(NoiseOnDataMechanism(),))
        assert isinstance(mech, NoiseOnDataMechanism)

    def test_choice_repr(self):
        assert "failed" in repr(MechanismChoice("X", failure="boom"))

    def test_default_candidates_constant(self):
        assert "LRM" in DEFAULT_CANDIDATES and "LM" in DEFAULT_CANDIDATES


class TestPrivateQueryEngine:
    def _engine(self, budget=1.0):
        return PrivateQueryEngine(
            np.arange(64.0),
            total_budget=budget,
            mechanism_kwargs=FAST_LRM,
            seed=0,
        )

    def test_answer_shape_and_budget(self):
        engine = self._engine()
        release = answer(engine, wrange(6, 64, seed=0), epsilon=0.25, mechanism="LM")
        assert isinstance(release, Release)
        assert release.answers.shape == (6,)
        assert engine.remaining_budget == pytest.approx(0.75)
        assert engine.spent_budget == pytest.approx(0.25)

    def test_budget_exhaustion(self):
        engine = self._engine(budget=0.3)
        answer(engine, wrange(4, 64, seed=0), epsilon=0.2, mechanism="LM")
        with pytest.raises(PrivacyBudgetError):
            answer(engine, wrange(4, 64, seed=1), epsilon=0.2, mechanism="LM")

    def test_can_answer(self):
        engine = self._engine(budget=0.3)
        assert engine.can_answer(0.3)
        assert not engine.can_answer(0.31)

    def test_workload_key_stable_and_digest_based(self):
        engine = self._engine()
        wl = wrange(6, 64, seed=0)
        key = workload_key(wl)
        # Shape prefix + the workload's memoized sha1 digest: deterministic
        # across engines and processes (the builtin hash is salted per run).
        assert key == f"6x64:{wl.content_digest}"
        assert workload_key(wl) == key
        assert workload_key(wrange(6, 64, seed=0)) == key
        # The engine stamps the same identity on its plans.
        assert engine.plan(wl, mechanism="LM").workload_key == key

    def test_release_workload_key_matches_prepare_cache(self):
        engine = self._engine()
        wl = wrange(6, 64, seed=0)
        release = answer(engine, wl, epsilon=0.25, mechanism="LM")
        assert release.workload_key == workload_key(wl)

    def test_auto_selection_on_low_rank(self):
        engine = self._engine()
        release = answer(engine, wrelated(8, 64, s=2, seed=1), epsilon=0.25)
        assert release.mechanism == "LRM"

    def test_mechanism_cache_reused(self):
        engine = self._engine()
        workload = wrelated(8, 64, s=2, seed=1)
        first = engine.plan(workload, mechanism="LRM").mechanism
        second = engine.plan(workload, mechanism="LRM").mechanism
        assert first is second

    def test_prepare_consumes_no_budget(self):
        engine = self._engine()
        engine.plan(wrange(4, 64, seed=0), mechanism="LM")
        assert engine.spent_budget == 0.0

    def test_domain_mismatch_rejected(self):
        engine = self._engine()
        with pytest.raises(ValidationError, match="domain"):
            answer(engine, wrange(4, 32, seed=0), epsilon=0.1)

    def test_postprocessing_flags(self):
        engine = self._engine()
        release = answer(
            engine,
            wrange(6, 64, seed=0),
            epsilon=0.5,
            mechanism="LM",
            non_negative=True,
            integral=True,
        )
        assert np.all(release.answers >= 0)
        assert np.allclose(release.answers, np.round(release.answers))

    def test_release_log(self):
        engine = self._engine()
        answer(engine, wrange(4, 64, seed=0), epsilon=0.1, mechanism="LM")
        answer(engine, wrange(4, 64, seed=1), epsilon=0.1, mechanism="WM")
        log = engine.releases
        assert len(log) == 2
        assert log[0].mechanism == "LM"
        assert log[1].mechanism == "WM"

    def test_answer_queries_single_row(self):
        engine = self._engine()
        release = answer(engine, np.ones((1, 64)), epsilon=0.1, mechanism="LM")
        assert release.answers.shape == (1,)

    def test_expected_error_recorded(self):
        engine = self._engine()
        release = answer(engine, wrange(4, 64, seed=0), epsilon=0.5, mechanism="LM")
        mech = NoiseOnDataMechanism().fit(wrange(4, 64, seed=0))
        assert release.expected_error == pytest.approx(mech.expected_squared_error(0.5))

    def test_reproducible_with_seed(self):
        a = answer(self._engine(), wrange(4, 64, seed=0), epsilon=0.5, mechanism="LM")
        b = answer(self._engine(), wrange(4, 64, seed=0), epsilon=0.5, mechanism="LM")
        assert np.allclose(a.answers, b.answers)
