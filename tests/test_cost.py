"""Typed NoiseCost end-to-end: value object, accountants, ledger, engine.

The migration contract under test: scalar ``(epsilon, delta)`` behaviour is
bit-identical before and after the typed-cost refactor — same accountant
floats, same RDP curves, same on-disk replays — while typed costs unlock
what scalars could not describe (subsampling amplification, the discrete
Gaussian, self-describing audit records).
"""

import io
import logging
import math
import os
import shutil

import numpy as np
import pytest

import repro.privacy.ledger as ledger_mod
from repro.exceptions import (
    LedgerError,
    PrivacyBudgetError,
    ReproError,
    ValidationError,
)
from repro.privacy.accountant import make_accountant
from repro.privacy.cost import (
    COST_FAMILIES,
    NoiseCost,
    amplified_pair,
    as_spend_cost,
    charged_pair,
    cost_from_record,
    cost_record,
)
from repro.privacy.ledger import open_ledger
from repro.privacy.noise import (
    discrete_gaussian_noise,
    discrete_gaussian_noise_batch,
    gaussian_sigma,
)
from repro.privacy.rdp import (
    RDPAccountant,
    gaussian_rdp_curve,
    laplace_rdp_curve,
    noise_cost_rdp_curve,
    release_rdp_curve,
    releases_per_budget,
    subsampled_gaussian_rdp_curve,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "ledgers")


def gaussian_cost(epsilon=0.3, delta=1e-7, **kwargs):
    return NoiseCost(family="gaussian", epsilon=epsilon, delta=delta, **kwargs)


# ---------------------------------------------------------------------- #
# NoiseCost value object
# ---------------------------------------------------------------------- #
class TestNoiseCost:
    def test_families_and_validation(self):
        assert "laplace" in COST_FAMILIES
        with pytest.raises(ValidationError):
            NoiseCost(family="cauchy", epsilon=1.0)
        with pytest.raises(ValidationError):
            NoiseCost(family="laplace", epsilon=0.0)
        with pytest.raises(ValidationError):
            NoiseCost(family="laplace", epsilon=1.0, delta=1e-7)
        with pytest.raises(ValidationError):
            NoiseCost(family="gaussian", epsilon=1.0, delta=0.0)
        with pytest.raises(ValidationError):
            NoiseCost(family="gaussian", epsilon=1.0, delta=1.0)
        with pytest.raises(ValidationError):
            NoiseCost(family="gaussian", epsilon=1.0, delta=1e-7, sample_rate=0.5)
        with pytest.raises(ValidationError):
            NoiseCost(
                family="subsampled_gaussian", epsilon=1.0, delta=1e-7, sample_rate=0.0
            )
        with pytest.raises(ValidationError):
            NoiseCost(family="laplace", epsilon=1.0, sensitivity=-1.0)

    def test_not_iterable(self):
        # A typed cost must never silently downcast to an untyped pair.
        cost = gaussian_cost()
        with pytest.raises(TypeError):
            tuple(cost)

    def test_hashable_and_equal(self):
        assert gaussian_cost() == gaussian_cost()
        assert hash(gaussian_cost()) == hash(gaussian_cost())

    def test_charged_pair_identity_at_full_sample(self):
        cost = gaussian_cost(0.37, 1e-7)
        assert cost.charged_pair() == (0.37, 1e-7)
        sub_full = NoiseCost(
            family="subsampled_gaussian", epsilon=0.37, delta=1e-7, sample_rate=1.0
        )
        assert sub_full.charged_pair() == (0.37, 1e-7)

    def test_charged_pair_amplified(self):
        cost = NoiseCost(
            family="subsampled_gaussian", epsilon=0.5, delta=1e-6, sample_rate=0.1
        )
        eps, delta = cost.charged_pair()
        assert eps == math.log1p(0.1 * math.expm1(0.5))
        assert delta == 0.1 * 1e-6
        assert eps < 0.5
        assert amplified_pair(0.5, 1e-6, 0.1) == (eps, delta)

    def test_record_round_trip(self):
        cost = NoiseCost(
            family="subsampled_gaussian", epsilon=0.5, delta=1e-6,
            sigma_or_scale=3.5, sensitivity=2.0, sample_rate=0.25,
        )
        record = cost.to_record()
        assert record["charged"] == list(cost.charged_pair())
        assert NoiseCost.from_record(record) == cost
        # Unknown keys from newer writers are ignored.
        record["future_field"] = "x"
        assert NoiseCost.from_record(record) == cost

    def test_cost_record_shim(self):
        assert cost_record((0.3, 0.0)) == [0.3, 0.0]
        assert cost_from_record([0.3, 0.0]) == (0.3, 0.0)
        typed = gaussian_cost()
        assert cost_from_record(cost_record(typed)) == typed
        with pytest.raises(ValidationError):
            cost_from_record("bogus")

    def test_as_spend_cost(self):
        cost = gaussian_cost()
        assert as_spend_cost(cost) is cost
        with pytest.raises(ValidationError):
            as_spend_cost(cost, 1e-7)  # typed cost already carries its delta
        assert as_spend_cost((0.3, 1e-7)) == (0.3, 1e-7)
        assert as_spend_cost(0.3, 1e-7) == (0.3, 1e-7)
        with pytest.raises(ValidationError):
            as_spend_cost("junk")
        assert charged_pair((0.3, 1e-7)) == (0.3, 1e-7)


# ---------------------------------------------------------------------- #
# Accountants: unified delta rule, bit-identity with scalars
# ---------------------------------------------------------------------- #
class TestAccountants:
    @pytest.mark.parametrize("model", ["pure", "basic", "rdp"])
    def test_typed_equals_scalar_bit_identical(self, model):
        delta = 0.0 if model == "pure" else 1e-5
        scalar = make_accountant(4.0, delta, model=model)
        typed = make_accountant(4.0, delta, model=model)
        scalar.spend(0.3, 0.0)
        typed.spend(NoiseCost(family="laplace", epsilon=0.3))
        if model != "pure":
            scalar.spend(0.2, 1e-7)
            typed.spend(gaussian_cost(0.2, 1e-7))
        assert typed.spent_epsilon == scalar.spent_epsilon
        assert typed.spent_delta == scalar.spent_delta
        assert typed.remaining_epsilon == scalar.remaining_epsilon

    def test_pure_rejects_gaussian_cost_like_scalar_delta(self):
        pure = make_accountant(1.0, model="pure")
        with pytest.raises(PrivacyBudgetError):
            pure.spend(0.1, 1e-7)
        with pytest.raises(PrivacyBudgetError):
            pure.spend(gaussian_cost(0.1, 1e-7))
        assert not pure.can_spend(gaussian_cost(0.1, 1e-7))
        assert pure.spent_epsilon == 0.0

    def test_basic_charges_amplified_pair(self):
        # Satellite: one delta-handling rule — additive accountants charge
        # the amplified per-release guarantee of a subsampled cost.
        basic = make_accountant(4.0, 1e-5, model="basic")
        cost = NoiseCost(
            family="subsampled_gaussian", epsilon=0.5, delta=1e-6, sample_rate=0.1
        )
        basic.spend(cost)
        eps, delta = cost.charged_pair()
        assert basic.spent_epsilon == eps
        assert basic.spent_delta == delta

    def test_boundary_q1_matches_unsampled_everywhere(self):
        # The q -> 1 boundary: a subsampled cost at q=1 must be
        # indistinguishable from its unsampled twin in every accountant.
        plain = gaussian_cost(0.4, 1e-6)
        boundary = NoiseCost(
            family="subsampled_gaussian", epsilon=0.4, delta=1e-6, sample_rate=1.0
        )
        assert boundary.charged_pair() == plain.charged_pair()
        assert np.array_equal(
            noise_cost_rdp_curve(boundary), noise_cost_rdp_curve(plain)
        )
        for model in ("basic", "rdp"):
            a = make_accountant(4.0, 1e-5, model=model)
            b = make_accountant(4.0, 1e-5, model=model)
            a.spend(plain)
            b.spend(boundary)
            assert a.spent_epsilon == b.spent_epsilon
            assert a.spent_delta == b.spent_delta

    def test_spend_many_mixes_typed_and_scalar(self):
        acc = make_accountant(4.0, 1e-5, model="basic")
        costs = [(0.1, 0.0), gaussian_cost(0.2, 1e-7), (0.1, 1e-8)]
        validated = acc.spend_many(costs)
        assert validated[1] == costs[1]
        assert acc.spent_epsilon == pytest.approx(0.4)
        assert acc.spent_delta == 1e-7 + 1e-8

    def test_spend_returns_typed_cost(self):
        acc = make_accountant(4.0, 1e-5, model="basic")
        cost = gaussian_cost(0.2, 1e-7)
        assert acc.spend(cost) is cost


# ---------------------------------------------------------------------- #
# RDP curves: legacy bit-identity plus the subsampled/discrete families
# ---------------------------------------------------------------------- #
class TestRDPCurves:
    def test_typed_curves_bit_identical_to_legacy(self):
        lap = NoiseCost(family="laplace", epsilon=0.3)
        assert np.array_equal(
            noise_cost_rdp_curve(lap), release_rdp_curve(0.3, 0.0)
        )
        assert np.array_equal(
            noise_cost_rdp_curve(lap), laplace_rdp_curve(1.0 / 0.3)
        )
        gau = gaussian_cost(0.3, 1e-7)
        assert np.array_equal(
            noise_cost_rdp_curve(gau), release_rdp_curve(0.3, 1e-7)
        )

    def test_discrete_gaussian_shares_gaussian_curve(self):
        # CKS 2020: the discrete Gaussian at sigma satisfies the same RDP
        # guarantee as the continuous Gaussian at sigma.
        disc = NoiseCost(family="discrete_gaussian", epsilon=0.3, delta=1e-7)
        assert np.array_equal(
            noise_cost_rdp_curve(disc), noise_cost_rdp_curve(gaussian_cost(0.3, 1e-7))
        )

    def test_subsampled_curve_q1_identity(self):
        sigma = 4.0
        assert np.array_equal(
            subsampled_gaussian_rdp_curve(sigma, 1.0), gaussian_rdp_curve(sigma)
        )

    def test_subsampled_curve_strictly_below_unsampled(self):
        sigma = 4.0
        sampled = subsampled_gaussian_rdp_curve(sigma, 0.1)
        unsampled = gaussian_rdp_curve(sigma)
        assert np.all(sampled <= unsampled)
        assert np.all(sampled[:-1] < unsampled[:-1])
        assert np.all(sampled >= 0.0)

    def test_subsampled_curve_monotone_in_q(self):
        sigma = 3.0
        low = subsampled_gaussian_rdp_curve(sigma, 0.05)
        high = subsampled_gaussian_rdp_curve(sigma, 0.5)
        assert np.all(low <= high)

    def test_subsampled_curve_rejects_bad_q(self):
        with pytest.raises(ReproError):
            subsampled_gaussian_rdp_curve(2.0, 0.0)
        with pytest.raises(ReproError):
            subsampled_gaussian_rdp_curve(2.0, 1.5)

    def test_releases_per_budget_amplification(self):
        base = releases_per_budget(0.5, 1e-7, 4.0, 1e-5, model="rdp")
        amplified = releases_per_budget(
            0.5, 1e-7, 4.0, 1e-5, model="rdp", sample_rate=0.1
        )
        assert amplified > base
        # Additive models charge the amplified pair.
        pure_amp = releases_per_budget(0.5, 0.0, 4.0, 0.0, model="pure",
                                       sample_rate=1.0)
        assert pure_amp == releases_per_budget(0.5, 0.0, 4.0, 0.0, model="pure")
        basic_amp = releases_per_budget(0.5, 1e-7, 4.0, 1e-5, model="basic",
                                        sample_rate=0.1)
        eps_amp, _ = amplified_pair(0.5, 1e-7, 0.1)
        assert basic_amp == releases_per_budget(eps_amp, 1e-8, 4.0, 1e-5,
                                                model="basic")

    def test_releases_per_budget_subsampled_needs_delta(self):
        with pytest.raises(PrivacyBudgetError):
            releases_per_budget(0.5, 0.0, 4.0, 1e-5, model="rdp", sample_rate=0.1)

    def test_rdp_accountant_subsampled_strictly_cheaper(self):
        plain = gaussian_cost(0.5, 1e-7)
        sub = NoiseCost(
            family="subsampled_gaussian", epsilon=0.5, delta=1e-7, sample_rate=0.1
        )
        a = RDPAccountant(4.0, 1e-5)
        b = RDPAccountant(4.0, 1e-5)
        a.spend(plain)
        b.spend(sub)
        assert b.spent_epsilon < a.spent_epsilon


# ---------------------------------------------------------------------- #
# Discrete Gaussian sampler + mechanism
# ---------------------------------------------------------------------- #
class TestDiscreteGaussian:
    def test_integral_and_deterministic(self):
        rng = np.random.default_rng(0)
        draw = discrete_gaussian_noise(1000, 1.0, 0.5, 1e-6, rng)
        assert draw.dtype == np.int64
        again = discrete_gaussian_noise(1000, 1.0, 0.5, 1e-6, np.random.default_rng(0))
        assert np.array_equal(draw, again)

    def test_moments_match_calibration(self):
        sigma = gaussian_sigma(1.0, 0.5, 1e-6)
        draw = discrete_gaussian_noise(20000, 1.0, 0.5, 1e-6, np.random.default_rng(1))
        assert abs(float(np.mean(draw))) < 0.2
        assert float(np.std(draw)) == pytest.approx(sigma, rel=0.05)

    def test_batch_rows_match_shape(self):
        rows = discrete_gaussian_noise_batch(
            16, 1.0, [0.5, 1.0, 2.0], 1e-6, np.random.default_rng(2)
        )
        assert rows.shape == (3, 16)
        assert rows.dtype == np.int64

    def test_dgnor_mechanism_releases_integers(self):
        from repro.mechanisms import make_mechanism

        mech = make_mechanism("DGNOR", delta=1e-6).fit(np.eye(8))
        x = np.arange(8.0)
        answers = mech.answer(x, 1.0, rng=0)
        assert np.array_equal(answers, np.rint(answers))
        batch = mech.answer_many(x, [0.5, 0.5], rng=1)
        assert batch.shape == (2, 8)
        assert np.array_equal(batch, np.rint(batch))
        cost = mech.release_cost(0.5)
        assert cost.family == "discrete_gaussian"
        assert cost.delta == 1e-6


# ---------------------------------------------------------------------- #
# SubsampledMechanism
# ---------------------------------------------------------------------- #
class TestSubsampledMechanism:
    def test_requires_gaussian_family_inner(self):
        from repro.mechanisms import SubsampledMechanism

        with pytest.raises(ValidationError):
            SubsampledMechanism(inner="LM", sample_rate=0.5)

    def test_release_cost_carries_sample_rate(self):
        from repro.mechanisms import make_mechanism

        mech = make_mechanism("SUB", inner="GNOR", sample_rate=0.2, delta=1e-6)
        mech.fit(np.eye(8))
        cost = mech.release_cost(0.5)
        assert cost.family == "subsampled_gaussian"
        assert cost.sample_rate == 0.2
        assert cost.epsilon == 0.5 and cost.delta == 1e-6
        eps, delta = cost.charged_pair()
        assert eps < 0.5 and delta == 0.2 * 1e-6

    def test_answer_unbiased_shape_and_validation(self):
        from repro.mechanisms import make_mechanism

        mech = make_mechanism("SUB", inner="GNOR", sample_rate=0.5, delta=1e-6)
        mech.fit(np.eye(16))
        counts = np.full(16, 40.0)
        answers = np.mean(
            [mech.answer(counts, 5.0, rng=seed) for seed in range(60)], axis=0
        )
        assert np.allclose(answers, counts, atol=6.0)
        with pytest.raises(ValidationError):
            mech.answer(np.full(16, 0.5), 1.0, rng=0)  # fractional counts
        with pytest.raises(ValidationError):
            mech.answer(np.full(16, -1.0), 1.0, rng=0)  # negative counts

    def test_engine_admits_more_subsampled_releases(self):
        # Acceptance: in an RDP-backed engine the subsampled twin is
        # admitted strictly cheaper, and its audit record carries the
        # amplified charged pair.
        from repro.engine import PrivateQueryEngine

        def spend_once(label, kwargs):
            engine = PrivateQueryEngine(
                np.arange(16.0), total_budget=2.0, delta=1e-5, seed=0,
                accountant="rdp",
            )
            plan = engine.plan(np.eye(16), mechanism=label)
            release = engine.execute(plan, 0.5)
            return engine, release

        engine_plain, release_plain = spend_once("GNOR", {})
        engine_sub, release_sub = spend_once("SUB", {})
        assert engine_sub.spent_budget < engine_plain.spent_budget
        cost_meta = release_sub.metadata["cost"]
        assert cost_meta["family"] == "subsampled_gaussian"
        assert cost_meta["sample_rate"] < 1.0
        assert cost_meta["charged"][0] < cost_meta["epsilon"]
        assert release_plain.metadata["cost"]["family"] == "gaussian"

    def test_spec_round_trip_through_plan_cache(self):
        from repro.engine.plan import build_plan
        from repro.engine.plan_cache import PlanCache

        plan = build_plan(
            np.eye(8), mechanism="SUB",
            mechanism_kwargs={"SUB": {"inner": "GNOR", "sample_rate": 0.25,
                                      "delta": 1e-6}},
        )
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            cache = PlanCache(directory=directory)
            cache.put(plan.plan_key, plan)
            # A fresh cache instance must reload from disk (format 4).
            fresh = PlanCache(directory=directory)
            loaded = fresh.get(plan.plan_key)
            assert loaded is not None
            assert loaded.release_cost(0.4) == plan.release_cost(0.4)
            assert loaded.mechanism.to_spec() == plan.mechanism.to_spec()

    def test_old_reader_treats_spec_archive_as_miss(self, monkeypatch, tmp_path):
        from repro.engine.plan import build_plan
        from repro.engine.plan_cache import PlanCache
        from repro.io import serialization

        plan = build_plan(
            np.eye(8), mechanism="SUB",
            mechanism_kwargs={"SUB": {"inner": "GNOR", "sample_rate": 0.25,
                                      "delta": 1e-6}},
        )
        cache = PlanCache(directory=str(tmp_path))
        cache.put(plan.plan_key, plan)
        # Simulate a pre-typed reader: it accepts only formats (2, 3), so
        # the version-4 spec archive is a graceful miss, not an error.
        monkeypatch.setattr(serialization, "_PLAN_FORMAT_VERSIONS", (2, 3))
        old_reader = PlanCache(directory=str(tmp_path))
        assert old_reader.get(plan.plan_key) is None


# ---------------------------------------------------------------------- #
# Ledger: format compatibility and fixture replay
# ---------------------------------------------------------------------- #
#: Exact totals pinned when tests/fixtures/make_pretyped_ledgers.py wrote
#: the committed format-1 fixtures; replay must reproduce them bit for bit.
FIXTURE_TOTALS = {
    "pure": (0.85, 0.0),
    "basic": (0.85, 3e-07),
    "rdp": (0.6309482043750951, 1e-05),
}
FIXTURE_BUDGETS = {"pure": (4.0, 0.0), "basic": (4.0, 1e-5), "rdp": (4.0, 1e-5)}


class TestLedgerCompatibility:
    @pytest.mark.parametrize("model", ["pure", "basic", "rdp"])
    @pytest.mark.parametrize("suffix", ["journal", "db"])
    def test_pretyped_fixture_replays_bit_identically(self, model, suffix, tmp_path):
        fixture = os.path.join(FIXTURES, f"pretyped_{model}.{suffix}")
        path = tmp_path / os.path.basename(fixture)
        shutil.copy(fixture, path)
        total_epsilon, total_delta = FIXTURE_BUDGETS[model]
        durable = open_ledger(
            str(path), make_accountant(total_epsilon, total_delta, model=model)
        )
        expected_epsilon, expected_delta = FIXTURE_TOTALS[model]
        assert durable.spent_epsilon == expected_epsilon
        assert durable.spent_delta == expected_delta
        # The stream continues with typed costs (mixed format-1/format-2
        # records in one journal) and still replays exactly.
        if model == "pure":
            durable.spend(NoiseCost(family="laplace", epsilon=0.05))
        else:
            durable.spend(gaussian_cost(0.05, 1e-8))
        continued = durable.spent_epsilon
        durable.close()
        reopened = open_ledger(
            str(path), make_accountant(total_epsilon, total_delta, model=model)
        )
        assert reopened.spent_epsilon == continued
        reopened.close()

    @pytest.mark.parametrize("model", ["pure", "basic", "rdp"])
    @pytest.mark.parametrize("suffix", ["journal", "db"])
    def test_pretyped_fixture_every_reader_agrees(self, model, suffix, tmp_path):
        fixture = os.path.join(FIXTURES, f"pretyped_{model}.{suffix}")
        path = tmp_path / os.path.basename(fixture)
        shutil.copy(fixture, path)
        total_epsilon, total_delta = FIXTURE_BUDGETS[model]
        expected = FIXTURE_TOTALS[model]
        durable = open_ledger(
            str(path), make_accountant(total_epsilon, total_delta, model=model)
        )
        assert (durable.spent_epsilon, durable.spent_delta) == expected
        durable.close()
        for report in (
            ledger_mod.inspect_ledger(str(path)),
            ledger_mod.recover_ledger(str(path), dry_run=True),
        ):
            assert (report["spent_epsilon"], report["spent_delta"]) == expected
            assert report["dangling_intents"] == []
        assert ledger_mod.ledger_health(str(path))["ok"] is True

    @pytest.mark.parametrize("suffix", ["journal", "db"])
    def test_legacy_rollback_record_is_read_by_every_reader(
        self, suffix, tmp_path, legacy_rollback
    ):
        # Earlier versions journaled a rollback record (it carries "txns",
        # not "txn") whenever a release failed; every reader must excise
        # the transactions it names.
        path = str(tmp_path / f"legacy.{suffix}")
        durable = open_ledger(path, make_accountant(2.0, model="pure"))
        durable.spend_keyed([((0.1, 0.0), "k1")], lambda positions, _: ["r1"])
        durable.spend_keyed([((0.2, 0.0), "k2")], lambda positions, _: ["r2"])
        durable.spend(0.4)
        durable.close()
        legacy_rollback(path, slice(1, 2))  # the k2 transaction

        health = ledger_mod.ledger_health(path)
        assert health["ok"] is True
        assert health["records"] == 1 + 3 * 2 + 1
        assert health["dangling_intents"] == 0
        assert health["keyed_results"] == 1
        reopened = open_ledger(path, make_accountant(2.0, model="pure"))
        assert reopened.spent_epsilon == 0.1 + 0.4
        assert reopened.result_for("k1") == "r1"
        assert reopened.result_for("k2") is None
        reopened.close()
        for report in (
            ledger_mod.inspect_ledger(path),
            ledger_mod.recover_ledger(path, dry_run=True),
        ):
            assert report["spent_epsilon"] == 0.1 + 0.4
            assert report["rolled_back"] == 1
            assert report["keyed_results"] == 1
        recovered = ledger_mod.recover_ledger(path)
        assert recovered["spent_epsilon"] == 0.1 + 0.4
        assert recovered["rolled_back"] == 0
        assert recovered["records"] == 1 + 2 * 2

    def test_new_ledger_journals_typed_costs(self, tmp_path):
        path = tmp_path / "typed.journal"
        durable = open_ledger(str(path), make_accountant(4.0, 1e-5, model="rdp"))
        cost = NoiseCost(
            family="subsampled_gaussian", epsilon=0.5, delta=1e-6, sample_rate=0.1
        )
        assert durable.spend(cost) == cost
        spent = durable.spent_epsilon
        durable.close()
        reopened = open_ledger(str(path), make_accountant(4.0, 1e-5, model="rdp"))
        assert reopened.spent_epsilon == spent
        summary = ledger_mod.inspect_ledger(str(path))
        assert summary["families"]["subsampled_gaussian"]["count"] == 1
        reopened.close()

    def test_old_reader_refuses_new_format(self, tmp_path, monkeypatch):
        path = tmp_path / "new.journal"
        durable = open_ledger(str(path), make_accountant(2.0, model="pure"))
        durable.spend(0.1)
        durable.close()
        # Simulate the pre-typed reader, which only accepts format 1: a
        # format-2 stream must refuse loudly, not replay half-understood.
        monkeypatch.setattr(ledger_mod, "ACCEPTED_LEDGER_FORMATS", (1,))
        with pytest.raises(LedgerError, match="format"):
            open_ledger(str(path), make_accountant(2.0, model="pure"))

    def test_unknown_future_format_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ledger_mod, "LEDGER_FORMAT_VERSION", 99)
        path = tmp_path / "future.journal"
        durable = open_ledger(str(path), make_accountant(2.0, model="pure"))
        durable.spend(0.1)
        durable.close()
        monkeypatch.undo()
        with pytest.raises(LedgerError, match="format"):
            open_ledger(str(path), make_accountant(2.0, model="pure"))

    def test_unknown_meta_fields_warn_but_open(self, tmp_path, monkeypatch, caplog):
        # Forward compatibility: a newer writer may add meta fields; the
        # reader warns and replays rather than refusing.
        from repro.privacy.ledger import DurableAccountant

        original = DurableAccountant._meta_payload

        def with_extra(self):
            payload = original(self)
            payload["written_by"] = "a newer release"
            return payload

        path = tmp_path / "extra.journal"
        with monkeypatch.context() as patched:
            patched.setattr(DurableAccountant, "_meta_payload", with_extra)
            durable = open_ledger(str(path), make_accountant(2.0, model="pure"))
            durable.spend(0.1)
            durable.close()
        with caplog.at_level(logging.WARNING, logger="repro.privacy.ledger"):
            reopened = open_ledger(str(path), make_accountant(2.0, model="pure"))
        assert reopened.spent_epsilon == 0.1
        assert any("written_by" in message for message in caplog.messages)
        reopened.close()

    def test_ledger_spend_keyed_with_typed_costs(self, tmp_path):
        from repro.engine import PrivateQueryEngine

        path = tmp_path / "keyed.journal"
        engine = PrivateQueryEngine(
            np.arange(8.0), total_budget=2.0, delta=1e-5, seed=0,
            accountant="rdp", ledger_path=str(path),
        )
        plan = engine.plan(np.eye(8), mechanism="SUB")
        first = engine.execute(plan, 0.4, request_key="sub-1")
        again = engine.execute(plan, 0.4, request_key="sub-1")
        assert again.metadata.get("deduplicated")
        assert np.array_equal(first.answers, again.answers)
        assert again.metadata["cost"]["family"] == "subsampled_gaussian"


# ---------------------------------------------------------------------- #
# CLI: per-family breakdown of ledger inspect
# ---------------------------------------------------------------------- #
class TestLedgerCLI:
    def test_inspect_golden_output(self, tmp_path):
        from repro import cli

        path = tmp_path / "audit.journal"
        durable = open_ledger(str(path), make_accountant(2.0, 1e-6, model="basic"))
        durable.spend(0.5)  # journals as an untyped [epsilon, delta] pair
        durable.spend(NoiseCost(family="laplace", epsilon=0.25))
        durable.spend(gaussian_cost(0.2, 1e-7))
        durable.close()

        class Args:
            action = "inspect"
            ledger = str(path)
            dry_run = False

        out = io.StringIO()
        assert cli._run_ledger(Args(), out) == 0
        text = out.getvalue()
        lines = text.splitlines()
        assert lines[0] == f"ledger {path} (journal backend)"
        expected = [
            "  model=approx-dp total_epsilon=2.0 total_delta=1e-06",
            "  records=7 committed_txns=3 costs=3 keyed_results=0",
            "  cost[gaussian]: count=1 epsilon=0.2 delta=1e-07",
            "  cost[laplace]: count=1 epsilon=0.25 delta=0.0",
            "  cost[untyped]: count=1 epsilon=0.5 delta=0.0",
            "  dangling_intents=0 rolled_back=0 resets=0 torn_tail_bytes=0",
            "  spent_epsilon=0.95 spent_delta=1e-07 remaining_epsilon=1.05",
        ]
        assert lines[1:] == expected
