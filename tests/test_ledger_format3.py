"""Ledger format 3: compact stored releases, and the format-2 contract.

* **Format-2 fixtures** — ``tests/fixtures/ledgers/format2_keyed.*`` were
  written by the format-2 release (``make_format2_ledgers.py``): keyed,
  unkeyed and mixed batches, an in-call duplicate key and an
  ``integral=True`` release. Their costs replay bit-identically and every
  stored key answers with the release the engine returned when it was
  written — also after format-3 appends, checkpoint compaction and
  ``recover_ledger``, which rewrite the stream as format 3.
* **Format-3 records** — a keyed commit stores each release as base64 of
  its float64 bytes with the plan-level fields once per commit; every
  registry mechanism's keyed release round-trips bit-exactly, and its wire
  JSON is byte-identical fresh and replayed.
"""

import base64
import json
import os
import shutil

import numpy as np
import pytest

from repro.engine import PrivateQueryEngine
from repro.exceptions import LedgerCorruptError
from repro.mechanisms import mechanism_names
from repro.privacy.accountant import make_accountant
from repro.privacy.ledger import (
    LEDGER_FORMAT_VERSION,
    inspect_ledger,
    open_ledger,
    open_store,
    recover_ledger,
)
from repro.serving.worker import reply_bodies
from repro.workloads import prefix_workload, wrange

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "ledgers")

#: Mirrors tests/fixtures/make_format2_ledgers.py.
N = 32
BUDGET = 5.0

with open(os.path.join(FIXTURES, "format2_expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def _records(path):
    store = open_store(path)
    try:
        return store.scan()[0]
    finally:
        store.close()


def _plans(engine):
    return {
        "range": engine.plan(wrange(6, N, seed=0), mechanism="LM"),
        "prefix": engine.plan(prefix_workload(N), mechanism="WM"),
    }


def _copy_fixture(suffix, tmp_path):
    source = os.path.join(FIXTURES, f"format2_keyed.{suffix}")
    target = tmp_path / f"format2_keyed.{suffix}"
    shutil.copyfile(source, target)
    return target


def _engine(path, compact_every=None):
    accountant = open_ledger(path, make_accountant(BUDGET), compact_every=compact_every)
    return PrivateQueryEngine(
        np.arange(float(N)) % 7.0, total_budget=BUDGET, seed=99, accountant=accountant,
    )


def _describe(release):
    metadata = dict(release.metadata)
    metadata.pop("deduplicated", None)
    if metadata.get("shape") is not None:
        metadata["shape"] = list(metadata["shape"])
    return {
        "answers": release.answers.tolist(),
        "dtype": str(release.answers.dtype),
        "mechanism": release.mechanism,
        "epsilon": release.epsilon,
        "delta": release.delta,
        "expected_error": release.expected_error,
        "workload_key": release.workload_key,
        "metadata": metadata,
    }


def _assert_replays(engine, expected_keys):
    """Every key in ``expected_keys`` replays its release, charge-free."""
    plans = _plans(engine)
    spent = engine.spent_budget
    for key, expected in expected_keys.items():
        replay = engine.execute(plans["range"], 0.01, request_key=key)
        assert replay.metadata["deduplicated"] is True, key
        assert replay.answers.dtype == np.float64, key
        assert replay.answers.tobytes() == np.asarray(
            expected["answers"], dtype=np.float64
        ).tobytes(), key
        assert _describe(replay) == expected, key
    assert engine.spent_budget == spent


@pytest.mark.parametrize("suffix", ["journal", "db"])
class TestFormat2Fixtures:
    def test_costs_replay_bit_identically(self, suffix, tmp_path):
        path = _copy_fixture(suffix, tmp_path)
        expected = EXPECTED[f"format2_keyed.{suffix}"]
        engine = _engine(path)
        assert engine.accountant.spent_epsilon == expected["spent_epsilon"]
        assert engine.accountant.spent_delta == expected["spent_delta"]
        engine.accountant.close()
        report = inspect_ledger(path)
        assert report["spent_epsilon"] == expected["spent_epsilon"]
        assert report["costs"] == expected["charges"]
        assert report["keyed_results"] == len(expected["keys"])
        assert report["dangling_intents"] == []

    def test_every_stored_key_returns_the_same_release(self, suffix, tmp_path):
        path = _copy_fixture(suffix, tmp_path)
        expected = EXPECTED[f"format2_keyed.{suffix}"]
        assert any(k["metadata"]["postprocess"]["integral"] for k in expected["keys"].values())
        engine = _engine(path)
        _assert_replays(engine, expected["keys"])
        assert engine.accountant.spent_epsilon == expected["spent_epsilon"]
        engine.accountant.close()

    def test_format2_history_and_format3_appends_dedup_everywhere(self, suffix, tmp_path):
        path = _copy_fixture(suffix, tmp_path)
        expected = EXPECTED[f"format2_keyed.{suffix}"]
        keys = dict(expected["keys"])
        engine = _engine(path)
        plans = _plans(engine)
        fresh = engine.execute_many([
            (plans["range"], 0.02, {}, "new-a"),
            (plans["prefix"], 0.02, {"integral": True}, "new-b"),
            (plans["range"], 0.02, {}, None),
        ])
        keys.update({"new-a": _describe(fresh[0]), "new-b": _describe(fresh[1])})
        spent = engine.accountant.spent_epsilon
        engine.accountant.close()
        commits = [r for r in _records(path) if r["op"] == "commit" and "results" in r]
        assert ["heads" in r for r in commits] == [False] * (len(commits) - 1) + [True]

        # Reopen: both kinds dedup, nothing charged.
        engine = _engine(path)
        _assert_replays(engine, keys)
        engine.accountant.close()

        # recover --dry-run reports and leaves the stream untouched.
        before = open(path, "rb").read()
        report = recover_ledger(path, dry_run=True)
        assert report["keyed_results"] == len(keys)
        assert report["spent_epsilon"] == spent
        assert open(path, "rb").read() == before

        # Checkpoint compaction rewrites the whole stream as format 3.
        engine = _engine(path, compact_every=4)
        engine.execute(plans["range"], 0.01, request_key="trigger")
        keys["trigger"] = _describe(engine.releases[-1])
        spent = engine.accountant.spent_epsilon
        engine.accountant.close()
        records = _records(path)
        assert records[0]["format"] == LEDGER_FORMAT_VERSION == 3
        assert all("heads" in r for r in records if r["op"] == "commit" and "results" in r)
        engine = _engine(path)
        _assert_replays(engine, keys)
        assert engine.accountant.spent_epsilon == spent
        engine.accountant.close()

        # recover_ledger keeps every stored result.
        report = recover_ledger(path)
        assert report["keyed_results"] == len(keys)
        assert report["spent_epsilon"] == spent
        engine = _engine(path)
        _assert_replays(engine, keys)
        engine.accountant.close()

    def test_recover_rewrites_a_format2_stream_as_format3(self, suffix, tmp_path):
        path = _copy_fixture(suffix, tmp_path)
        expected = EXPECTED[f"format2_keyed.{suffix}"]
        assert _records(path)[0]["format"] == 2
        report = recover_ledger(path)
        assert report["spent_epsilon"] == expected["spent_epsilon"]
        records = _records(path)
        assert records[0]["format"] == 3
        engine = _engine(path)
        _assert_replays(engine, expected["keys"])
        engine.accountant.close()


class TestFormat3Records:
    def test_commit_stores_raw_values_and_plan_fields_once(self, tmp_path):
        path = tmp_path / "ledger.journal"
        engine = _engine(path)
        plans = _plans(engine)
        releases = engine.execute_many(
            [(plans["range"], 0.05, {}, f"k{i}") for i in range(5)]
            + [(plans["range"], 0.05, {}, None)]
        )
        engine.accountant.close()
        records = _records(path)
        assert records[0]["format"] == 3
        commit = records[-1]
        assert commit["op"] == "commit"
        assert len(commit["heads"]) == 1
        head = commit["heads"][0]
        assert head["mechanism"] == "LM" and head["shape"] == [6, N]
        assert commit["results"][-1] is None  # the unkeyed position
        for release, entry in zip(releases[:-1], commit["results"]):
            slot, encoded, realized_epsilon, realized_delta = entry
            assert slot == 0
            assert base64.b64decode(encoded) == release.answers.tobytes()
            assert [realized_epsilon, realized_delta] == [
                release.metadata["realized"]["epsilon"],
                release.metadata["realized"]["delta"],
            ]
        # The cost is not repeated in the commit: it is the intent's.
        assert "cost" not in json.dumps(commit)

    def test_other_results_round_trip_as_values(self, tmp_path):
        path = tmp_path / "ledger.db"
        acct = open_ledger(path, make_accountant(2.0))
        stored = {"k1": "r1", "k2": [1.5, -2.0], "k3": {"value": [1]}, "k4": None}
        outcomes = acct.spend_keyed(
            [((0.1, 0.0), key) for key in stored],
            lambda positions, _: [list(stored.values())[p] for p in positions],
        )
        assert [result for result, _ in outcomes] == list(stored.values())
        acct.close()
        reopened = open_ledger(path, make_accountant(2.0))
        for key, value in stored.items():
            assert reopened.result_for(key) == value
        reopened.close()

    def test_corrupt_stored_release_refuses_on_hit(self, tmp_path):
        path = tmp_path / "ledger.db"
        engine = _engine(path)
        plan = _plans(engine)["range"]
        engine.execute(plan, 0.05, request_key="k")
        engine.accountant.close()
        import sqlite3

        connection = sqlite3.connect(path)
        seq, payload = connection.execute(
            "SELECT seq, payload FROM ledger ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        record = json.loads(payload)
        record["results"][0][1] = record["results"][0][1][:-4]  # 3 bytes short
        record.pop("crc")
        from repro.privacy.ledger import _encode_record

        connection.execute(
            "UPDATE ledger SET payload = ? WHERE seq = ?",
            (_encode_record(record)[0], seq),
        )
        connection.commit()
        connection.close()
        engine = _engine(path)
        with pytest.raises(LedgerCorruptError, match="stored result"):
            engine.execute(plan, 0.05, request_key="k")
        engine.accountant.close()


#: Per-label engine settings: small solver budgets, and a per-release
#: delta for the Gaussian family that leaves room for a few releases.
_GAUSSIAN = {"delta": 1e-5}
_LABEL_KWARGS = {
    "LRM": {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5},
    "GLRM": {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5,
             **_GAUSSIAN},
    "GLM": _GAUSSIAN, "GNOR": _GAUSSIAN, "DGNOR": _GAUSSIAN,
    "SUB": {"sample_rate": 0.5, **_GAUSSIAN},
}


@pytest.mark.parametrize("label", mechanism_names())
def test_every_mechanism_round_trips_bit_exactly(label, tmp_path):
    path = tmp_path / "ledger.journal"
    workload = wrange(6, 16, seed=3)

    def engine():
        return PrivateQueryEngine(
            np.arange(16.0), total_budget=10.0, delta=1e-3, accountant="basic",
            seed=5, ledger_path=path,
            mechanism_kwargs={label: _LABEL_KWARGS.get(label, {})},
        )

    first = engine()
    plan = first.plan(workload, mechanism=label)
    fresh = first.execute_many([
        (plan, 0.5, {}, "plain"),
        (plan, 0.5, {"non_negative": True, "integral": True}, "post"),
    ])
    spent = (first.spent_budget, first.spent_delta)
    first.accountant.close()
    assert all(release.answers.dtype == np.float64 for release in fresh)

    second = engine()
    replays = [
        second.execute(plan, 0.5, request_key="plain"),
        second.execute(plan, 0.5, non_negative=True, integral=True, request_key="post"),
    ]
    assert (second.spent_budget, second.spent_delta) == spent
    for original, replay in zip(fresh, replays):
        assert replay.answers.tobytes() == original.answers.tobytes()
        assert replay.answers.dtype == original.answers.dtype
        assert _describe(replay) == _describe(original)
        assert (replay.mechanism, replay.epsilon, replay.delta, replay.expected_error) == (
            original.mechanism, original.epsilon, original.delta, original.expected_error
        )
    # The wire JSON of a replay is byte-identical to the original's.
    assert [body for body, _ in reply_bodies(replays)] == [
        body for body, _ in reply_bodies(fresh)
    ]
    assert [flag for _, flag in reply_bodies(replays)] == [True, True]
    second.accountant.close()


def test_reply_body_is_json_dumps_of_the_wire_dict(tmp_path):
    engine = PrivateQueryEngine(
        np.arange(16.0), total_budget=10.0, delta=1e-3, accountant="basic", seed=1,
        mechanism_kwargs={"SUB": {"sample_rate": 0.5, "delta": 1e-5}},
    )
    releases = engine.execute_many([
        (engine.plan(wrange(4, 16, seed=1), mechanism="LM"), 0.3),
        (engine.plan(wrange(4, 16, seed=1), mechanism="SUB"), 0.3),
        (engine.plan(wrange(4, 16, seed=1), mechanism="LM"), 0.2),
    ])
    for release, (body, deduplicated) in zip(releases, reply_bodies(releases)):
        assert not deduplicated
        assert body == json.dumps({
            "values": release.answers.tolist(),
            "mechanism": release.mechanism,
            "epsilon": release.epsilon,
            "delta": release.delta,
            "expected_error": release.expected_error,
            "cost": release.metadata["cost"],
            "realized": release.metadata["realized"],
        }).encode("utf-8")
