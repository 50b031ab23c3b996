"""Regenerate the committed format-2 keyed fixture ledgers.

These fixtures pin the on-disk compatibility contract of ledger format 3:
ledgers written by the format-2 release (commit records carrying each
keyed release as a JSON payload with its answers as JSON floats) must
replay bit-identically and answer every stored key with the same release
under the format-3 reader. The script must run against a format-2
release of the package (``LEDGER_FORMAT_VERSION == 2``); point
``PYTHONPATH`` at that checkout's ``src``:

    PYTHONPATH=<format-2 checkout>/src python tests/fixtures/make_format2_ledgers.py

It writes ``ledgers/format2_keyed.journal`` and ``ledgers/format2_keyed.db``
(the same release sequence, one ledger each) and
``ledgers/format2_expected.json``: per ledger, the exact spent totals and,
per stored key, the release the engine returned when it was written. The
sequence holds keyed, unkeyed and mixed ``execute_many`` batches, an
in-call duplicate key and one ``integral=True`` release;
``tests/test_ledger_format3.py`` replays it.
"""

import json
import os
import sys

import numpy as np

import repro.privacy.ledger as ledger_mod
from repro.engine import PrivateQueryEngine
from repro.engine.plan import build_plan
from repro.workloads import prefix_workload, wrange

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "ledgers")

#: Domain size, budget and noise seed shared with the replaying test.
N = 32
BUDGET = 5.0
SEED = 2012


def plans():
    """The two plans every batch draws from (deterministic fits)."""
    return {
        "range": build_plan(wrange(6, N, seed=0), epsilon_hint=0.1, mechanism="LM"),
        "prefix": build_plan(prefix_workload(N), epsilon_hint=0.1, mechanism="WM"),
    }


def batches(plan):
    """The release sequence: ``[(kind, [(plan, epsilon, switches, key)])]``."""
    r, p = plan["range"], plan["prefix"]
    return [
        ("keyed", [(r, 0.1, {}, "k-single")]),
        ("keyed", [(r, 0.05, {}, "k-a"), (p, 0.05, {}, "k-b"), (r, 0.2, {}, "k-c")]),
        ("unkeyed", [(r, 0.1, {}, None), (p, 0.1, {}, None)]),
        ("mixed", [(p, 0.07, {}, "k-mixed"), (r, 0.07, {}, None),
                   (r, 0.03, {"integral": True}, "k-integral")]),
        ("in-call duplicate", [(r, 0.04, {}, "k-dup"), (r, 0.04, {}, "k-dup"),
                               (p, 0.04, {"non_negative": True}, "k-nonneg")]),
    ]


def describe(release):
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


def main():
    if ledger_mod.LEDGER_FORMAT_VERSION != 2:
        sys.exit(
            "make_format2_ledgers.py must run against a format-2 release "
            f"(this one writes format {ledger_mod.LEDGER_FORMAT_VERSION})"
        )
    os.makedirs(OUT, exist_ok=True)
    plan = plans()
    data = np.arange(float(N)) % 7.0
    expected = {}
    for suffix in ("journal", "db"):
        name = f"format2_keyed.{suffix}"
        path = os.path.join(OUT, name)
        for stale in (path, path + ".lock", path + "-wal", path + "-shm"):
            if os.path.exists(stale):
                os.remove(stale)
        engine = PrivateQueryEngine(data, total_budget=BUDGET, seed=SEED, ledger_path=path)
        keys = {}
        for _, requests in batches(plan):
            releases = engine.execute_many(requests)
            for (_, _, _, key), release in zip(requests, releases):
                if key is not None and key not in keys:
                    keys[key] = describe(release)
        expected[name] = {
            "spent_epsilon": engine.accountant.spent_epsilon,
            "spent_delta": engine.accountant.spent_delta,
            "charges": sum(len(requests) for _, requests in batches(plan)) - 1,
            "keys": keys,
        }
        engine.accountant.close()
        for leftover in (path + "-wal", path + "-shm"):
            if os.path.exists(leftover):
                os.remove(leftover)
        print(f"{name:24s} spent_epsilon={expected[name]['spent_epsilon']!r} "
              f"keys={len(keys)}")
    with open(os.path.join(OUT, "format2_expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
