"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import wdiscrete, wrange, wrelated


@pytest.fixture
def rng():
    """A fresh, deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_related():
    """A small, strongly low-rank WRelated workload (16 x 64, rank 3)."""
    return wrelated(m=16, n=64, s=3, seed=7)


@pytest.fixture
def small_range():
    """A small WRange workload (16 x 32)."""
    return wrange(m=16, n=32, seed=7)


@pytest.fixture
def small_discrete():
    """A small WDiscrete workload (12 x 24)."""
    return wdiscrete(m=12, n=24, seed=7)


@pytest.fixture
def fast_lrm_kwargs():
    """LowRankMechanism budgets small enough for unit tests."""
    return {"max_outer": 25, "max_inner": 4, "nesterov_iters": 25, "stall_iters": 6}


@pytest.fixture
def legacy_rollback():
    """Append a ``rollback`` record to a ledger through ``open_store``.

    Earlier versions journaled one (naming transactions to excise from
    replay) whenever a release failed; current writers never do, but
    every reader must still honour it. The returned function takes the
    ledger path and a slice picking which committed transactions, in
    stream order, to roll back (default: the last one), and returns
    their txn ids.
    """
    from repro.privacy.ledger import open_store

    def append(path, select=slice(-1, None)):
        store = open_store(path)
        try:
            with store.transact():
                records, _ = store.scan()
                txns = [r["txn"] for r in records if r.get("op") == "commit"][select]
                store.append({"op": "rollback", "txns": txns})
        finally:
            store.close()
        return txns

    return append
