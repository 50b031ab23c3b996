"""One spend transaction, three backends: the same script, the same answers.

``spend``, ``spend_many`` and ``spend_keyed`` run one transaction in
:class:`repro.privacy.accountant.BudgetAccountant`; a durable ledger only
plugs its storage in. This suite runs one scripted sequence on an
in-memory accountant, a journal ledger and a SQLite ledger, for the pure,
basic and RDP accountants, and asserts that every step answers alike:
return values, the realized ``(epsilon, delta)`` handed to ``spend_many``
and to ``produce``, ``dedup_hits``, the spent state (to the last bit) and
every refusal message. The script covers an unkeyed ``spend`` and a
``spend_many``, a keyed batch with an in-call duplicate, a stored-key
replay, a ``produce`` that raises, a ``produce`` that returns too few
results and batches refused for budget. A durable ledger must then reopen
to the same state and the same stored results.
"""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.privacy.accountant import StoredRelease, make_accountant
from repro.privacy.cost import NoiseCost
from repro.privacy.ledger import open_ledger

BACKENDS = ("journal", "sqlite")

MODELS = {
    "pure": dict(
        total=1.0, total_delta=0.0,
        costs=[(0.1, 0.0), (0.25, 0.0), (0.05, 0.0)], big=(0.95, 0.0),
    ),
    "basic": dict(
        total=1.0, total_delta=1e-5,
        costs=[(0.1, 1e-7), (0.25, 2e-7), (0.05, 0.0)], big=(0.95, 1e-7),
    ),
    "rdp": dict(
        total=1.0, total_delta=1e-5,
        costs=[(0.1, 1e-7), (0.25, 1e-7), (0.05, 1e-7)], big=(3.0, 1e-7),
    ),
}

#: Every key the script uses, for the final ``result_for`` comparison.
KEYS = ("A", "B", "C", "D", "E", "F", "G", "H")


def _accountant(model):
    spec = MODELS[model]
    return make_accountant(spec["total"], spec["total_delta"], model=model)


def _open(backend, model, tmp_path):
    suffix = ".db" if backend == "sqlite" else ".journal"
    return open_ledger(tmp_path / f"budget{suffix}", _accountant(model))


def _plain(value):
    """``value`` with tuples, arrays and stored releases as plain lists and
    dicts of Python floats, so ``==`` compares it bit for bit."""
    if isinstance(value, StoredRelease):
        return _plain(value.to_record())
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def run_script(acct, model):
    """Run the scripted sequence on ``acct``; return its transcript: one
    entry per step with what the step returned or raised, the realized
    pairs it reported, the ``produce`` calls it made, ``dedup_hits`` and
    the spent state after it."""
    first, second, third = MODELS[model]["costs"]
    big = MODELS[model]["big"]
    typed = NoiseCost(family="laplace", epsilon=0.05, sigma_or_scale=20.0)
    head = {"plan": "parity"}
    transcript = []

    def produce(positions, realized):
        calls.append([list(positions), _plain(realized)])
        return [
            StoredRelease(
                np.array([float(position), 0.5 * position + 0.125]), head,
                tuple(pair), requests[position][0],
            )
            for position, pair in zip(positions, realized)
        ]

    def raising(positions, realized):
        raise RuntimeError("noise sampler died")

    def short(positions, realized):
        return produce(positions, realized)[:1]

    def step(name, call):
        nonlocal calls
        calls = []
        realized = []
        try:
            outcome = ["ok", _plain(call(realized))]
        except (ReproError, RuntimeError) as exc:
            outcome = ["raise", type(exc).__name__, str(exc)]
        transcript.append({
            "step": name, "outcome": outcome, "realized": _plain(realized),
            "produce": calls, "dedup_hits": acct.dedup_hits,
            "spent": [acct.spent_epsilon, acct.spent_delta],
            "state": _plain(acct._ledger_state()),
        })

    def keyed(batch, producer):
        nonlocal requests
        requests = batch
        return lambda realized: acct.spend_keyed(batch, producer)

    calls = requests = None
    step("spend", lambda realized: acct.spend(*first))
    step("spend_many", lambda realized: acct.spend_many(
        [second, third], realized_out=realized))
    step("keyed batch, in-call duplicate", keyed(
        [(third, "A"), (typed, "B"), (third, "A"), (first, None)], produce))
    step("stored-key replay", keyed([(second, "B"), (first, "A")], produce))
    step("replay beside a fresh key", keyed([(second, "A"), (third, "C")], produce))
    step("produce raises", keyed([(first, "D")], raising))
    step("short produce", keyed([(first, "E"), (first, "F")], short))
    step("spend refused", lambda realized: acct.spend(*big))
    step("spend_many refused", lambda realized: acct.spend_many(
        [big, big], realized_out=realized))
    step("keyed batch refused", keyed([(big, "G"), (big, "H")], produce))
    step("freed keys charge once", keyed(
        [(third, "D"), (third, "E"), (third, "G")], produce))
    transcript.append({"stored": [_plain(acct.result_for(key)) for key in KEYS]})
    return transcript


@pytest.fixture(scope="module", params=sorted(MODELS))
def memory_run(request):
    """The in-memory transcript of each model: the reference."""
    model = request.param
    return model, run_script(_accountant(model), model)


def test_the_script_covers_every_outcome(memory_run):
    model, transcript = memory_run
    outcomes = {entry["step"]: entry["outcome"] for entry in transcript[:-1]}
    assert outcomes["produce raises"][:2] == ["raise", "RuntimeError"]
    assert outcomes["short produce"][:2] == ["raise", "LedgerError"]
    for name in ("spend refused", "spend_many refused", "keyed batch refused"):
        assert outcomes[name][:2] == ["raise", "PrivacyBudgetError"], (model, name)
    assert [deduped for _, deduped in outcomes["stored-key replay"][1]] == [True, True]
    hits = [entry["dedup_hits"] for entry in transcript[:-1]]
    assert hits[2:5] == [1, 3, 4]  # one fold, two replays, one replay
    assert transcript[-1]["stored"][KEYS.index("F")] is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_durable_backend_answers_like_memory(memory_run, backend, tmp_path):
    model, expected = memory_run
    acct = _open(backend, model, tmp_path)
    try:
        transcript = run_script(acct, model)
    finally:
        acct.close()
    for got, want in zip(transcript, expected):
        assert got == want, (backend, model, want.get("step"))
    assert len(transcript) == len(expected)

    reopened = _open(backend, model, tmp_path)
    try:
        assert _plain(reopened._ledger_state()) == expected[-2]["state"]
        assert [_plain(reopened.result_for(key)) for key in KEYS] == expected[-1]["stored"]
    finally:
        reopened.close()


@pytest.mark.parametrize("backend", ("memory",) + BACKENDS)
def test_dedup_hits_count_only_delivered_replays(backend, tmp_path):
    """A stored-key replay counts once its transaction commits: a batch
    refused for budget, or whose ``produce`` fails, delivers nothing."""
    acct = (
        _accountant("pure") if backend == "memory"
        else _open(backend, "pure", tmp_path)
    )
    requests = []

    def produce(positions, realized):
        return [
            StoredRelease(np.array([float(position)]), {"plan": "hits"},
                          tuple(pair), requests[position][0])
            for position, pair in zip(positions, realized)
        ]

    def raising(positions, realized):
        raise RuntimeError("noise sampler died")

    requests[:] = [((0.5, 0.0), "A")]
    acct.spend_keyed(requests, produce)
    assert acct.dedup_hits == 0

    requests[:] = [((0.5, 0.0), "A"), ((0.9, 0.0), "B")]
    with pytest.raises(ReproError):
        acct.spend_keyed(requests, produce)
    assert acct.dedup_hits == 0

    requests[:] = [((0.5, 0.0), "A"), ((0.1, 0.0), "C")]
    with pytest.raises(RuntimeError):
        acct.spend_keyed(requests, raising)
    assert acct.dedup_hits == 0

    outcomes = acct.spend_keyed(requests, produce)
    assert [deduped for _, deduped in outcomes] == [True, False]
    assert acct.dedup_hits == 1
    requests[:] = [((0.5, 0.0), "A")]
    assert acct.spend_keyed(requests, produce)[0][1]
    assert acct.dedup_hits == 2
    acct.close()
