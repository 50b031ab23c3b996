"""The execute reply on the wire: one encoding per release.

The worker builds each release's JSON once and the server splices it into
the reply line, so the raw reply line (minus its ``id``) of a keyed
release is byte-identical however it is answered again: folded onto the
first request while both were pending, replayed from the ledger's dedup
index, replayed by a respawned worker after a SIGKILL, and replayed by a
restarted service. Also pinned here: ``dedup_hits`` counts a folded group
once, and a client that stops reading back-pressures the server.
"""

import asyncio
import json
import os
import signal
import socket

import numpy as np
import pytest

from repro.engine.plan import build_plan
from repro.io.serialization import save_plan
import repro.serving.server as server_module
from repro.serving import PlanService, ServiceConfig
from repro.workloads import prefix_workload, wrelated

N = 32


@pytest.fixture(scope="module")
def plans_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plans")
    for name, workload in (
        ("related", wrelated(8, N, s=2, seed=1)),
        ("prefix", prefix_workload(N)),
    ):
        plan = build_plan(workload, epsilon_hint=0.1, mechanism="LM")
        save_plan(plan, directory / f"{name}.plan.npz")
    return directory


def _config(plans_dir, tmp_path, workers=1):
    return ServiceConfig(
        plans_dir=plans_dir, ledger_root=tmp_path / "ledgers",
        data=np.arange(float(N)), total_epsilon=5.0, workers=workers, seed=7,
        max_batch=8,
    )


class _Raw:
    """A blocking JSON-lines connection that keeps the raw reply bytes."""

    def __init__(self, host, port, rcvbuf=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.connect((host, port))
        self.file = self.sock.makefile("rb")

    def send(self, *requests):
        """Write ``requests`` in one ``sendall`` (so they arrive together)."""
        self.sock.sendall(b"".join(json.dumps(r).encode() + b"\n" for r in requests))

    def lines(self, count):
        return [self.file.readline() for _ in range(count)]

    def close(self):
        self.file.close()
        self.sock.close()


def _execute(key, request_id):
    return {"op": "execute", "tenant": "acme", "plan": "related", "epsilon": 0.05,
            "key": key, "id": request_id}


def _without_id(line):
    body, _, tail = line.rpartition(b', "id": ')
    assert body and tail.endswith(b"}\n"), line
    return body


async def _in_thread(fn, *args):
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


def test_fresh_and_every_replay_are_byte_identical(plans_dir, tmp_path):
    config = _config(plans_dir, tmp_path)

    async def scenario():
        lines = {}
        service = PlanService(config)
        host, port = await service.start()
        raw = await _in_thread(_Raw, host, port)
        try:
            # The first two requests arrive together: one is charged, the
            # other folds onto it while both are pending.
            await _in_thread(raw.send, _execute("K", 1), _execute("K", 2))
            first, folded = await _in_thread(raw.lines, 2)
            lines["fresh"], lines["fold"] = sorted([first, folded])
            await _in_thread(raw.send, _execute("K", 3))
            lines["ledger"], = await _in_thread(raw.lines, 1)
            health = await service.health()
            os.kill(health["slots"][0]["pid"], signal.SIGKILL)
            await _in_thread(raw.send, _execute("K", 4))
            lines["after_kill"], = await _in_thread(raw.lines, 1)
            health = await service.health()
        finally:
            await _in_thread(raw.close)
            await service.shutdown()
        service = PlanService(config)
        host, port = await service.start()
        raw = await _in_thread(_Raw, host, port)
        try:
            await _in_thread(raw.send, _execute("K", 5))
            lines["after_restart"], = await _in_thread(raw.lines, 1)
        finally:
            await _in_thread(raw.close)
            await service.shutdown()
        return lines, health

    lines, health = asyncio.run(scenario())
    reply = json.loads(lines["fresh"])
    assert reply["ok"] is True and len(reply["release"]["values"]) == 8
    assert set(reply["release"]) == {
        "values", "mechanism", "epsilon", "delta", "expected_error", "cost", "realized",
    }
    assert lines["fresh"] == json.dumps(reply).encode() + b"\n"
    fresh = _without_id(lines["fresh"])
    for name in ("fold", "ledger", "after_kill", "after_restart"):
        assert _without_id(lines[name]) == fresh, name
    assert health["crashes"] == 1
    assert health["coalescer"]["duplicates_folded"] == 1


def test_dedup_hits_count_a_folded_group_once(plans_dir, tmp_path):
    config = _config(plans_dir, tmp_path)

    async def scenario():
        service = PlanService(config)
        host, port = await service.start()
        raw = await _in_thread(_Raw, host, port)
        try:
            await _in_thread(raw.send, _execute("K", 1))
            await _in_thread(raw.lines, 1)
            before = await service.health()
            # Three waiters on one stored key, pending together: one
            # dispatched request, answered from the ledger.
            await _in_thread(
                raw.send, _execute("K", 2), _execute("K", 3), _execute("K", 4)
            )
            replies = await _in_thread(raw.lines, 3)
            after = await service.health()
        finally:
            await _in_thread(raw.close)
            await service.shutdown()
        return before, replies, after

    before, replies, after = asyncio.run(scenario())
    assert len({_without_id(line) for line in replies}) == 1
    assert after["coalescer"]["duplicates_folded"] - before["coalescer"]["duplicates_folded"] == 2
    assert after["dedup_hits"] - before["dedup_hits"] == 1


def test_slow_reader_back_pressures_the_server(plans_dir, tmp_path, monkeypatch):
    config = _config(plans_dir, tmp_path)
    count = 16000  # ~6 MB of replies: past a loopback socket's 4 MB send
                   # buffer and the transport's high-water mark
    bound = 64
    monkeypatch.setattr(server_module, "MAX_CONNECTION_HANDLERS", bound)

    async def scenario():
        service = PlanService(config)
        running = [0, 0]  # unfinished reply handlers: now, most at once
        respond = service._respond

        async def counted_respond(*args):
            running[0] += 1
            running[1] = max(running)
            try:
                return await respond(*args)
            finally:
                running[0] -= 1

        service._respond = counted_respond
        host, port = await service.start()
        raw = await _in_thread(_Raw, host, port, 4096)
        # The send runs alongside: once the server stops reading, it may
        # wait for the replies below to be read.
        sending = asyncio.ensure_future(
            _in_thread(raw.send, *[{"op": "plan", "id": i} for i in range(count)])
        )
        try:
            # The client reads nothing: once the connection's buffer is
            # full, reply handlers wait instead of finishing, and the
            # server stops reading at the bound.
            held = 0
            for _ in range(100):
                await asyncio.sleep(0.05)
                pending = sum(1 for task in service._respond_tasks if not task.done())
                if pending == held and held > 0:
                    break
                held = pending
            replies = await _in_thread(raw.lines, count)
            await sending
            for _ in range(100):
                if not service._respond_tasks:
                    break
                await asyncio.sleep(0.02)
            left = len(service._respond_tasks)
        finally:
            await _in_thread(raw.close)
            await service.shutdown()
        return held, running[1], replies, left

    held, peak, replies, left = asyncio.run(scenario())
    assert held > 0, "no reply handler waited for the slow reader"
    assert peak <= bound, f"{peak} reply handlers pending on one connection"
    assert sorted(json.loads(line)["id"] for line in replies) == list(range(count))
    assert all(json.loads(line)["ok"] for line in replies)
    assert left == 0
