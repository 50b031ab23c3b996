"""Worker start through the preloaded forkserver.

Serving workers are forked from one forkserver per process that imported
the worker's modules once. Three things must hold for that to be both
fast and correct, and each is checked here in a fresh interpreter that,
like ``perfbench/run.py``, has no ``PYTHONPATH`` and puts ``src`` on
``sys.path`` at run time:

* **Preload** — the forkserver really imported the worker's modules (it
  would silently skip them if it could not find ``repro``), and later
  workers are its children.
* **Environment** — a worker sees the environment its parent has when the
  worker is created, not the one the forkserver launched with, and
  re-arms ``REPRO_FAILPOINTS`` from it.
* **Exit** — the forkserver is stopped and reaped when its parent exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="reads process state from /proc"
)

SCRIPT = r'''
import json
import os
import sys
from pathlib import Path


def reporting_worker(connection, config, index):
    """Stand-in worker: answers every command with one variable of its
    environment."""
    connection.send(("ready", {"pid": os.getpid(), "worker": index}))
    while True:
        command = connection.recv()
        connection.send(("ok", os.environ.get("REPRO_LATE_MARK")))
        if command[0] == "shutdown":
            break


def main(src, workdir, mode):
    sys.path.insert(0, src)
    import numpy as np
    from multiprocessing import forkserver

    from repro.engine.plan import build_plan
    from repro.io.serialization import save_plan
    from repro.serving import WorkerConfig, WorkerPool, stage_plans
    from repro.serving import worker as worker_module
    from repro.workloads import prefix_workload

    workdir = Path(workdir)
    plan = build_plan(prefix_workload(8), epsilon_hint=0.1, mechanism="LM")
    save_plan(plan, workdir / "prefix.plan.npz")
    store, manifest = stage_plans(workdir, np.arange(8.0))
    config = WorkerConfig(
        manifest=manifest, ledger_root=workdir / "ledgers", total_epsilon=1.0, seed=1
    )
    report = {}
    try:
        WorkerPool(config, workers=1).shutdown()  # launches the forkserver
        server = forkserver._forkserver._forkserver_pid
        report["forkserver"] = server
        if mode == "preload":
            pool = WorkerPool(config, workers=1)
            stat = Path(f"/proc/{pool.pids()[0]}/stat").read_text()
            report["worker_parent"] = int(stat.rsplit(")", 1)[1].split()[1])
            maps = Path(f"/proc/{server}/maps").read_text()
            report["numpy_preloaded"] = "_multiarray_umath" in maps
            pool.shutdown()
        elif mode == "environ":
            os.environ["REPRO_LATE_MARK"] = "set-after-launch"
            os.environ["REPRO_FAILPOINTS"] = "serving.worker.request=error"
            server_environ = Path(f"/proc/{server}/environ").read_bytes()
            report["server_has_mark"] = b"REPRO_LATE_MARK" in server_environ
            real_worker = worker_module.worker_main
            worker_module.worker_main = reporting_worker
            pool = WorkerPool(config, workers=1)
            report["worker_mark"] = pool.submit(("ping",))[1]
            pool.shutdown()
            worker_module.worker_main = real_worker
            pool = WorkerPool(config, workers=1)
            report["ping"] = list(pool.submit(("ping",))[:2])
            pool.shutdown()
    finally:
        store.unlink()
    print(json.dumps(report))


if __name__ == "__main__":
    main(*sys.argv[1:])
'''


def run_script(tmp_path, mode):
    script = tmp_path / "forkserver_probe.py"
    script.write_text(SCRIPT)
    workdir = tmp_path / "work"
    workdir.mkdir()
    env = {
        name: value for name, value in os.environ.items()
        if name not in ("PYTHONPATH", "REPRO_FAILPOINTS")
    }
    result = subprocess.run(
        [sys.executable, str(script), str(SRC), str(workdir), mode],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_later_workers_fork_from_a_server_that_preloaded_the_modules(tmp_path):
    report = run_script(tmp_path, "preload")
    assert report["forkserver"] is not None
    assert report["worker_parent"] == report["forkserver"]
    assert report["numpy_preloaded"]


def test_worker_sees_the_environment_set_after_the_server_launched(tmp_path):
    report = run_script(tmp_path, "environ")
    assert not report["server_has_mark"]  # so the worker did not inherit it
    assert report["worker_mark"] == "set-after-launch"
    # REPRO_FAILPOINTS set the same way arms in the worker: its request
    # failpoint raises on the ping.
    assert report["ping"] == ["error", "InjectedFault"]


def test_forkserver_is_reaped_when_its_parent_exits(tmp_path):
    report = run_script(tmp_path, "exit")
    assert report["forkserver"] is not None
    # Reaped, not left running or as a zombie: no /proc entry at all.
    assert not Path(f"/proc/{report['forkserver']}").exists()
