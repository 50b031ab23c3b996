"""The environment record attached to every report."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: BLAS/OpenMP thread variables, recorded as inherited (never set here).
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: How each ledger backend flushes, as configured by ``repro.privacy.ledger``.
FLUSH_POLICY = {
    ".journal": "fsync per append (append-only checksummed JSONL)",
    ".db": "SQLite WAL, synchronous=FULL",
}


def source_revision(root):
    """The git SHA when the checkout is a repository, else a SHA-1 over
    every file under ``src/`` (the checkout the benchmark runs in may
    carry no git metadata)."""
    if (Path(root) / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
            return {"git_sha": sha}
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"src_sha1": digest.hexdigest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _filesystem(path):
    """Filesystem type of the mount holding ``path`` (longest mount-point
    prefix in ``/proc/mounts``)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def collect(root, workdir, seed, ledger_suffix=None):
    import numpy as np

    record = source_revision(root)
    record.update({
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "ledger_filesystem": _filesystem(workdir),
        "ledger_flush": FLUSH_POLICY.get(ledger_suffix, "no ledger (in-memory accountant)"),
        "seed": seed,
    })
    return record
