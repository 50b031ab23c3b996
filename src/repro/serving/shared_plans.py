"""Shared-memory plan store: one copy of the release factors per machine.

A serving deployment runs N worker processes, each needing every compiled
plan's arrays — the (r, n) strategy factor ``L``, the (m, r) recombination
factor ``B``, and the workload payload. Loading the ``.plan.npz`` archives
once per worker multiplies the resident set by N and pays the npz
decompression N times. :class:`SharedPlanStore` instead stages every
archive's arrays into **one** ``multiprocessing.shared_memory`` segment in
the parent; workers attach and rebuild their plans through
:func:`repro.io.serialization.plan_from_payload` with **read-only numpy
views** into the segment — zero copies, full integrity verification (the
digest checks run against the view exactly as they would against a disk
load).

The private data vector rides in the same segment under a reserved slot,
paired with a service-wide data-epoch token minted here: every worker
adopts the same (vector, token) pair, so a plan's cached strategy answers
``L x`` are computed once per worker process and shared by all tenants
(see :meth:`repro.engine.query_engine.PrivateQueryEngine.adopt_data`).

Layout: a JSON-able **manifest** (plan metadata dicts plus an array table
of ``name -> (offset, dtype, shape)``) travels to workers by pickle at
worker start; only the bulk bytes live in the segment. Offsets are 64-byte
aligned so views start on cache-line boundaries.
"""

from __future__ import annotations

import json
import uuid
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.validation import as_vector

__all__ = ["SharedPlanStore", "PlanManifest", "stage_plans", "attach_plans"]

_ALIGN = 64

#: Reserved array-table entry holding the service's data vector.
_DATA_SLOT = "__data__"


def _aligned(offset):
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class PlanManifest:
    """Picklable description of one shared segment's contents.

    ``plans`` maps plan name (the archive's file stem) to ``{"metadata":
    <decoded plan metadata>, "arrays": {array_name: [offset, dtype_str,
    shape]}}``; ``data`` is the array-table entry of the private vector;
    ``data_epoch`` is the service-wide epoch token every worker adopts.
    """

    def __init__(self, segment_name, plans, data, data_epoch):
        self.segment_name = segment_name
        self.plans = plans
        self.data = data
        self.data_epoch = data_epoch

    def plan_names(self):
        return sorted(self.plans)


def _plan_name(path):
    name = Path(path).name
    for suffix in (".plan.npz", ".npz"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _read_archive(path):
    """Decode one plan archive into (metadata dict, {name: array})."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
        except KeyError as exc:
            raise ValidationError(f"{path} is not a plan archive: missing {exc}") from exc
        arrays = {name: archive[name] for name in archive.files if name != "metadata"}
    return metadata, arrays


def _is_stale(metadata, ttl_seconds, min_solver_version):
    """The plan cache's eviction gates, applied at staging time: an
    archive whose top-level ``saved_at`` is older than ``ttl_seconds`` or
    whose ``solver_version`` is below ``min_solver_version`` is stale."""
    if min_solver_version is not None:
        if int(metadata.get("solver_version", 0)) < int(min_solver_version):
            return True
    if ttl_seconds is not None:
        saved_at = metadata.get("saved_at")
        if saved_at is None:
            return True
        import time

        if time.time() - float(saved_at) > float(ttl_seconds):
            return True
    return False


def stage_plans(plans_dir, data, ttl_seconds=None, min_solver_version=None):
    """Stage every ``*.plan.npz`` under ``plans_dir`` (non-recursive) plus
    the private ``data`` vector into a fresh shared-memory segment.

    ``ttl_seconds``/``min_solver_version`` apply the plan cache's staleness
    gates at staging time: stale archives are *skipped* (the hot-reload
    eviction decision); staging fails only when nothing fresh remains.

    Returns ``(store, manifest)`` where ``store`` is the parent-side
    :class:`SharedPlanStore` (owns the segment; call :meth:`~SharedPlanStore.unlink`
    on shutdown) and ``manifest`` is the :class:`PlanManifest` to ship to
    workers.
    """
    plans_dir = Path(plans_dir)
    paths = sorted(plans_dir.glob("*.plan.npz"))
    if not paths:
        raise ValidationError(f"no *.plan.npz archives found in {plans_dir}")
    data = as_vector(data, "data").astype(np.float64, copy=False)

    staged = []  # (plan_name, metadata, [(array_name, array), ...])
    names_seen = set()
    offset = 0
    table = {}  # (plan_name, array_name) -> (offset, dtype, shape)
    for path in paths:
        name = _plan_name(path)
        if name in names_seen:
            raise ValidationError(f"duplicate plan name {name!r} in {plans_dir}")
        names_seen.add(name)
        metadata, arrays = _read_archive(path)
        if _is_stale(metadata, ttl_seconds, min_solver_version):
            continue
        entries = []
        for array_name in sorted(arrays):
            array = np.ascontiguousarray(arrays[array_name])
            offset = _aligned(offset)
            table[(name, array_name)] = (offset, str(array.dtype), array.shape)
            offset += array.nbytes
            entries.append((array_name, array))
        staged.append((name, metadata, entries))
    if not staged:
        raise ValidationError(
            f"every plan archive in {plans_dir} is stale under "
            f"ttl_seconds={ttl_seconds} / min_solver_version={min_solver_version}"
        )
    offset = _aligned(offset)
    data_entry = (offset, str(data.dtype), data.shape)
    offset += data.nbytes

    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for name, _, entries in staged:
            for array_name, array in entries:
                start, dtype, shape = table[(name, array_name)]
                view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
                view[...] = array
        start, dtype, shape = data_entry
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
        view[...] = data
    except BaseException:
        segment.close()
        segment.unlink()
        raise

    manifest = PlanManifest(
        segment_name=segment.name,
        plans={
            name: {
                "metadata": metadata,
                "arrays": {
                    array_name: list(table[(name, array_name)])
                    for array_name, _ in entries
                },
            }
            for name, metadata, entries in staged
        },
        data=list(data_entry),
        data_epoch=f"svc-{uuid.uuid4().hex[:12]}",
    )
    return SharedPlanStore(segment, manifest, owner=True), manifest


def attach_plans(manifest):
    """Worker-side attach: open the manifest's segment read-only.

    Ownership stays with the parent-side store (the creator), which is
    the only one that unlinks. The worker's attach re-registers the name
    with the process tree's shared ``resource_tracker`` — a set-add
    no-op, since the parent registered it at create — so no unregister
    is needed here, and the tracker still unlinks the segment if the
    whole tree dies without a clean shutdown.
    """
    segment = shared_memory.SharedMemory(name=manifest.segment_name)
    return SharedPlanStore(segment, manifest, owner=False)


class SharedPlanStore:
    """A view over one staged segment: lazily rebuilt, cached plans.

    Workers call :meth:`plan` to get the :class:`repro.engine.plan.ExecutionPlan`
    for a name — rebuilt once per process through the full
    :func:`plan_from_payload` verification path, then cached, so every
    tenant engine in the worker executes the *same* plan object and shares
    its compiled ``L x`` cache. :meth:`data` returns the read-only private
    vector view plus the service-wide epoch token.
    """

    def __init__(self, segment, manifest, owner):
        self._segment = segment
        self._manifest = manifest
        self._owner = owner
        self._plans = {}

    @property
    def manifest(self):
        return self._manifest

    def plan_names(self):
        return self._manifest.plan_names()

    def _view(self, entry):
        offset, dtype, shape = entry
        view = np.ndarray(tuple(shape), dtype=dtype, buffer=self._segment.buf, offset=offset)
        view.flags.writeable = False
        return view

    def plan(self, name):
        """The (cached) ExecutionPlan for ``name``; raises
        :class:`ValidationError` for unknown names."""
        cached = self._plans.get(name)
        if cached is not None:
            return cached
        spec = self._manifest.plans.get(name)
        if spec is None:
            raise ValidationError(
                f"unknown plan {name!r}; available: {self.plan_names()}"
            )
        from repro.io.serialization import plan_from_payload

        arrays = {
            array_name: self._view(entry)
            for array_name, entry in spec["arrays"].items()
        }
        plan = plan_from_payload(spec["metadata"], arrays)
        self._plans[name] = plan
        return plan

    def metadata(self, name):
        """The archive metadata dict for ``name`` (no rebuild)."""
        spec = self._manifest.plans.get(name)
        if spec is None:
            raise ValidationError(
                f"unknown plan {name!r}; available: {self.plan_names()}"
            )
        return spec["metadata"]

    def data(self):
        """(read-only data vector view, service data-epoch token)."""
        return self._view(self._manifest.data), self._manifest.data_epoch

    # -- lifecycle ------------------------------------------------------ #
    def close(self):
        """Detach from the segment (views become invalid)."""
        self._plans = {}
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - lingering views
            pass

    def unlink(self):
        """Destroy the segment (owner only; call after workers exited)."""
        self.close()
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unlink() if self._owner else self.close()
