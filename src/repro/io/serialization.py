"""Persistence for decompositions, fitted mechanisms and execution plans.

The ALM decomposition is the expensive part of LRM (seconds to minutes);
production deployments fit once per workload and answer many times. These
helpers save a :class:`repro.core.alm.Decomposition` (or a fitted
:class:`repro.core.lrm.LowRankMechanism`) to a single ``.npz`` file and
restore it without re-optimising.

:func:`save_plan` / :func:`load_plan` persist a whole
:class:`repro.engine.plan.ExecutionPlan` — the fitted mechanism plus the
candidate-comparison table ``explain()`` renders — which is what the
persistent :class:`repro.engine.plan_cache.PlanCache` writes to its
directory backend. Low-rank mechanisms store their decomposition arrays and
restore without re-optimising; cheap registry mechanisms are refit
deterministically from the stored workload on load. Archive integrity is
anchored on :attr:`repro.workloads.workload.Workload.content_digest`: the
loaded matrix must hash back to the digest the plan was keyed under.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from repro.core.alm import SOLVER_VERSION, Decomposition
from repro.exceptions import ValidationError
from repro.io.atomic import atomic_writer
from repro.workloads.workload import Workload

__all__ = [
    "PlanFormatError",
    "save_decomposition",
    "load_decomposition",
    "save_fitted_lrm",
    "load_fitted_lrm",
    "save_plan",
    "load_plan",
    "plan_from_payload",
    "plan_archive_info",
]


class PlanFormatError(ValidationError):
    """A plan archive is unreadable for *benign* reasons — wrong/old format
    version, missing keys, an unknown stored class. Distinct from a plain
    :class:`ValidationError` so :class:`repro.engine.plan_cache.PlanCache`
    can treat staleness as a cache miss (replan and overwrite) while digest
    and key mismatches still raise as integrity failures."""

# Decomposition archives store no digest; their format is unchanged.
_FORMAT_VERSION = 1
# Fitted-LRM / plan version 2: _array_digest now covers dtype (a
# dtype-swapped archive used to pass — or, for fitted-LRM archives, whose
# stored digest went unverified, bypass — the integrity check), and
# load_fitted_lrm now enforces its digest. Version-1 archives of these two
# formats are stale, not tampered.
# Version 3 additionally stores *implicit* workloads as their operator spec
# (family + index arrays) instead of a materialised matrix — a prefix plan
# at n = 65,536 archives two index vectors, not 34 GB. Version-2 (dense)
# archives remain readable.
_FITTED_LRM_FORMAT_VERSIONS = (2, 3)
_FITTED_LRM_FORMAT_VERSION = 3
# Plan version 4 = version 3 plus an optional ``mechanism_archive`` member:
# mechanisms the registry cannot rebuild (wrappers like SubsampledMechanism,
# arbitrary custom classes) persist through the Mechanism.to_spec/from_spec
# protocol instead. Every plan archive is written as version 4; versions 2
# and 3 stay readable because serving plan directories hold archives
# written earlier. An older reader hitting a version-4 archive gets
# PlanFormatError — a graceful plan-cache miss, not an integrity failure.
_PLAN_FORMAT_VERSIONS = (2, 3, 4)
_PLAN_FORMAT_VERSION = 4


def _atomic_savez(path, **arrays):
    """``np.savez_compressed`` through :func:`repro.io.atomic.atomic_writer`.

    The archive is assembled in a same-directory staging file, fsynced and
    renamed over ``path`` — a crash mid-save leaves the previous archive (or
    nothing), never a truncated ``.npz`` a later load would choke on.
    Mirrors numpy's convention of appending ``.npz`` to extension-less
    paths, which passing a file handle would otherwise bypass.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with atomic_writer(path) as fh:
        np.savez_compressed(fh, **arrays)


def _workload_payload(workload):
    """Archive form of a workload: ``(meta, arrays)``.

    Dense workloads store the matrix under ``"workload"`` (the historical
    v2 layout); implicit ones store their operator spec + arrays and never
    materialise. The stored digest is the workload's own
    ``content_digest`` either way, so reload integrity checks compare
    like with like.
    """
    from repro.linalg.operator import operator_spec

    meta = {"name": workload.name, "digest": workload.content_digest}
    arrays = {}
    if workload.is_implicit:
        meta["operator"] = operator_spec(workload.operator, arrays)
    else:
        arrays["workload"] = workload.matrix
    return meta, arrays


def _restore_workload(meta, archive, missing_exc):
    """Inverse of :func:`_workload_payload` against a loaded npz archive
    (or any plain ``{name: ndarray}`` mapping, e.g. shared-memory views)."""
    from repro.linalg.operator import operator_from_spec

    name = meta.get("name", "restored")
    if "operator" in meta:
        backing = operator_from_spec(meta["operator"], archive)
    else:
        names = getattr(archive, "files", archive)
        if "workload" not in names:
            raise missing_exc("not a valid archive: missing 'workload'")
        backing = archive["workload"]
    return Workload(backing, name=name)


def _array_digest(*arrays):
    """SHA-1 over the dtypes, shapes and bytes of the given arrays.

    The dtype must be part of the digest: the raw bytes of a float64 array
    reinterpreted as another 8-byte dtype are identical, so a digest over
    bytes alone would accept a dtype-swapped archive whose reinterpreted
    values mis-calibrate the noise."""
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _decomposition_payload(decomposition):
    """JSON form of a Decomposition's scalar fields (shared by the fitted-LRM
    and plan archive formats)."""
    return {
        "residual_norm": decomposition.residual_norm,
        "objective": decomposition.objective,
        "iterations": decomposition.iterations,
        "converged": decomposition.converged,
        "norm": decomposition.norm,
        # Integrity anchor for the strategy arrays: a tampered L would
        # change the sensitivity the noise is calibrated to.
        "digest": _array_digest(decomposition.b, decomposition.l),
    }


def _restore_decomposition(b, l, details):
    """Inverse of :func:`_decomposition_payload` plus the stored arrays."""
    return Decomposition(
        b=b,
        l=l,
        residual_norm=float(details["residual_norm"]),
        objective=float(details["objective"]),
        iterations=int(details["iterations"]),
        converged=bool(details["converged"]),
        history=[],
        norm=str(details.get("norm", "l1")),
    )


def save_decomposition(decomposition, path):
    """Write a :class:`Decomposition` to ``path`` (``.npz``)."""
    if not isinstance(decomposition, Decomposition):
        raise ValidationError("save_decomposition expects a Decomposition")
    metadata = {
        "format_version": _FORMAT_VERSION,
        "residual_norm": decomposition.residual_norm,
        "objective": decomposition.objective,
        "iterations": decomposition.iterations,
        "converged": decomposition.converged,
        "norm": decomposition.norm,
        "history": decomposition.history,
        "perf": decomposition.perf,
    }
    _atomic_savez(
        path,
        b=decomposition.b,
        l=decomposition.l,
        metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8),
    )


def load_decomposition(path):
    """Read a :class:`Decomposition` previously written by
    :func:`save_decomposition`."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            b = archive["b"]
            l = archive["l"]
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
        except KeyError as exc:
            raise ValidationError(f"not a decomposition archive: missing {exc}") from exc
    version = metadata.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValidationError(f"unsupported decomposition format version {version}")
    return Decomposition(
        b=b,
        l=l,
        residual_norm=float(metadata["residual_norm"]),
        objective=float(metadata["objective"]),
        iterations=int(metadata["iterations"]),
        converged=bool(metadata["converged"]),
        history=list(metadata.get("history", [])),
        norm=str(metadata.get("norm", "l1")),
        perf=dict(metadata.get("perf", {})),
    )


def save_fitted_lrm(mechanism, path):
    """Persist a fitted :class:`LowRankMechanism` (workload + decomposition).

    The saved archive restores a mechanism that answers identically; the
    solver configuration is not needed again and is not stored.
    """
    from repro.core.lrm import GaussianLowRankMechanism, LowRankMechanism

    if not isinstance(mechanism, LowRankMechanism):
        raise ValidationError("save_fitted_lrm expects a LowRankMechanism")
    if not mechanism.is_fitted:
        raise ValidationError("mechanism must be fitted before saving")
    decomposition = mechanism.decomposition
    workload_meta, workload_arrays = _workload_payload(mechanism.workload)
    metadata = {
        "format_version": _FITTED_LRM_FORMAT_VERSION,
        "class": type(mechanism).__name__,
        "delta": getattr(mechanism, "delta", None),
        "workload_name": mechanism.workload.name,
        "workload_meta": workload_meta,
        "decomposition": _decomposition_payload(decomposition),
    }
    _atomic_savez(
        path,
        b=decomposition.b,
        l=decomposition.l,
        metadata=np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8),
        **workload_arrays,
    )


def load_fitted_lrm(path):
    """Restore a fitted LRM saved by :func:`save_fitted_lrm`."""
    from repro.core.lrm import GaussianLowRankMechanism, LowRankMechanism

    with np.load(path, allow_pickle=False) as archive:
        try:
            b = archive["b"]
            l = archive["l"]
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
        except KeyError as exc:
            raise ValidationError(f"not a fitted-LRM archive: missing {exc}") from exc
        version = metadata.get("format_version")
        if version not in _FITTED_LRM_FORMAT_VERSIONS:
            raise ValidationError(
                f"unsupported fitted-LRM format version {version} (this release "
                f"reads versions {_FITTED_LRM_FORMAT_VERSIONS}); the archive is "
                "from another release, not tampered — refit the mechanism and "
                "re-save it with save_fitted_lrm"
            )
        workload_meta = metadata.get(
            "workload_meta", {"name": metadata.get("workload_name", "restored")}
        )
        workload = _restore_workload(workload_meta, archive, ValidationError)
    stored = metadata.get("decomposition", {}).get("digest")
    if _array_digest(b, l) != stored:
        raise ValidationError(
            "fitted-LRM archive integrity failure: decomposition arrays do "
            f"not hash to the stored digest {stored!r}"
        )
    stored_workload_digest = workload_meta.get("digest")
    if stored_workload_digest is not None and workload.content_digest != stored_workload_digest:
        raise ValidationError(
            "fitted-LRM archive integrity failure: workload does not hash to "
            f"the stored digest {stored_workload_digest!r}"
        )

    class_name = metadata.get("class", "LowRankMechanism")
    if class_name == "GaussianLowRankMechanism":
        mechanism = GaussianLowRankMechanism(delta=metadata.get("delta") or 1e-6)
    else:
        mechanism = LowRankMechanism()
    # Install the restored state without re-running the solver.
    workload.name = metadata.get("workload_name", workload.name)
    mechanism._workload = workload
    mechanism._decomposition = _restore_decomposition(b, l, metadata["decomposition"])
    return mechanism


# ---------------------------------------------------------------------- #
# Execution plans
# ---------------------------------------------------------------------- #
def _rebuild_lowrank(class_name, delta, fit_kwargs):
    """Reconstruct an (unfitted) low-rank mechanism from plan metadata —
    the single rebuild path shared by the save-time gate and load_plan."""
    from repro.core.lrm import GaussianLowRankMechanism, LowRankMechanism

    kwargs = dict(fit_kwargs)
    if class_name == "GaussianLowRankMechanism":
        # fit_kwargs may carry the delta too; the stored one wins.
        kwargs.pop("delta", None)
        return GaussianLowRankMechanism(delta=delta if delta is not None else 1e-6, **kwargs)
    return LowRankMechanism(**kwargs)


def _spec_payload(mechanism):
    """The ``mechanism_archive`` member of a version-4 plan archive, or
    ``None`` when the mechanism does not (usably) implement the spec
    protocol.

    The spec must be JSON-serializable and must round-trip:
    ``type(m).from_spec(m.to_spec()).to_spec() == m.to_spec()`` — the
    load-time rebuild is gated on producing a mechanism that describes
    itself identically, so a lossy ``to_spec`` is refused at save time
    rather than restoring a differently-configured mechanism later.
    """
    cls = type(mechanism)
    try:
        spec = mechanism.to_spec()
        json.dumps(spec)
        rebuilt = cls.from_spec(spec)
        if type(rebuilt) is not cls or rebuilt.to_spec() != spec:
            return None
    except Exception:
        return None
    return {"class": cls.__name__, "module": cls.__module__, "spec": spec}


def _mechanism_from_spec_payload(payload):
    """Rebuild the mechanism of a version-4 archive's ``mechanism_archive``.

    Unimportable modules, unknown classes, non-Mechanism classes and
    ``from_spec`` failures all raise :class:`PlanFormatError` — the
    archive was written by an environment this one cannot reproduce, which
    the plan cache treats as a miss (replan), not as tampering.
    """
    import importlib

    from repro.mechanisms.base import Mechanism

    try:
        module = importlib.import_module(str(payload["module"]))
        cls = getattr(module, str(payload["class"]))
    except Exception as exc:
        raise PlanFormatError(
            f"plan archive references an unimportable mechanism class "
            f"{payload.get('module')!r}.{payload.get('class')!r}: {exc}"
        ) from exc
    if not (isinstance(cls, type) and issubclass(cls, Mechanism)):
        raise PlanFormatError(
            f"plan archive's mechanism class {payload.get('class')!r} is "
            "not a Mechanism subclass"
        )
    try:
        return cls.from_spec(payload.get("spec", {}))
    except Exception as exc:
        raise PlanFormatError(
            f"plan archive's mechanism spec could not rebuild "
            f"{payload.get('class')!r}: {exc}"
        ) from exc


def _refit_reproduces(mechanism, label, fit_kwargs):
    """True iff ``make_mechanism(label, **fit_kwargs)`` rebuilds a mechanism
    with the same constructor state as ``mechanism``.

    This is the safety gate of the plan refit-on-load path: a mechanism
    whose public state (e.g. a customized ``unit_sensitivity``) is not
    captured by the stored kwargs must NOT be persisted, or the restored
    plan would silently release with differently-calibrated noise.
    """
    from repro.engine.plan import mechanism_state, mechanism_states_equal
    from repro.mechanisms.registry import make_mechanism

    try:
        fresh = make_mechanism(label, **fit_kwargs)
    except Exception:
        # Unknown label, rejected kwargs (TypeError), validation failure:
        # all mean a refit cannot rebuild this mechanism.
        return False
    if type(fresh) is not type(mechanism):
        return False
    try:
        return mechanism_states_equal(mechanism_state(fresh), mechanism_state(mechanism))
    except Exception:
        return False


def save_plan(plan, path):
    """Persist an :class:`repro.engine.plan.ExecutionPlan` to ``path`` (npz).

    Low-rank mechanisms (LRM/GLRM, including instance-built ones) store
    their decomposition arrays and restore without re-optimising. Other
    mechanisms store only the workload plus their constructor kwargs and
    are refit deterministically on load (their fits are cheap and
    data-independent) — allowed only when the kwargs provably rebuild the
    same constructor state. Mechanisms the registry cannot rebuild but
    that implement the :meth:`repro.mechanisms.base.Mechanism.to_spec`
    protocol (wrappers like
    :class:`repro.mechanisms.subsampled.SubsampledMechanism`, custom
    classes) carry their spec in a ``mechanism_archive`` member and are
    rebuilt + refit on load. A plan fitting none of these paths raises
    :class:`ValidationError` instead of silently restoring with
    differently-calibrated noise. Every archive is written as format
    version 4; :func:`load_plan` also reads versions 2 and 3. The plan's
    ``mechanism_spec`` (with its privacy digest) is stored as is, so a
    reloaded plan answers to the same :attr:`plan_key`.
    """
    from repro.core.lrm import LowRankMechanism
    from repro.engine.plan import ExecutionPlan

    if not isinstance(plan, ExecutionPlan):
        raise ValidationError("save_plan expects an ExecutionPlan")
    mechanism = plan.mechanism
    if not mechanism.is_fitted:
        raise ValidationError("plan mechanism must be fitted before saving")
    workload = plan.workload
    requires_delta = bool(getattr(mechanism, "requires_delta", False))
    workload_meta, arrays = _workload_payload(workload)
    metadata = {
        "plan_format_version": _PLAN_FORMAT_VERSION,
        # Provenance, not format: which solver revision fitted this plan
        # and when it was archived. Old readers ignore unknown JSON keys,
        # so adding these does not bump the format version; archives
        # without them read back as solver_version 0 / saved_at None (the
        # plan cache falls back to file mtime for TTL purposes).
        "solver_version": SOLVER_VERSION,
        "saved_at": time.time(),
        "plan": plan.to_metadata(),
        "workload": workload_meta,
        "mechanism_class": type(mechanism).__name__,
        "delta": float(mechanism.delta) if requires_delta else None,
    }
    from repro.core.lrm import GaussianLowRankMechanism

    # Exact types only: an unknown LowRankMechanism subclass (custom norm,
    # custom noise) must not round-trip into a base-class mechanism with
    # differently-calibrated noise — it falls through to the refit gate,
    # which rejects classes the registry cannot rebuild.
    if type(mechanism) in (LowRankMechanism, GaussianLowRankMechanism):
        # Gate the rebuild exactly as load_plan will perform it: foreign
        # public attributes (not constructor parameters) would otherwise
        # persist an archive load_plan can never restore, turning the disk
        # cache into a permanent miss-and-refit loop.
        from repro.engine.plan import mechanism_state, mechanism_states_equal

        try:
            probe = _rebuild_lowrank(
                type(mechanism).__name__, metadata["delta"], plan.fit_kwargs
            )
            rebuilds = mechanism_states_equal(
                mechanism_state(probe), mechanism_state(mechanism)
            )
        except Exception:
            rebuilds = False
        if not rebuilds:
            raise ValidationError(
                f"plan with mechanism {type(mechanism).__name__!r} is not serializable: "
                "its constructor state is not captured by the stored fit kwargs"
            )
        decomposition = mechanism.decomposition
        arrays["b"] = decomposition.b
        arrays["l"] = decomposition.l
        metadata["decomposition"] = _decomposition_payload(decomposition)
    else:
        # Mirror load_plan's reconstruction (stored delta folded in) and
        # persist via registry refit when the kwargs provably reproduce
        # this mechanism. Otherwise fall back to the spec protocol:
        # wrappers and custom classes whose constructor state is not plain
        # JSON kwargs archive their to_spec() instead.
        effective_kwargs = dict(plan.fit_kwargs)
        if requires_delta:
            effective_kwargs.setdefault("delta", mechanism.delta)
        try:
            kwargs_serializable = bool(json.dumps(effective_kwargs)) or True
        except TypeError:
            kwargs_serializable = False
        if not (
            kwargs_serializable
            and _refit_reproduces(mechanism, plan.mechanism_label, effective_kwargs)
        ):
            spec_payload = _spec_payload(mechanism)
            if spec_payload is None:
                raise ValidationError(
                    f"plan with mechanism {type(mechanism).__name__!r} is not serializable: "
                    "its constructor state is not captured by the stored fit kwargs "
                    "and it does not implement the to_spec/from_spec protocol "
                    "(low-rank mechanisms persist their decomposition instead)"
                )
            metadata["mechanism_archive"] = spec_payload
            # The spec supersedes the kwargs, which may not be
            # JSON-serializable (e.g. a wrapped mechanism instance).
            metadata["plan"]["fit_kwargs"] = {}
    try:
        payload = json.dumps(metadata)
    except TypeError as exc:
        raise ValidationError(f"plan metadata is not JSON-serializable: {exc}") from exc
    _atomic_savez(
        path, metadata=np.frombuffer(payload.encode("utf-8"), dtype=np.uint8), **arrays
    )


def load_plan(path):
    """Restore an :class:`repro.engine.plan.ExecutionPlan` saved by
    :func:`save_plan`.

    The workload matrix is re-hashed and checked against the stored
    :attr:`~repro.workloads.workload.Workload.content_digest`, so a corrupt
    or tampered archive is rejected instead of silently releasing against
    the wrong queries.
    """
    with np.load(path, allow_pickle=False) as archive:
        try:
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
        except KeyError as exc:
            raise PlanFormatError(f"not a plan archive: missing {exc}") from exc
        arrays = {name: archive[name] for name in archive.files if name != "metadata"}
    return plan_from_payload(metadata, arrays)


def plan_from_payload(metadata, arrays):
    """Rebuild an :class:`~repro.engine.plan.ExecutionPlan` from a plan
    archive's decoded metadata dict plus its arrays as a plain mapping.

    This is :func:`load_plan` minus the npz container, with every
    format/digest/workload-key integrity check intact — it exists so the
    serving tier's shared-plan store can reconstruct plans whose arrays
    live in ``multiprocessing.shared_memory`` (zero-copy, read-only views)
    through the exact verification path a disk load takes.
    """
    from repro.engine.plan import ExecutionPlan, PlanCandidate
    from repro.mechanisms.registry import make_mechanism

    if metadata.get("plan_format_version") not in _PLAN_FORMAT_VERSIONS:
        raise PlanFormatError(
            f"unsupported plan format version {metadata.get('plan_format_version')}"
        )
    workload = _restore_workload(metadata["workload"], arrays, PlanFormatError)
    b = arrays.get("b")
    l = arrays.get("l")
    plan_meta = metadata["plan"]
    stored_digest = metadata["workload"].get("digest")
    if workload.content_digest != stored_digest:
        raise ValidationError(
            "plan archive integrity failure: workload content does not hash to "
            f"the stored digest {stored_digest!r}"
        )
    from repro.engine.plan import workload_key as compute_workload_key

    if str(plan_meta["workload_key"]) != compute_workload_key(workload):
        raise ValidationError(
            "plan archive integrity failure: stored workload_key "
            f"{plan_meta['workload_key']!r} does not match the loaded matrix"
        )

    fit_kwargs = dict(plan_meta.get("fit_kwargs", {}))
    class_name = metadata.get("mechanism_class", "")
    delta = metadata.get("delta")
    if class_name in ("LowRankMechanism", "GaussianLowRankMechanism") and (
        b is None or l is None
    ):
        # A low-rank archive without its decomposition arrays must not fall
        # through to the refit branch: that would silently re-run the
        # expensive ALM optimisation the cache exists to avoid.
        raise ValidationError(
            "plan archive integrity failure: low-rank plan is missing its "
            "decomposition arrays"
        )
    if b is not None and l is not None:
        details = metadata["decomposition"]
        stored = details.get("digest")
        if stored is not None and _array_digest(b, l) != stored:
            raise ValidationError(
                "plan archive integrity failure: decomposition arrays do not "
                f"hash to the stored digest {stored!r}"
            )
        if class_name not in ("LowRankMechanism", "GaussianLowRankMechanism"):
            raise PlanFormatError(
                f"plan archive holds an unsupported low-rank class {class_name!r}"
            )
        mechanism = _rebuild_lowrank(class_name, delta, fit_kwargs)
        mechanism._workload = workload
        mechanism._decomposition = _restore_decomposition(b, l, details)
    elif metadata.get("mechanism_archive") is not None:
        # Spec archive: rebuild through the spec protocol, then
        # refit deterministically against the verified workload.
        mechanism = _mechanism_from_spec_payload(metadata["mechanism_archive"])
        mechanism.fit(workload)
    else:
        if delta is not None:
            fit_kwargs.setdefault("delta", delta)
        mechanism = make_mechanism(plan_meta["mechanism_label"], **fit_kwargs)
        mechanism.fit(workload)

    return ExecutionPlan(
        mechanism=mechanism,
        mechanism_label=str(plan_meta["mechanism_label"]),
        mechanism_spec=str(plan_meta["mechanism_spec"]),
        workload_key=str(plan_meta["workload_key"]),
        epsilon_hint=float(plan_meta["epsilon_hint"]),
        candidates=[PlanCandidate.from_dict(c) for c in plan_meta.get("candidates", [])],
        fit_kwargs=dict(plan_meta.get("fit_kwargs", {})),
    )


def plan_archive_info(path):
    """Cheap provenance read of a plan archive (metadata member only — no
    array decompression, no mechanism rebuild, no integrity re-hash).

    Returns a dict with ``plan_format_version``, ``solver_version`` (0 for
    pre-provenance archives), ``saved_at`` (POSIX seconds, or the archive
    file's mtime for pre-provenance archives), ``mechanism_class``,
    ``mechanism_label`` and ``workload_key``. This is what the plan
    cache's TTL / ``min_solver_version`` staleness gate reads before
    deciding whether a disk archive is worth loading at all.
    """
    with np.load(path, allow_pickle=False) as archive:
        try:
            metadata = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
        except KeyError as exc:
            raise PlanFormatError(f"not a plan archive: missing {exc}") from exc
    if "plan_format_version" not in metadata:
        raise PlanFormatError("not a plan archive: missing plan_format_version")
    saved_at = metadata.get("saved_at")
    if saved_at is None:
        try:
            saved_at = os.path.getmtime(path)
        except OSError:
            saved_at = None
    plan_meta = metadata.get("plan", {})
    return {
        "plan_format_version": metadata.get("plan_format_version"),
        "solver_version": int(metadata.get("solver_version", 0)),
        "saved_at": None if saved_at is None else float(saved_at),
        "mechanism_class": metadata.get("mechanism_class", ""),
        "mechanism_label": plan_meta.get("mechanism_label"),
        "workload_key": plan_meta.get("workload_key"),
    }
