"""Persistent plan cache: expensive fits survive process restarts.

The costly part of planning is the mechanism fit (seconds to minutes for
LRM's ALM decomposition, cubic for MM's SDP); the plan that wraps it is the
natural cache unit. :class:`PlanCache` is a two-tier store:

* an **in-memory dict** (always on) giving same-process reuse, and
* an optional **on-disk directory** backend: every cacheable plan is written
  as a ``.plan.npz`` archive via :func:`repro.io.serialization.save_plan`,
  so a plan fitted in one process (or on one machine) can be loaded and
  executed in another. Integrity is anchored on
  :attr:`repro.workloads.workload.Workload.content_digest` — a loaded
  archive whose matrix does not hash back to the key it was stored under is
  rejected.

Keys are the :func:`repro.engine.plan.plan_key` strings: workload digest,
mechanism spec and a digest of the privacy configuration that calibrates
the plan's noise. The key alone decides what may be shared — engines whose
``unit_sensitivity``/``delta`` differ get different keys, engines that
differ only in solver tuning share one fit — so a hit is always servable.
The spec travels inside every archive and is checked against the key on
load. File names are the SHA-1 of the key, so arbitrary candidate-set
specs stay filesystem-safe.

Plans whose mechanism cannot be serialized (custom mechanism instances
outside the registry) degrade gracefully to memory-only entries.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from pathlib import Path

from repro.engine.plan import ExecutionPlan
from repro.exceptions import ValidationError
from repro.io.atomic import RetryPolicy, retry_with_backoff

__all__ = ["PlanCache"]

logger = logging.getLogger(__name__)

#: Disk-tier I/O retry: transient ``OSError`` (NFS hiccup, EINTR, a
#: concurrent writer's rename racing the open) is retried a few times with
#: jittered backoff before the cache degrades (miss on read, memory-only on
#: write). Kept short — each attempt may redo real work.
_DISK_RETRY = RetryPolicy(attempts=3, base_delay=0.005, max_delay=0.05)


class PlanCache:
    """Two-tier (memory + optional directory) store of :class:`ExecutionPlan`.

    Parameters
    ----------
    directory:
        ``None`` for a purely in-memory cache; otherwise a directory path
        (created on first write) holding one ``.plan.npz`` file per plan.
    max_entries:
        ``None`` (default) for an unbounded in-memory tier; otherwise the
        maximum number of plans held in memory. Past the cap the
        least-recently-used entry is evicted (lookup hits and stores both
        refresh recency). Eviction is memory-tier only: on-disk archives
        are left intact, so an evicted plan with a directory backend
        reloads from disk on its next lookup instead of refitting.
    ttl_seconds:
        ``None`` (default) for no expiry; otherwise the maximum age of a
        cached plan. Age is measured from the archive's ``saved_at``
        provenance stamp (file mtime for pre-provenance archives); memory
        entries carry the same stamp, so a promoted disk hit expires on
        schedule rather than living forever in memory. An expired entry
        reads as a **miss** — the subsequent ``put`` refits and overwrites
        the stale archive.
    min_solver_version:
        ``None`` (default) to accept any archive; otherwise the lowest
        acceptable :data:`repro.core.alm.SOLVER_VERSION` a disk archive
        may have been fitted under. Archives from older solvers (including
        pre-provenance ones, which read as version 0) miss instead of
        serving a fit the current solver would beat.

    Attributes
    ----------
    hits, misses, disk_hits:
        Lookup counters; ``disk_hits`` counts entries restored from the
        directory backend (a subset of ``hits``).
    evictions:
        In-memory entries dropped by the ``max_entries`` LRU policy.
    expirations:
        Lookups answered as misses because the entry was past
        ``ttl_seconds`` or below ``min_solver_version``.
    """

    def __init__(self, directory=None, max_entries=None, ttl_seconds=None,
                 min_solver_version=None):
        self.directory = Path(directory) if directory is not None else None
        if max_entries is not None:
            from repro.linalg.validation import check_positive_int

            max_entries = check_positive_int(max_entries, "max_entries")
        self.max_entries = max_entries
        if ttl_seconds is not None:
            from repro.linalg.validation import check_positive

            ttl_seconds = check_positive(ttl_seconds, "ttl_seconds")
        self.ttl_seconds = ttl_seconds
        self.min_solver_version = (
            None if min_solver_version is None else int(min_solver_version)
        )
        self._memory = {}  # insertion order doubles as LRU order (oldest first)
        self._saved_at = {}  # key -> provenance stamp of the memory entry
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------------ #
    # Key / path plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _filename(key):
        return hashlib.sha1(str(key).encode("utf-8")).hexdigest() + ".plan.npz"

    def path_for(self, key):
        """On-disk path a plan under ``key`` is (or would be) stored at."""
        if self.directory is None:
            return None
        return self.directory / self._filename(key)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    # ------------------------------------------------------------------ #
    # Staleness (TTL + solver-version provenance)
    # ------------------------------------------------------------------ #
    def _memory_entry_fresh(self, key):
        if self.ttl_seconds is None:
            return True
        stamp = self._saved_at.get(key)
        return stamp is None or time.time() - stamp <= self.ttl_seconds

    def _archive_staleness(self, path):
        """``(stale, info)`` for a disk archive; ``info`` is its provenance
        dict when the gate is configured (``None`` otherwise, or when the
        metadata is unreadable — the load path classifies that failure)."""
        if self.ttl_seconds is None and self.min_solver_version is None:
            return False, None
        from repro.io.serialization import plan_archive_info

        try:
            info = plan_archive_info(path)
        except Exception:
            return False, None
        if (
            self.min_solver_version is not None
            and info["solver_version"] < self.min_solver_version
        ):
            return True, info
        if self.ttl_seconds is not None and info["saved_at"] is not None:
            if time.time() - info["saved_at"] > self.ttl_seconds:
                return True, info
        return False, info

    def get(self, key):
        """Return the cached plan for ``key``, or ``None``.

        Memory first; on a memory miss with a directory backend, the disk
        archive is loaded, verified against ``key``, promoted into memory
        and returned. Corrupt or mismatched archives raise
        :class:`repro.exceptions.ValidationError`. Entries past
        ``ttl_seconds`` — or disk archives fitted below
        ``min_solver_version`` — answer as misses, so the caller refits
        and the subsequent ``put`` overwrites the stale archive.
        """
        plan = self._memory.get(key)
        if plan is not None:
            if self._memory_entry_fresh(key):
                self.hits += 1
                self._touch(key)
                return plan
            # Expired in memory: drop the entry and fall through to the
            # disk tier, whose archive gets its own staleness check (it
            # may have been rewritten by another process since).
            del self._memory[key]
            self._saved_at.pop(key, None)
            self.expirations += 1
        path = self.path_for(key)
        if path is not None and path.exists():
            from repro.io.serialization import PlanFormatError, load_plan

            stale, info = self._archive_staleness(path)
            if stale:
                self.expirations += 1
                self.misses += 1
                return None
            try:
                plan = retry_with_backoff(
                    lambda: load_plan(path), policy=_DISK_RETRY, retry_on=(OSError,)
                )
            except PlanFormatError:
                # Unreadable-but-benign format: an archive from an older
                # library version, or a *newer* one (e.g. a spec archive
                # written by a release whose mechanism class this
                # environment cannot import). A miss — the subsequent
                # put() overwrites it.
                self.misses += 1
                return None
            except ValidationError:
                raise  # integrity/tamper failures must surface, not replan
            except Exception:
                # Truncated/corrupt archive (e.g. a torn write from a
                # crashed writer): quarantine it for post-mortem instead of
                # deleting the evidence, warn, and treat as a miss — the
                # subsequent put() refits and writes a fresh archive.
                quarantine = path.with_name(path.name + ".corrupt")
                try:
                    os.replace(path, quarantine)
                    where = f"quarantined to {quarantine.name}"
                except OSError:
                    where = "quarantine rename failed; leaving in place"
                logger.warning(
                    "plan cache: unreadable archive %s (%s); replanning",
                    path.name,
                    where,
                )
                self.misses += 1
                return None
            if plan.plan_key != key:
                raise ValidationError(
                    f"plan cache integrity failure: archive {path.name} holds key "
                    f"{plan.plan_key!r}, expected {key!r}"
                )
            self._memory[key] = plan
            # The promoted entry inherits the archive's provenance stamp
            # (not "now"), so it expires on the archive's schedule.
            if info is not None and info["saved_at"] is not None:
                self._saved_at[key] = info["saved_at"]
            else:
                self._saved_at[key] = time.time()
            self._evict_over_cap()
            self.hits += 1
            self.disk_hits += 1
            return plan
        self.misses += 1
        return None

    def _touch(self, key):
        """Mark ``key`` most-recently-used (re-append in dict order)."""
        if self.max_entries is not None:
            self._memory[key] = self._memory.pop(key)

    def _evict_over_cap(self):
        """Drop least-recently-used memory entries past ``max_entries``.

        Disk archives are never touched: eviction trades memory for a
        (cheap) disk reload, not for a refit.
        """
        if self.max_entries is None:
            return
        while len(self._memory) > self.max_entries:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self._saved_at.pop(oldest, None)
            self.evictions += 1

    def put(self, key, plan):
        """Store ``plan`` under ``key`` in memory and (if configured) on disk.

        Plans that cannot be serialized (mechanisms outside the registry)
        — and disk-tier write failures (read-only or full filesystem) —
        degrade to memory-only entries rather than failing the planning
        call: the caller already paid for the fit and must receive it.
        """
        if not isinstance(plan, ExecutionPlan):
            raise ValidationError("PlanCache stores ExecutionPlan objects")
        if key in self._memory:
            self._memory.pop(key)  # re-append: a store refreshes recency
        self._memory[key] = plan
        self._saved_at[key] = time.time()
        self._evict_over_cap()
        path = self.path_for(key)
        if path is None:
            return
        from repro.io.serialization import save_plan

        # save_plan writes through repro.io.atomic.atomic_writer (unique
        # per-writer staging file, fsync, rename-over) so a crash mid-save —
        # or concurrent engines sharing the directory — never exposes a
        # half-written archive. Transient OSErrors are retried briefly.
        def _write():
            self.directory.mkdir(parents=True, exist_ok=True)
            save_plan(plan, path)

        try:
            retry_with_backoff(_write, policy=_DISK_RETRY, retry_on=(OSError,))
        except (ValidationError, OSError):
            # Unsupported mechanism state or unwritable disk tier
            # (including a rename refused because a concurrent reader
            # holds the target open): keep the memory entry only.
            return

    def __contains__(self, key):
        """Existence check only (memory entry or disk archive file): a True
        here does not guarantee :meth:`get` can load the archive — a corrupt
        file still answers ``None`` from ``get``."""
        if key in self._memory:
            return True
        path = self.path_for(key)
        return path is not None and path.exists()

    def __len__(self):
        """Number of in-memory entries (disk archives load lazily)."""
        return len(self._memory)

    def keys(self):
        """Keys of the in-memory entries."""
        return list(self._memory)

    def clear(self, disk=False):
        """Drop the in-memory tier; with ``disk=True`` also delete archives
        (including staging files a crashed writer may have leaked and
        ``*.corrupt`` quarantine files)."""
        self._memory.clear()
        self._saved_at.clear()
        if disk and self.directory is not None and self.directory.exists():
            for pattern in ("*.plan.npz", "*.tmp.npz", "*.tmp", "*.corrupt"):
                for archive in self.directory.glob(pattern):
                    archive.unlink()

    def __repr__(self):
        backend = f"dir={self.directory}" if self.directory else "memory-only"
        return (
            f"PlanCache({backend}, entries={len(self._memory)}, "
            f"hits={self.hits}, disk_hits={self.disk_hits}, misses={self.misses})"
        )
