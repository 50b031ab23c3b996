"""Failpoint registry: deterministic fault injection for crash-safety tests.

Durability claims are only as good as their verification. This module gives
the ledger (and any other write path) named **failpoints** — instrumented
sites like ``"ledger.commit.before_append"`` — that tests can arm with one
of three actions:

* ``"crash"`` — die on the spot via ``os._exit(137)``, with no cleanup, no
  flushing and no atexit handlers: the closest in-process equivalent of
  ``kill -9`` landing between two instructions.
* ``"torn"`` — only meaningful at write sites routed through
  :func:`guarded_write`: write roughly *half* of the pending bytes, then
  crash. Simulates a torn write / partial fsync — the on-disk state a real
  power cut can leave when a record straddles the crash point.
* ``"error"`` — raise :class:`InjectedFault` (an ``OSError`` subclass), so
  in-process tests can exercise error-handling paths without killing the
  interpreter.
* ``"delay"`` / ``"delay:SECONDS"`` — sleep at the firing site, then
  continue. Simulates a *hung* (not dead) component: a worker armed with
  ``serving.worker.request=delay:2.5`` stalls its pipe long enough for the
  parent's per-request deadline to fire and the supervisor to kill it.

Arming is either **programmatic** (the :meth:`FailPointRegistry.active`
context manager, or helpers like :meth:`FailPoint.crash_before`) for
in-process tests, or via the ``REPRO_FAILPOINTS`` **environment variable**
(``"name=action,name=action"``) so a subprocess worker picks its faults up
at import time — the transport the crash-matrix suite in
``tests/test_ledger_faults.py`` uses to kill a worker at every registered
point and assert recovery. A serving worker is forked with this module
already imported, so it re-reads the variable at startup
(:meth:`FailPointRegistry.load_environ`).

Every firing site must be *registered* (at import time of the module that
embeds it); firing or arming an unknown name raises — a misspelled
failpoint must fail the test loudly, not silently never trigger.

Production overhead is one dict lookup per instrumented call when nothing
is armed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "InjectedFault",
    "FailPoint",
    "FailPointRegistry",
    "failpoints",
    "fire",
    "guarded_write",
    "registered_failpoints",
    "ledger_write_failpoints",
    "serving_failpoints",
]

#: Environment variable read at registry construction (i.e. at import in a
#: subprocess) and by :meth:`FailPointRegistry.load_environ`:
#: ``"point=action[,point=action...]"``.
ENV_VAR = "REPRO_FAILPOINTS"

#: Exit status of a ``crash``/``torn`` action — chosen to match the shell's
#: status for a SIGKILL-ed process, so test assertions read naturally.
CRASH_EXIT_CODE = 137

_ACTIONS = ("crash", "torn", "error", "delay")

#: Sleep applied by a bare ``"delay"`` arming (no ``:SECONDS`` suffix).
DEFAULT_DELAY_SECONDS = 0.05


def _parse_delay(action):
    """``"delay"`` / ``"delay:1.5"`` -> seconds, or None for other actions."""
    if action == "delay":
        return DEFAULT_DELAY_SECONDS
    if action.startswith("delay:"):
        try:
            seconds = float(action.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed delay action {action!r}; expected 'delay:SECONDS'")
        if seconds < 0:
            raise ValueError(f"delay action {action!r} must not be negative")
        return seconds
    return None


class InjectedFault(OSError):
    """The error raised by an ``"error"``-armed failpoint.

    Subclasses :class:`OSError` on purpose: injected faults flow through
    the same ``except OSError`` handling real disk failures do, so the
    recovery paths tests exercise are the production ones.
    """


class FailPointRegistry:
    """The set of known failpoints plus whichever are currently armed."""

    def __init__(self, environ=None):
        self._known = {}  # name -> doc
        self._armed = {}  # name -> action
        self.load_environ(environ)

    def load_environ(self, environ=None):
        """Replace the armed set with the ``REPRO_FAILPOINTS`` arming of
        ``environ`` (default ``os.environ``): registered points arm now,
        the rest when they register. A process forked with this module
        already imported calls it to arm what its own environment names,
        exactly as a fresh import would."""
        self._armed.clear()
        self._env_pending = self._parse_env(
            (os.environ if environ is None else environ).get(ENV_VAR, "")
        )
        for name in [name for name in self._env_pending if name in self._known]:
            self.arm(name, self._env_pending.pop(name))

    @staticmethod
    def _parse_env(spec):
        pending = {}
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, action = entry.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed {ENV_VAR} entry {entry!r}; expected 'point=action'"
                )
            pending[name.strip()] = action.strip()
        return pending

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name, doc=""):
        """Declare a failpoint (idempotent). Env-armed names attach here —
        the environment may name points whose module is not imported yet."""
        self._known.setdefault(name, doc)
        if name in self._env_pending:
            self.arm(name, self._env_pending.pop(name))
        return name

    def known(self):
        """All registered failpoint names, sorted."""
        return sorted(self._known)

    def _check_known(self, name):
        if name not in self._known:
            raise KeyError(
                f"unknown failpoint {name!r}; registered points: {self.known()}"
            )

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #
    def arm(self, name, action):
        self._check_known(name)
        if action not in _ACTIONS and _parse_delay(action) is None:
            raise ValueError(f"unknown failpoint action {action!r}; choose from {_ACTIONS}")
        self._armed[name] = action

    def disarm(self, name=None):
        """Disarm one point (or all of them with ``name=None``)."""
        if name is None:
            self._armed.clear()
        else:
            self._armed.pop(name, None)

    def action(self, name):
        """The armed action for ``name`` (None when unarmed)."""
        self._check_known(name)
        return self._armed.get(name)

    @contextmanager
    def active(self, name, action="error"):
        """Arm ``name`` for the duration of a ``with`` block."""
        self.arm(name, action)
        try:
            yield self
        finally:
            self.disarm(name)

    # ------------------------------------------------------------------ #
    # Firing
    # ------------------------------------------------------------------ #
    def fire(self, name):
        """Trigger ``name``: no-op when unarmed, otherwise act.

        ``"torn"`` armed on a non-write site degrades to a plain crash —
        the torn half-write itself only happens inside
        :func:`guarded_write`.
        """
        action = self.action(name)
        if action is None:
            return
        if action == "error":
            raise InjectedFault(f"injected fault at failpoint {name!r}")
        delay = _parse_delay(action)
        if delay is not None:
            import time

            time.sleep(delay)
            return
        os._exit(CRASH_EXIT_CODE)

    def guarded_write(self, fh, data, point):
        """Write ``data`` to ``fh``, honouring a ``"torn"`` arming of
        ``point``: flush roughly half the bytes to disk, then crash."""
        self._check_known(point)
        if self._armed.get(point) == "torn":
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:
                pass
            os._exit(CRASH_EXIT_CODE)
        fh.write(data)


#: The process-wide registry every instrumented site fires against.
failpoints = FailPointRegistry()


def fire(name):
    """Module-level shorthand for :meth:`FailPointRegistry.fire`."""
    failpoints.fire(name)


def guarded_write(fh, data, point):
    """Module-level shorthand for :meth:`FailPointRegistry.guarded_write`."""
    failpoints.guarded_write(fh, data, point)


def registered_failpoints():
    """All registered failpoint names (sorted)."""
    return failpoints.known()


class FailPoint:
    """Convenience arming helpers (class-level, operate on the global
    registry): ``FailPoint.crash_before("ledger.commit")`` arms the crash
    at the commit record's ``before_append`` site."""

    @staticmethod
    def crash_before(stage):
        failpoints.arm(f"{stage}.before_append", "crash")

    @staticmethod
    def crash_after(stage):
        failpoints.arm(f"{stage}.after_append", "crash")

    @staticmethod
    def torn(stage):
        failpoints.arm(f"{stage}.torn", "torn")

    @staticmethod
    def error_at(name):
        failpoints.arm(name, "error")

    @staticmethod
    def clear():
        failpoints.disarm()


# ---------------------------------------------------------------------- #
# Ledger write-path failpoints
# ---------------------------------------------------------------------- #
# Registered here (not in ledger.py) so the crash-matrix suite can
# enumerate them without importing the ledger, and so the set of points the
# acceptance matrix must cover is an explicit, reviewable list. The ledger
# fires exactly these names.
_JOURNAL_SPEND_POINTS = tuple(
    f"ledger.{record}.{site}"
    for record in ("intent", "commit")
    for site in ("before_append", "torn", "after_append")
)
_SQLITE_SPEND_POINTS = tuple(
    f"ledger.{record}.{site}"
    for record in ("intent", "commit")
    for site in ("before_append", "after_append")
) + ("sqlite.txn.before_commit", "sqlite.txn.after_commit")

for _name in _JOURNAL_SPEND_POINTS:
    failpoints.register(_name, "durable-ledger spend write path (journal backend)")
for _name in _SQLITE_SPEND_POINTS:
    failpoints.register(_name, "durable-ledger spend write path (sqlite backend)")
failpoints.register("journal.compact.before_replace", "journal compaction/rotation")
failpoints.register("journal.compact.after_replace", "journal compaction/rotation")
failpoints.register("io.atomic.before_replace", "atomic on-disk writes (serialization)")
failpoints.register("io.atomic.after_replace", "atomic on-disk writes (serialization)")


# ---------------------------------------------------------------------- #
# Serving-tier failpoints
# ---------------------------------------------------------------------- #
# Fired by the worker loop, the TCP front-end and the hot-reload path.
# ``crash`` at a worker point is the kill-worker drill; ``delay:SECONDS``
# at ``serving.worker.request`` is the hung-pipe drill the per-request
# deadline must catch; the reload points let the chaos suite crash the
# parent-side staging/swap mid-flight.
_SERVING_POINTS = (
    ("serving.worker.boot", "worker startup, before the ready handshake"),
    ("serving.worker.request", "worker loop, after recv and before dispatch"),
    ("serving.worker.before_reply", "worker loop, after dispatch and before send"),
    ("serving.conn.drop", "TCP front-end, before writing a reply line"),
    ("serving.reload.before_stage", "hot reload, before staging the new segment"),
    ("serving.reload.before_swap", "hot reload, staged but before worker swap"),
    ("serving.reload.mid_swap", "hot reload, between per-slot generation swaps"),
)
for _name, _doc in _SERVING_POINTS:
    failpoints.register(_name, _doc)


def serving_failpoints():
    """The serving-tier failpoint names (the chaos suite's drill list)."""
    return [name for name, _ in _SERVING_POINTS]


def ledger_write_failpoints(backend="journal"):
    """The failpoints on the **spend** write path of one ledger backend —
    the set the crash-recovery acceptance matrix iterates (each armed as a
    ``crash``, or as ``torn`` for the ``.torn`` sites)."""
    if backend == "journal":
        return list(_JOURNAL_SPEND_POINTS)
    if backend == "sqlite":
        return list(_SQLITE_SPEND_POINTS)
    raise ValueError(f"unknown ledger backend {backend!r}; choose 'journal' or 'sqlite'")
