"""Helpers shared by the workloads: statistics, memory, the correctness gate."""

from __future__ import annotations

import resource

import numpy as np


#: The traced run's layer self-times must add up to the untraced mean
#: latency within this share of it; the rest is reported as unattributed.
LAYER_SUM_TOLERANCE = 0.10


def quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def growth(values):
    """p50 of the last fifth of ``values`` over p50 of the first fifth."""
    fifth = max(len(values) // 5, 1)
    return float(np.median(values[-fifth:]) / np.median(values[:fifth]))


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Gate:
    """Correctness checks of one run; any failure voids its numbers."""

    #: Empirical MSE must sit within this many standard errors of the
    #: analytic expected error (a two-sided z-test; 5 sigma keeps a
    #: correct program from failing by chance while a noise scale off by
    #: a few percent still fails at the sample sizes used).
    MSE_SIGMAS = 5.0

    #: Fewest fresh releases of a plan the MSE check accepts.
    MSE_MIN_SAMPLES = 100

    def __init__(self):
        self.failures = []
        self.notes = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def passed(self):
        return not self.failures

    def release(self, values, m, cost, where):
        """A reply carries ``m`` finite values and its cost record."""
        values = np.asarray(values, dtype=np.float64)
        ok = values.shape == (m,) and bool(np.isfinite(values).all())
        self.check(ok, f"{where}: expected {m} finite values, got shape {values.shape}")
        self.check(self._cost_record(cost), f"{where}: missing cost record ({cost!r})")

    def releases(self, answers, m, costs, where):
        """Every reply of one plan carries ``m`` finite values and its
        cost record (the answers are checked as one stacked array)."""
        shapes = {np.shape(values) for values in answers}
        if not self.check(shapes <= {(m,)}, f"{where}: expected {m} values per "
                          f"reply, got shapes {sorted(shapes)}"):
            return
        if answers:
            stacked = np.asarray(answers, dtype=np.float64)
            bad = int((~np.isfinite(stacked).all(axis=1)).sum())
            self.check(not bad, f"{where}: {bad} of {len(answers)} replies hold "
                       "non-finite values")
        missing = sum(1 for cost in costs if not self._cost_record(cost))
        self.check(not missing, f"{where}: {missing} of {len(costs)} replies lack "
                   "a cost record")

    @staticmethod
    def _cost_record(cost):
        return isinstance(cost, dict) and "family" in cost and "epsilon" in cost

    def layer_sum(self, unattributed, where):
        """The traced layers account for the untraced mean latency: the
        ``unattributed`` share ``(untraced - layers) / untraced`` is within
        tolerance."""
        self.check(
            abs(unattributed) <= LAYER_SUM_TOLERANCE,
            f"{where}: {unattributed:+.1%} of the untraced latency is unattributed, "
            f"beyond the {LAYER_SUM_TOLERANCE:.0%} tolerance",
        )

    def mse(self, name, answers, truth, expected):
        """Empirical mean squared error of fresh releases against the
        true answers ``W x`` agrees with the analytic ``expected``."""
        answers = np.asarray(answers, dtype=np.float64)
        if not self.check(
            len(answers) >= self.MSE_MIN_SAMPLES,
            f"{name}: only {len(answers)} fresh releases for the MSE check",
        ):
            return
        errors = ((answers - truth) ** 2).sum(axis=1)
        empirical = float(errors.mean())
        stderr = float(errors.std(ddof=1) / np.sqrt(len(errors)))
        z = (empirical - expected) / stderr
        self.notes.append(
            f"mse {name}: empirical/expected = {empirical / expected:.4f} "
            f"(z = {z:+.2f}, n = {len(errors)})"
        )
        self.check(
            abs(z) <= self.MSE_SIGMAS,
            f"{name}: empirical MSE {empirical:.6g} is {z:+.1f} standard errors "
            f"from the analytic expected error {expected:.6g}",
        )
