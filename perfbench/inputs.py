"""Every benchmark input, generated from the workload seed.

The program under test receives only what these functions return: the
paper workloads, the private data vector, the request streams and the
aged-ledger history. Each consumer draws from its own named stream, so
adding a draw to one stream never shifts another.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Privacy parameter of every release the benchmark issues.
EPSILON = 0.1

#: Domain size shared by every workload (one data vector serves them all).
DOMAIN = 128

#: Per-tenant budget: large enough that no workload exhausts it.
TOTAL_BUDGET = 1e9


def stream(seed, name):
    """An independent generator for one named input stream."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def data_vector(seed):
    """The private histogram: non-negative integral unit counts."""
    return stream(seed, "data").integers(0, 1000, DOMAIN).astype(np.float64)


def normalized(workload):
    """``workload`` scaled to nuclear norm ``m`` (its number of queries).

    A common factor rescales every query alike, keeps the workload's
    structure and scales every mechanism's error by its square. Without it
    the analytic error swings with the random scale of the drawn matrix
    from seed to seed: over ten seeds, the inter-quartile spread of the
    library workload's summed error was 0.077 unscaled and 0.040 scaled,
    and that of the 32 x 128 WRelated LRM plan 0.070 at unit mean squared
    entry and 0.036 at unit nuclear norm per query."""
    from repro.workloads import Workload

    matrix = workload.matrix
    nuclear = float(np.linalg.svd(matrix, compute_uv=False).sum())
    return Workload(matrix * (matrix.shape[0] / nuclear), name=workload.name,
                    metadata=workload.metadata)


def _families():
    from repro.workloads import wdiscrete, wrange, wrelated

    return {"wrelated": wrelated, "wrange": wrange, "wdiscrete": wdiscrete}


def paper_workloads(seed, m=32, instances=1, draw=0):
    """The paper's three workload families at ``m x DOMAIN``, normalized,
    ``instances`` independent draws of each (named ``<family><i>``);
    each ``draw`` number gives other matrices."""
    rng = stream(seed, f"paper-workloads-{draw}")
    workloads = {}
    for instance in range(instances):
        for family, make in _families().items():
            workload = make(m, DOMAIN, seed=int(rng.integers(0, 2**31)))
            workloads[f"{family}{instance}"] = normalized(workload)
    return workloads


#: Plans served by the serve workloads: name -> (family, m, mechanism).
#: The mix has several shapes; the hot tenant serves one plan, planned with
#: ``"auto"`` (every candidate fitted and ranked; LRM wins on WRelated).
HOT_PLANS = {"hot": ("wrelated", 32, "auto")}
MIX_PLANS = {
    "related": ("wrelated", 32, "LRM"),
    "range": ("wrange", 48, "LM"),
    "discrete": ("wdiscrete", 16, "NOR"),
}


def serve_workloads(seed, plans):
    """The normalized workload behind each served plan."""
    makers = _families()
    rng = stream(seed, "serve-workloads")
    workloads = {}
    for name, (family, m, _) in sorted(plans.items()):
        workloads[name] = normalized(makers[family](m, DOMAIN, seed=int(rng.integers(0, 2**31))))
    return workloads


def key(seed, tag, index):
    """A deterministic idempotency key."""
    return f"s{seed}-{tag}-{index}"


def hot_stream(seed, count, batch, tag="hot", retry_every=10):
    """The serve_hot_tenant request stream in issue order, as
    ``(kind, tenant, plan, key)`` ops on tenant and plan ``hot``, keyed
    under ``tag``.

    Requests come in groups of ``batch``. Every ``retry_every``-th group
    re-sends the keys of the group four groups earlier (a client retrying
    a whole batch), so the ledger also serves pure-duplicate
    transactions; the rest are fresh keyed releases. With at most
    ``batch`` requests in flight the retried keys have completed. (An
    interval that is not a multiple of four spreads the retried batches
    over both sides of the traced run's four-block alternation.)
    """
    ops = []
    for index in range(count):
        group, slot = divmod(index, batch)
        if group % retry_every == retry_every - 1:
            ops.append(("retry", "hot", "hot", key(seed, tag, (group - 4) * batch + slot)))
        else:
            ops.append(("fresh", "hot", "hot", key(seed, tag, index)))
    return ops


def mix_stream(seed, tenants, plans, count, tag="mix"):
    """The serve_tenant_mix request stream in issue order, drawn from and
    keyed under ``tag``.

    Each op is ``(kind, tenant, plan, key)``. ``kind`` is one of ``fresh``
    (new idempotency key), ``unkeyed`` (``key=False``), ``retry`` (the key
    of an earlier ``fresh`` op, which has completed by then because the
    client is closed-loop) and ``budget`` (a budget read; ``plan`` and
    ``key`` are None).
    """
    rng = stream(seed, f"{tag}-requests")
    kinds = rng.choice(
        ["fresh", "unkeyed", "retry", "budget"], size=count,
        p=[0.6, 0.15, 0.15, 0.1],
    )
    tenant_picks = rng.integers(0, len(tenants), count)
    plan_picks = rng.integers(0, len(plans), count)
    retry_picks = rng.random(count)
    ops = []
    issued = []  # (tenant, plan, key) of every fresh op so far
    for index in range(count):
        kind = str(kinds[index])
        tenant = tenants[tenant_picks[index]]
        plan = plans[plan_picks[index]]
        if kind == "retry" and not issued:
            kind = "fresh"
        if kind == "fresh":
            issued.append((tenant, plan, key(seed, tag, index)))
            ops.append(("fresh",) + issued[-1])
        elif kind == "unkeyed":
            ops.append(("unkeyed", tenant, plan, None))
        elif kind == "retry":
            ops.append(("retry",) + issued[int(retry_picks[index] * len(issued))])
        else:
            ops.append(("budget", tenant, None, None))
    return ops
