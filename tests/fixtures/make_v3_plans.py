"""Regenerate the committed plan-archive format-3 fixtures.

These fixtures pin the on-disk compatibility contract of the plan cache:
archives written before every archive became version 4 (registry plans
refit on load, low-rank plans carrying their decomposition) must still
restore to the same strategy and the same answers. A format-3 archive is
a format-4 archive without a ``mechanism_archive`` member, so the version
stamp is the only difference from today's writer. Run from the repo root:

    PYTHONPATH=src python tests/fixtures/make_v3_plans.py

``tests/test_plan.py::TestPlanArchiveCompatibility`` loads the archives
and compares them with ``v3_expected.npz``, written here from the plans
before they were saved.
"""

import json
import os

import numpy as np

from repro.engine.plan import build_plan
from repro.io.serialization import save_plan
from repro.workloads import wrange, wrelated

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "plans")

#: The release every fixture is answered with: unit counts, epsilon and
#: noise seed.
DATA = np.arange(64.0)
EPSILON = 0.5
SEED = 2012

FAST_LRM = {"max_outer": 15, "max_inner": 3, "nesterov_iters": 15, "stall_iters": 5}


def stamp_v3(path):
    """Rewrite the archive's version stamp as 3 (a no-op for a writer that
    already writes 3)."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    metadata = json.loads(bytes(members["metadata"].tobytes()).decode("utf-8"))
    assert "mechanism_archive" not in metadata, "a spec archive has no v3 form"
    assert metadata["plan_format_version"] in (3, 4)
    metadata["plan_format_version"] = 3
    members["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **members)


def main():
    os.makedirs(OUT, exist_ok=True)
    lm = build_plan(wrange(6, 64, seed=0), mechanism="LM")
    lrm = build_plan(
        wrelated(8, 64, s=2, seed=1), mechanism="LRM",
        mechanism_kwargs={"LRM": FAST_LRM},
    )
    expected = {}
    for name, plan in (("lm", lm), ("lrm", lrm)):
        path = os.path.join(OUT, f"v3_{name}.plan.npz")
        save_plan(plan, path)
        stamp_v3(path)
        expected[f"{name}_answers"] = plan.mechanism.answer(
            DATA, EPSILON, rng=np.random.default_rng(SEED)
        )
        print(f"{os.path.basename(path):20s} spec={plan.mechanism_spec}")
    expected["lrm_b"] = lrm.mechanism.decomposition.b
    expected["lrm_l"] = lrm.mechanism.decomposition.l
    np.savez_compressed(os.path.join(OUT, "v3_expected.npz"), **expected)


if __name__ == "__main__":
    main()
