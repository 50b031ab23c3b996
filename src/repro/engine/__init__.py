"""Deployment layer: planner/executor query engine and mechanism selection.

The public surface follows a DBMS-style split: ``engine.plan(workload)``
returns an inspectable, cacheable :class:`ExecutionPlan`;
``engine.execute(plan, epsilon)`` performs the budget-audited noisy
release, charged through the accountant's one release transaction
(``spend_keyed``).
"""

from repro.engine.compiled import CompiledPlan
from repro.engine.plan import ExecutionPlan, PlanCandidate, build_plan, plan_key
from repro.engine.plan_cache import PlanCache
from repro.engine.query_engine import PrivateQueryEngine, Release
from repro.engine.selection import (
    APPROX_DP_CANDIDATES,
    DEFAULT_CANDIDATES,
    MechanismChoice,
    rank_mechanisms,
    select_mechanism,
)

__all__ = [
    "APPROX_DP_CANDIDATES",
    "CompiledPlan",
    "DEFAULT_CANDIDATES",
    "ExecutionPlan",
    "MechanismChoice",
    "PlanCache",
    "PlanCandidate",
    "PrivateQueryEngine",
    "Release",
    "build_plan",
    "plan_key",
    "rank_mechanisms",
    "select_mechanism",
]
