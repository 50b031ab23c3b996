"""repro — reproduction of the Low-Rank Mechanism (Yuan et al., VLDB 2012).

Answers batches of linear counting queries under eps-differential privacy by
decomposing the workload matrix ``W = B L`` and injecting Laplace noise into
the low-rank intermediate ``L x`` (the Low-Rank Mechanism), alongside full
implementations of the baselines it is evaluated against: the Laplace
mechanism (noise on data and on results), the Wavelet Mechanism, the
Hierarchical Mechanism and the Matrix Mechanism.

Quickstart::

    import numpy as np
    from repro import LowRankMechanism, wrelated

    workload = wrelated(m=64, n=256, s=10, seed=0)
    x = np.random.default_rng(1).integers(0, 100, 256).astype(float)
    mech = LowRankMechanism(gamma=1e-2).fit(workload)
    noisy_answers = mech.answer(x, epsilon=1.0, rng=2)
"""

from repro.core.alm import (
    Decomposition,
    decompose_workload,
    decompose_workload_operator,
)
from repro.core.bounds import (
    approximation_ratio,
    bound_summary,
    hardt_talwar_lower_bound,
    lrm_error_upper_bound,
    relaxed_error_bound,
)
from repro.core.kron import KronLowRankMechanism
from repro.core.lrm import GaussianLowRankMechanism, LowRankMechanism
from repro.data.datasets import load_dataset, net_trace, search_logs, social_network
from repro.data.histogram import DomainMapper, grid_histogram_from_records, histogram_from_records
from repro.engine import (
    ExecutionPlan,
    PlanCache,
    PrivateQueryEngine,
    Release,
    build_plan,
    rank_mechanisms,
    select_mechanism,
)
from repro.data.transforms import merge_to_domain
from repro.exceptions import (
    DecompositionError,
    NotFittedError,
    PrivacyBudgetError,
    ReproError,
    ValidationError,
)
from repro.analysis.postprocess import postprocess_answers, project_consistent
from repro.io.serialization import (
    load_decomposition,
    load_fitted_lrm,
    load_plan,
    save_decomposition,
    save_fitted_lrm,
    save_plan,
)
from repro.mechanisms import (
    GaussianNoiseOnDataMechanism,
    GaussianNoiseOnResultsMechanism,
    HierarchicalMechanism,
    LaplaceMechanism,
    MatrixMechanism,
    Mechanism,
    NoiseOnDataMechanism,
    NoiseOnResultsMechanism,
    SVDStrategyMechanism,
    StrategyMechanism,
    WaveletMechanism,
    make_mechanism,
)
from repro.privacy.accountant import (
    ApproxDPAccountant,
    BudgetAccountant,
    PureDPAccountant,
    make_accountant,
)
from repro.workloads import (
    Workload,
    allrange_workload,
    identity_workload,
    marginals_workload,
    prefix_workload,
    sliding_window_workload,
    total_workload,
    wdiscrete,
    workload_by_name,
    wrange,
    wrelated,
)

__version__ = "1.0.0"

__all__ = [
    "ApproxDPAccountant",
    "BudgetAccountant",
    "Decomposition",
    "DecompositionError",
    "DomainMapper",
    "ExecutionPlan",
    "GaussianLowRankMechanism",
    "GaussianNoiseOnDataMechanism",
    "GaussianNoiseOnResultsMechanism",
    "HierarchicalMechanism",
    "KronLowRankMechanism",
    "LaplaceMechanism",
    "LowRankMechanism",
    "MatrixMechanism",
    "Mechanism",
    "NoiseOnDataMechanism",
    "NoiseOnResultsMechanism",
    "NotFittedError",
    "PlanCache",
    "PrivacyBudgetError",
    "PrivateQueryEngine",
    "PureDPAccountant",
    "Release",
    "ReproError",
    "SVDStrategyMechanism",
    "StrategyMechanism",
    "ValidationError",
    "WaveletMechanism",
    "Workload",
    "__version__",
    "allrange_workload",
    "approximation_ratio",
    "bound_summary",
    "build_plan",
    "decompose_workload",
    "decompose_workload_operator",
    "grid_histogram_from_records",
    "hardt_talwar_lower_bound",
    "histogram_from_records",
    "identity_workload",
    "load_dataset",
    "load_decomposition",
    "load_fitted_lrm",
    "load_plan",
    "lrm_error_upper_bound",
    "make_accountant",
    "make_mechanism",
    "marginals_workload",
    "merge_to_domain",
    "net_trace",
    "postprocess_answers",
    "prefix_workload",
    "project_consistent",
    "rank_mechanisms",
    "relaxed_error_bound",
    "save_decomposition",
    "save_fitted_lrm",
    "save_plan",
    "select_mechanism",
    "sliding_window_workload",
    "search_logs",
    "social_network",
    "total_workload",
    "wdiscrete",
    "workload_by_name",
    "wrange",
    "wrelated",
]
