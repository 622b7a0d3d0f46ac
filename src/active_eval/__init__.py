"""Label-efficient benchmark risk estimation.

Estimates a target model's full-pool risk from a small labeled subset:
surrogate generations give per-instance semantic-entropy and
self-consistency signals, the pool is stratified on entropy, the label
budget is spread over strata with a smoothed proxy for Neyman allocation,
and a stratified inverse-inclusion-probability estimator recovers the pool
risk without bias. A Monte Carlo harness compares estimators (uniform,
size-based baselines, the proxy rule, and the infeasible oracle reference)
by MSE at matched budgets.
"""

from .allocate import (
    AllocationPlan,
    StratumWeights,
    baseline_weights,
    oracle_neyman_weights,
    proxy_neyman_weights,
    round_allocation,
)
from .errors import ConfigError, DataError
from .estimate import (
    RiskEstimate,
    draw_stratified,
    ht_estimate,
    trial_rng,
    uniform_estimate,
)
from .genclient import BuildStats, DecodingConfig, EndpointConfig, build_pool, generate_k
from .harness import (
    ExperimentReport,
    MethodSpec,
    ReportRow,
    SavingsRecord,
    SkippedCell,
    budget_savings,
    mse,
    mse_noise_band,
    relative_mse,
    run_trials,
    sem,
    sweep,
)
from .ingest import (
    IngestStats,
    ParserSpec,
    answer_parser,
    export_pool,
    load_pool,
    parse_answer,
)
from .pool import Pool, PoolInstance, finite_pool_risk
from .signals import UNPARSED_LABEL, answer_histogram, self_consistency, semantic_entropy
from .stratify import (
    Stratification,
    adaptive_se_stratify,
    equal_width_stratify,
    kmeans_stratify,
    quantile_stratify,
    stratify,
    stratum_mean_sc,
)
from .synth import SynthConfig, make_pool, reference_pool

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "BuildStats",
    "ConfigError",
    "DataError",
    "DecodingConfig",
    "EndpointConfig",
    "ExperimentReport",
    "IngestStats",
    "MethodSpec",
    "ParserSpec",
    "Pool",
    "PoolInstance",
    "ReportRow",
    "RiskEstimate",
    "SavingsRecord",
    "SkippedCell",
    "Stratification",
    "StratumWeights",
    "SynthConfig",
    "UNPARSED_LABEL",
    "adaptive_se_stratify",
    "answer_histogram",
    "answer_parser",
    "baseline_weights",
    "budget_savings",
    "build_pool",
    "draw_stratified",
    "equal_width_stratify",
    "export_pool",
    "finite_pool_risk",
    "generate_k",
    "ht_estimate",
    "kmeans_stratify",
    "load_pool",
    "make_pool",
    "mse",
    "mse_noise_band",
    "oracle_neyman_weights",
    "parse_answer",
    "proxy_neyman_weights",
    "quantile_stratify",
    "reference_pool",
    "relative_mse",
    "round_allocation",
    "run_trials",
    "self_consistency",
    "sem",
    "semantic_entropy",
    "stratify",
    "stratum_mean_sc",
    "sweep",
    "trial_rng",
    "uniform_estimate",
]
