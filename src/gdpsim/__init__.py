"""Fully-adaptive composition for Gaussian differential privacy, executably.

The package provides the budget filter that admits a query iff the running
sum of squared spends stays within the total squared budget, an interactive
Gaussian curator over a secret bit, a one-Gaussian-input simulator built on
an online Cholesky factorization of I - m m^T, and a Monte-Carlo harness
that certifies the simulator's transcripts are distributed identically to
the real curator's under adaptive adversaries.
"""

from .adversaries import (
    AdversaryPolicy,
    make_policy,
    policy_fixed,
    policy_greedy_halving,
    policy_overspend_prober,
    policy_sign_adaptive,
)
from .batch import BatchResult, run_trial_batch
from .budget import FilterState, filter_new, remaining_sq, try_spend
from .cholesky import (
    DenseCholesky,
    StreamingCholesky,
    dense_state,
    extend,
    next_noise,
    streaming_state,
)
from .curator import Round, Session, Transcript, open_session, run_interaction
from .errors import (
    BudgetOverflowError,
    ConfigError,
    GdpSimError,
    NumericalIntegrityError,
    SessionClosedError,
)
from .harness import (
    CholeskyVerification,
    ExperimentConfig,
    ExperimentReport,
    canonical_cholesky_oracle,
    config_from_dict,
    emit_transcripts,
    load_config,
    parse_transcripts,
    report_table,
    run_experiment,
    verify_cholesky,
    with_seed,
    write_transcripts,
)
from .mechanisms import (
    PostprocessedMechanism,
    make_mechanism,
    reduce_and_serve,
    sample,
)
from .stats import (
    TestReport,
    covariance_deviation,
    empirical_moments,
    kolmogorov_sf,
    ks_two_sample,
    normal_cdf,
    normality_check,
    two_proportion_z,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryPolicy",
    "BatchResult",
    "BudgetOverflowError",
    "CholeskyVerification",
    "ConfigError",
    "DenseCholesky",
    "ExperimentConfig",
    "ExperimentReport",
    "FilterState",
    "GdpSimError",
    "NumericalIntegrityError",
    "PostprocessedMechanism",
    "Round",
    "Session",
    "SessionClosedError",
    "StreamingCholesky",
    "TestReport",
    "Transcript",
    "canonical_cholesky_oracle",
    "config_from_dict",
    "covariance_deviation",
    "dense_state",
    "emit_transcripts",
    "empirical_moments",
    "extend",
    "filter_new",
    "kolmogorov_sf",
    "ks_two_sample",
    "load_config",
    "make_mechanism",
    "make_policy",
    "next_noise",
    "normal_cdf",
    "normality_check",
    "open_session",
    "parse_transcripts",
    "policy_fixed",
    "policy_greedy_halving",
    "policy_overspend_prober",
    "policy_sign_adaptive",
    "reduce_and_serve",
    "remaining_sq",
    "report_table",
    "run_experiment",
    "run_interaction",
    "run_trial_batch",
    "sample",
    "streaming_state",
    "try_spend",
    "two_proportion_z",
    "verify_cholesky",
    "with_seed",
    "write_transcripts",
]
