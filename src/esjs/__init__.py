"""Goodness-of-fit via the empirical survival Jensen-Shannon divergence.

Fit parametric distributions to data by maximum likelihood, score the fits
with the divergence between empirical survival functions, attach bootstrap
confidence intervals, and rank competing families by divergence factors.
"""

from .bootstrap import (
    BootstrapConfig,
    ConfidenceInterval,
    bootstrap_ci,
    moving_block_resample,
    percentile_of_replicates,
    replicate_values,
)
from .distributions import (
    ConvergenceError,
    Family,
    ParametricModel,
    SupportError,
    density,
    fit_mle,
    log_likelihood,
    log_likelihood_gradient,
    sample_from,
    support_problem,
    survival_of,
)
from .divergence import EsjsFactor, esjs, esjs_distance, esjs_factor, esjs_spacings
from .gof import (
    ExperimentReport,
    FitReport,
    ScalingRow,
    compare_families,
    fit_report,
    powerlaw_fit,
    scaling_experiment,
    simulate_experiment,
)
from .seeds import derive_seed
from .survival import (
    DEFAULT_BINS,
    SortedSample,
    StepSurvival,
    empirical_survival,
    km_binned_survival,
    survival_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "ConfidenceInterval",
    "ConvergenceError",
    "DEFAULT_BINS",
    "EsjsFactor",
    "ExperimentReport",
    "Family",
    "FitReport",
    "ParametricModel",
    "ScalingRow",
    "SortedSample",
    "StepSurvival",
    "SupportError",
    "bootstrap_ci",
    "compare_families",
    "density",
    "derive_seed",
    "empirical_survival",
    "esjs",
    "esjs_distance",
    "esjs_factor",
    "esjs_spacings",
    "fit_mle",
    "fit_report",
    "km_binned_survival",
    "log_likelihood",
    "log_likelihood_gradient",
    "moving_block_resample",
    "percentile_of_replicates",
    "powerlaw_fit",
    "replicate_values",
    "sample_from",
    "scaling_experiment",
    "simulate_experiment",
    "support_problem",
    "survival_entropy",
    "survival_of",
]
