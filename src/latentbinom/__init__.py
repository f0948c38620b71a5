"""Binomial regression with latent gamma-Poisson group sizes.

The response is a binomial count whose size was never observed: sizes are
Poisson draws whose means follow a gamma distribution. Marginally the
response is negative-binomial-shaped in the success probability, and the
whole parameter vector (regression coefficients, size mean, gamma shape)
is estimable from the counts alone. The package provides the likelihood
machinery, Fisher information and efficiency comparisons against designs
with richer observation, maximum-likelihood fitting with a boundary-aware
test of the Poisson-size submodel, and a Monte Carlo study driver.
"""

from .data_io import (JEJUNAL_CRYPT_COUNTS, format_number, jejunal_dataset,
                      read_csv, write_records)
from .efficiency import (EffResult, EffSetting, builtin_designs,
                         efficiency_measures, gamma_curve, make_setting,
                         sd_vs_mu_curves, table_settings)
from .estimation import (FitResult, LrtResult, fit_full, fit_poisson_size,
                         likelihood_ratio_test, wald_ci)
from .information import (NEAR_SINGULAR_CONDITION, block_variance_partition,
                          expected_alpha_info, info_full, info_known_mean,
                          info_known_sizes, info_poisson_size,
                          inverse_with_condition)
from .model import (Dataset, INFINITE, ModelParams, hessian, link_h,
                    log_likelihood, log_pmf, score)
from .simulation import (LatentRecord, SimConfig, SimSummary,
                         generate_dataset, run_study)

__version__ = "0.1.0"

__all__ = [
    "JEJUNAL_CRYPT_COUNTS", "format_number", "jejunal_dataset", "read_csv",
    "write_records",
    "EffResult", "EffSetting", "builtin_designs", "efficiency_measures",
    "gamma_curve", "make_setting", "sd_vs_mu_curves", "table_settings",
    "FitResult", "LrtResult", "fit_full", "fit_poisson_size",
    "likelihood_ratio_test", "wald_ci",
    "NEAR_SINGULAR_CONDITION", "block_variance_partition",
    "expected_alpha_info", "info_full", "info_known_mean", "info_known_sizes",
    "info_poisson_size", "inverse_with_condition",
    "Dataset", "INFINITE", "ModelParams", "hessian",
    "link_h", "log_likelihood", "log_pmf", "score",
    "LatentRecord", "SimConfig", "SimSummary", "generate_dataset", "run_study",
    "__version__",
]
