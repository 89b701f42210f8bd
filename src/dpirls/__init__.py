"""Differentially private L1 linear regression via perturbed IRLS moments.

The loop computes the Huber M-estimate at delta = 1/weight_cap, which
tends to the L1 fit as the cap grows; at the README grid's cap 5 the
non-private label is least squares, or nearly (see :mod:`dpirls.solver`).

The solver never sees raw data after the moment computation: each
iteration releases the weighted cross moment A (Laplace or Gaussian
noise) and the weighted Gram moment B (additive Wishart noise), and the
parameter update is post-processing of those releases.  A privacy
accountant splits a total budget across the 2 * iterations releases under
zero-concentrated DP (zCDP), basic, or advanced composition.
"""

from .accountant import (
    NoisePlan,
    PrivacyBudget,
    Regime,
    advanced_per_release,
    cdp_per_release,
    conventional_per_release,
    plan_for_budget,
)
from .charts import emit_svg_chart
from .data import DataValidationError, Dataset, normalize_dataset, validate_dataset
from .experiment import (
    MECHANISM_SPECS,
    ExperimentGrid,
    ResultRow,
    SummaryRow,
    aggregate,
    emit_csv,
    run_cell,
    run_grid,
)
from .mechanisms import (
    gaussian_perturb,
    gaussian_std,
    l1_sensitivity_A,
    l2_sensitivity_A,
    laplace_perturb,
    laplace_scale,
    wishart_perturb,
    wishart_variance,
)
from .solver import (
    IRLSConfig,
    Mechanism,
    MomentSolveError,
    compute_moments,
    residuals,
    run_exact_irls,
    run_private_irls,
    solve_step,
    weights_from_residuals,
)
from .synthetic import SplitDataset, SyntheticSpec, evaluate_fit, generate

__version__ = "0.1.0"

__all__ = [
    "DataValidationError",
    "Dataset",
    "ExperimentGrid",
    "IRLSConfig",
    "MECHANISM_SPECS",
    "Mechanism",
    "MomentSolveError",
    "NoisePlan",
    "PrivacyBudget",
    "Regime",
    "ResultRow",
    "SplitDataset",
    "SummaryRow",
    "SyntheticSpec",
    "advanced_per_release",
    "aggregate",
    "cdp_per_release",
    "compute_moments",
    "conventional_per_release",
    "emit_csv",
    "emit_svg_chart",
    "evaluate_fit",
    "gaussian_perturb",
    "gaussian_std",
    "generate",
    "l1_sensitivity_A",
    "l2_sensitivity_A",
    "laplace_perturb",
    "laplace_scale",
    "normalize_dataset",
    "plan_for_budget",
    "residuals",
    "run_cell",
    "run_exact_irls",
    "run_grid",
    "run_private_irls",
    "solve_step",
    "validate_dataset",
    "weights_from_residuals",
    "wishart_perturb",
    "wishart_variance",
]
