"""Differentially private L1 linear regression via perturbed IRLS moments.

The solver never sees raw data after the moment computation: each
iteration releases the weighted cross moment A (Laplace or Gaussian
noise) and the weighted Gram moment B (additive Wishart noise), and the
parameter update is post-processing of those releases.  A privacy
accountant splits a total budget across the 2 * iterations releases under
concentrated-DP, basic, or advanced composition.
"""

from .accountant import (
    NoisePlan,
    PrivacyBudget,
    Regime,
    advanced_per_release,
    cdp_of_dp,
    cdp_per_release,
    compose_cdp,
    conventional_per_release,
    plan_for_budget,
)
from .charts import emit_svg_chart
from .data import (
    DataValidationError,
    Dataset,
    MomentPair,
    load_dataset_csv,
    normalize_dataset,
    save_dataset_csv,
    validate_dataset,
)
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
    GaussianNoiseSpec,
    LaplaceNoiseSpec,
    SeededRng,
    WishartNoiseSpec,
    gaussian_perturb,
    l1_sensitivity_A,
    l2_sensitivity_A,
    laplace_perturb,
    wishart_perturb,
)
from .solver import (
    IRLSConfig,
    IRLSState,
    Mechanism,
    MomentSolveError,
    NoiseRelease,
    StepSolution,
    compute_moments,
    residuals,
    run_exact_irls,
    run_private_irls,
    serialize_trace,
    solve_step,
    weights_from_residuals,
)
from .synthetic import (
    EvalResult,
    SplitDataset,
    SyntheticSpec,
    estimate_residual_variance,
    evaluate_fit,
    generate,
    loglik_per_test_point,
)

__version__ = "0.1.0"

__all__ = [
    "DataValidationError",
    "Dataset",
    "EvalResult",
    "ExperimentGrid",
    "GaussianNoiseSpec",
    "IRLSConfig",
    "IRLSState",
    "LaplaceNoiseSpec",
    "MECHANISM_SPECS",
    "Mechanism",
    "MomentPair",
    "MomentSolveError",
    "NoisePlan",
    "NoiseRelease",
    "PrivacyBudget",
    "Regime",
    "ResultRow",
    "SeededRng",
    "SplitDataset",
    "StepSolution",
    "SummaryRow",
    "SyntheticSpec",
    "WishartNoiseSpec",
    "advanced_per_release",
    "aggregate",
    "cdp_of_dp",
    "cdp_per_release",
    "compose_cdp",
    "compute_moments",
    "conventional_per_release",
    "emit_csv",
    "emit_svg_chart",
    "estimate_residual_variance",
    "evaluate_fit",
    "gaussian_perturb",
    "generate",
    "l1_sensitivity_A",
    "l2_sensitivity_A",
    "laplace_perturb",
    "load_dataset_csv",
    "loglik_per_test_point",
    "normalize_dataset",
    "plan_for_budget",
    "residuals",
    "run_cell",
    "run_exact_irls",
    "run_grid",
    "run_private_irls",
    "save_dataset_csv",
    "serialize_trace",
    "solve_step",
    "validate_dataset",
    "weights_from_residuals",
    "wishart_perturb",
]
