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

The package exports that library: the data bounds, the exact and private
loops, the three releases with their noise scales, and the accountant.
The loop's layers (``compute_moments``, ``residuals``, ``solve_step``,
``weights_from_residuals``) and the sensitivities behind the noise scales
are imported from :mod:`dpirls.solver` and :mod:`dpirls.mechanisms`.  The
README grid's synthetic problem, its experiment grid, its CSV and SVG
output and the ``dpirls`` command live in :mod:`dpirls.synthetic`,
:mod:`dpirls.experiment`, :mod:`dpirls.charts` and :mod:`dpirls.cli`;
importing the package loads none of them.
"""

from .accountant import (
    NoisePlan,
    PrivacyBudget,
    Regime,
    plan_for_budget,
)
from .data import DataValidationError, Dataset, clip_dataset, validate_dataset
from .mechanisms import (
    gaussian_perturb,
    gaussian_std,
    laplace_perturb,
    laplace_scale,
    wishart_perturb,
    wishart_variance,
)
from .solver import IRLSConfig, MomentSolveError, run_exact_irls, run_private_irls

__version__ = "0.1.0"

__all__ = [
    "DataValidationError",
    "Dataset",
    "IRLSConfig",
    "MomentSolveError",
    "NoisePlan",
    "PrivacyBudget",
    "Regime",
    "clip_dataset",
    "gaussian_perturb",
    "gaussian_std",
    "laplace_perturb",
    "laplace_scale",
    "plan_for_budget",
    "run_exact_irls",
    "run_private_irls",
    "validate_dataset",
    "wishart_perturb",
    "wishart_variance",
]
