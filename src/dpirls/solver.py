"""Iteratively reweighted least squares for the L1 regression objective.

Each iteration forms residual weights s_i = 1 / max(1/weight_cap, |r_i|),
builds the weighted moments A = (1/n) X^T S y and B = (1/n) X^T S X, and
sets the next iterate to the solution of B theta = A.  The clamp keeps
every weight in (0, weight_cap], which is what the sensitivity bounds in
:mod:`dpirls.mechanisms` assume.

The private variant releases A and B through calibrated noise once per
iteration (2 * iterations releases total) and touches the raw data only
through :func:`residuals` and :func:`compute_moments`; everything after a
release is post-processing of already-noised statistics.  There is no
early stopping: data-dependent stopping would itself leak, so the loop
always runs the configured number of iterations.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .accountant import NoisePlan, PrivacyBudget, plan_for_budget
from .data import (
    Dataset,
    MomentPair,
    _as_theta,
    _as_vector,
    _check_int,
    _check_positive_finite,
    _freeze,
    validate_dataset,
)
from .mechanisms import as_generator, gaussian_perturb, laplace_perturb, wishart_perturb

_RIDGE_FACTOR = 1e-8


class Mechanism(enum.Enum):
    """Noise applied to the cross moment A; B always uses the Wishart release."""

    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


class MomentSolveError(RuntimeError):
    """Raised when B theta = A cannot be solved even with the ridge fallback."""


class StepSolution(NamedTuple):
    theta: np.ndarray
    used_ridge: bool


@dataclass(frozen=True)
class IRLSConfig:
    """Loop parameters shared by the exact and private solvers."""

    iterations: int = 10
    weight_cap: float = 100.0
    theta_init: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_int("iterations", self.iterations)
        _check_positive_finite("weight_cap", self.weight_cap)
        if self.theta_init is not None:
            theta = _as_vector("theta_init", self.theta_init)
            if not np.isfinite(theta).all():
                raise ValueError("theta_init must be finite")
            object.__setattr__(self, "theta_init", _freeze(theta))


@dataclass(frozen=True)
class NoiseRelease:
    """Record of one privatized statistic: which mechanism, at what budget."""

    mechanism: str
    eps_prime: float


@dataclass(frozen=True)
class IRLSState:
    """Snapshot after one iteration.

    ``weights`` are the clamped weights that built this iteration's
    moments (computed from the previous iterate); ``objective`` is the
    mean absolute residual of ``theta`` itself.
    """

    iteration: int
    theta: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    objective: float
    used_ridge: bool
    releases: tuple[NoiseRelease, ...] = ()


def residuals(dataset: Dataset, theta: np.ndarray) -> np.ndarray:
    """Residual vector y - X theta."""
    return dataset.y - dataset.X @ _as_theta(theta, dataset.d)


def weights_from_residuals(res: np.ndarray, weight_cap: float) -> np.ndarray:
    """Clamped inverse-residual weights s_i = 1 / max(1/weight_cap, |r_i|).

    Every output lies in (0, weight_cap]; the cap binds exactly when
    |r_i| <= 1/weight_cap.
    """
    _check_positive_finite("weight_cap", weight_cap)
    res = np.asarray(res, dtype=np.float64)
    return 1.0 / np.maximum(1.0 / weight_cap, np.abs(res))


def compute_moments(dataset: Dataset, weights: np.ndarray) -> MomentPair:
    """Weighted sufficient statistics (1/n) X^T S y and (1/n) X^T S X.

    The Gram part is assembled as G^T G for G = diag(sqrt(s)) X via
    einsum, which evaluates entries (j, k) and (k, j) as the same sum, so
    B is symmetric bit for bit rather than merely up to rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != dataset.n:
        raise ValueError(f"weights must have shape ({dataset.n},), got {w.shape}")
    if not np.isfinite(w).all() or (w <= 0.0).any():
        raise ValueError("weights must be finite and strictly positive")
    n = dataset.n
    A = dataset.X.T @ (w * dataset.y) / n
    Xs = dataset.X * np.sqrt(w)[:, None]
    B = np.einsum("ij,ik->jk", Xs, Xs) / n
    return MomentPair(A=A, B=B)


def solve_step(A: np.ndarray, B: np.ndarray) -> StepSolution:
    """Solve B theta = A by Cholesky, with one ridge retry.

    If the factorization fails (B not positive definite, e.g. after an
    unlucky noise draw), retries once with B + lam I for
    lam = 1e-8 * trace(B) / d.  A second failure raises
    :class:`MomentSolveError` reporting the eigenvalue range and the
    ridge that was tried.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 1 or B.ndim != 2 or B.shape != (A.shape[0], A.shape[0]):
        raise ValueError(f"shape mismatch: A {A.shape}, B {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("moments must be finite")
    try:
        factor = cho_factor(B, lower=True, check_finite=False)
        return StepSolution(theta=cho_solve(factor, A, check_finite=False), used_ridge=False)
    except np.linalg.LinAlgError:
        pass
    d = B.shape[0]
    lam = _RIDGE_FACTOR * float(np.trace(B)) / d
    try:
        factor = cho_factor(B + lam * np.eye(d), lower=True, check_finite=False)
        return StepSolution(theta=cho_solve(factor, A, check_finite=False), used_ridge=True)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(B)
        raise MomentSolveError(
            f"Gram moment is not positive definite even with ridge {lam:.3g}: "
            f"eigenvalues span [{eigs.min():.3g}, {eigs.max():.3g}]"
        ) from None


def _resolve_init(dataset: Dataset, config: IRLSConfig) -> np.ndarray:
    if config.theta_init is None:
        return np.zeros(dataset.d)
    if config.theta_init.shape[0] != dataset.d:
        raise ValueError(
            f"theta_init has length {config.theta_init.shape[0]} but the data has d={dataset.d}"
        )
    return config.theta_init


def _run_loop(
    dataset: Dataset,
    config: IRLSConfig,
    release: Callable[[MomentPair], tuple[np.ndarray, np.ndarray, tuple[NoiseRelease, ...]]]
    | None,
) -> tuple[np.ndarray, tuple[IRLSState, ...]]:
    theta = _resolve_init(dataset, config)
    res = residuals(dataset, theta)
    trace: list[IRLSState] = []
    for t in range(1, config.iterations + 1):
        weights = weights_from_residuals(res, config.weight_cap)
        moments = compute_moments(dataset, weights)
        if release is None:
            A_out, B_out, rels = moments.A, moments.B, ()
        else:
            A_out, B_out, rels = release(moments)
        solution = solve_step(A_out, B_out)
        theta = solution.theta
        # One residual pass per iterate: it gives this iterate's objective
        # and the next iteration's weights.
        res = residuals(dataset, theta)
        theta.setflags(write=False)
        weights.setflags(write=False)
        trace.append(
            IRLSState(
                iteration=t,
                theta=theta,
                weights=weights,
                objective=float(np.mean(np.abs(res))),
                used_ridge=solution.used_ridge,
                releases=rels,
            )
        )
    return theta, tuple(trace)


def run_exact_irls(
    dataset: Dataset, config: IRLSConfig | None = None
) -> tuple[np.ndarray, tuple[IRLSState, ...]]:
    """Noise-free IRLS on the exact moments.

    Returns the final iterate and the per-iteration trace.  Does not
    require the privacy norm bounds, since nothing is released.
    """
    config = config or IRLSConfig()
    return _run_loop(dataset, config, release=None)


def run_private_irls(
    dataset: Dataset,
    config: IRLSConfig,
    budget: PrivacyBudget,
    mechanism: Mechanism | str,
    rng,
    *,
    gaussian_failure_prob: float = 1e-6,
) -> tuple[np.ndarray, tuple[IRLSState, ...], NoisePlan]:
    """IRLS on noisy moment releases under a total privacy budget.

    Each iteration spends the plan's eps' twice: once on A through the
    chosen mechanism (Laplace or Gaussian) and once on B through the
    Wishart release.  The dataset must satisfy the norm bounds; they are
    re-validated here because every calibration depends on them.

    Returns the final iterate, the trace (each state carrying its two
    release records), and the resolved :class:`NoisePlan`.
    """
    mechanism = Mechanism(mechanism)
    validate_dataset(dataset)
    plan = plan_for_budget(budget, config.iterations, releases_per_iteration=2)
    gen = as_generator(rng)
    n, cap, eps_prime = dataset.n, config.weight_cap, plan.eps_prime

    def release(moments: MomentPair):
        if mechanism is Mechanism.LAPLACE:
            A_out = laplace_perturb(moments.A, eps_prime, cap, n, gen)
        else:
            A_out = gaussian_perturb(
                moments.A, eps_prime, gaussian_failure_prob, cap, n, gen
            )
        B_out = wishart_perturb(moments.B, eps_prime, cap, n, gen)
        rels = (
            NoiseRelease(mechanism=mechanism.value, eps_prime=eps_prime),
            NoiseRelease(mechanism="wishart", eps_prime=eps_prime),
        )
        return A_out, B_out, rels

    theta, trace = _run_loop(dataset, config, release=release)
    return theta, trace, plan


def serialize_trace(trace: tuple[IRLSState, ...]) -> str:
    """One JSON line per release (per iteration for the exact solver).

    Fields: iteration, mechanism, eps_prime (null when exact), objective,
    ridge_fallback.  Keys are sorted so equal traces serialize to equal
    bytes.
    """
    lines = []
    for state in trace:
        base = {
            "iteration": state.iteration,
            "objective": state.objective,
            "ridge_fallback": state.used_ridge,
        }
        if state.releases:
            for rel in state.releases:
                lines.append(
                    json.dumps(
                        {**base, "mechanism": rel.mechanism, "eps_prime": rel.eps_prime},
                        sort_keys=True,
                    )
                )
        else:
            lines.append(
                json.dumps({**base, "mechanism": "none", "eps_prime": None}, sort_keys=True)
            )
    return "\n".join(lines) + "\n"
