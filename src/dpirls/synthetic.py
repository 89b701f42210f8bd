"""Synthetic regression problems and held-out log-likelihood scoring.

Generation order: draw X with standard normal rows, scale X so the
largest row L2 norm is 1, draw the true parameter, draw y = X theta +
noise from the scaled X, then scale y to [-1, 1].  The true parameter is
therefore exact for the pre-scaling responses; with the response scaling
disabled and vanishing noise the generator is an exact-recovery fixture.

Scoring follows the usual Gaussian plug-in: estimate the residual
variance on the training fit, then report the mean per-point Gaussian
log-density of the held-out residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    Dataset,
    _as_theta,
    _check_int,
    _check_positive_finite,
    _freeze,
    validate_dataset,
)
from .mechanisms import as_generator

VARIANCE_FLOOR = 1e-8


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, dimension, observation noise, and seed of one problem."""

    n: int
    d: int
    noise_var: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("n", self.n, 2)
        _check_int("d", self.d)
        _check_positive_finite("noise_var", self.noise_var)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class SplitDataset:
    """Train/test split of one synthetic problem plus the generating parameter."""

    train: Dataset
    test: Dataset
    true_theta: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        theta = _as_theta(self.true_theta, self.train.d, "true_theta")
        if self.test.d != self.train.d:
            raise ValueError("train and test must share the feature dimension")
        object.__setattr__(self, "true_theta", _freeze(theta))


@dataclass(frozen=True)
class EvalResult:
    mechanism: str
    n: int
    seed: int
    loglik_per_point: float
    residual_var: float


def generate(spec: SyntheticSpec, *, normalize_response: bool = True) -> SplitDataset:
    """Generate one problem and hold out 10% of the points for testing.

    The holdout is the last round(0.1 * n) rows; rows are i.i.d., so any
    fixed subset is distributionally a uniform one.
    ``normalize_response=False`` skips the response scaling (the output
    then deliberately fails the |y| <= 1 bound; it exists so tests can
    check exact parameter recovery).
    """
    test_count = round(0.1 * spec.n)
    if test_count < 1:
        raise ValueError(f"n={spec.n} leaves no test rows; need round(0.1*n) >= 1")
    train_count = spec.n - test_count

    gen = as_generator(int(spec.seed))
    X = gen.standard_normal((spec.n, spec.d))
    max_norm = float(np.linalg.norm(X, axis=1).max())
    if max_norm > 0.0:
        X = X / max_norm
    theta_star = gen.standard_normal(spec.d)
    y = X @ theta_star + math.sqrt(spec.noise_var) * gen.standard_normal(spec.n)
    if normalize_response:
        max_abs = float(np.abs(y).max())
        if max_abs > 0.0:
            y = y / max_abs

    train = Dataset(X=X[:train_count], y=y[:train_count])
    test = Dataset(X=X[train_count:], y=y[train_count:])
    if normalize_response:
        validate_dataset(train)
        validate_dataset(test)
    return SplitDataset(train=train, test=test, true_theta=theta_star)


def estimate_residual_variance(
    dataset: Dataset, theta: np.ndarray, floor: float = VARIANCE_FLOOR
) -> float:
    """Mean squared residual of ``theta`` on ``dataset``, floored away from 0.

    The floor keeps the plug-in log-likelihood finite when a fit is
    (numerically) perfect.
    """
    _check_positive_finite("floor", floor)
    res = dataset.y - dataset.X @ _as_theta(theta, dataset.d)
    return max(floor, float(np.mean(res * res)))


def loglik_per_test_point(test: Dataset, theta: np.ndarray, residual_var: float) -> float:
    """Mean Gaussian log-density of the test responses under ``theta``.

    (1/m) sum_i [ -0.5 log(2 pi residual_var) - r_i^2 / (2 residual_var) ]
    for test residuals r.  Higher is better; the value is invariant to
    row order and strictly decreasing in the total squared test residual
    for a fixed variance.
    """
    _check_positive_finite("residual_var", residual_var)
    res = test.y - test.X @ _as_theta(theta, test.d)
    return float(
        -0.5 * math.log(2.0 * math.pi * residual_var)
        - float(np.mean(res * res)) / (2.0 * residual_var)
    )


def evaluate_fit(
    split: SplitDataset, theta: np.ndarray, mechanism: str, seed: int
) -> EvalResult:
    """Score a fitted parameter: variance from the training fit, likelihood on test."""
    var = estimate_residual_variance(split.train, theta)
    ll = loglik_per_test_point(split.test, theta, var)
    return EvalResult(
        mechanism=mechanism,
        n=split.train.n + split.test.n,
        seed=seed,
        loglik_per_point=ll,
        residual_var=var,
    )
