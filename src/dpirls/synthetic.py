"""Synthetic regression problems and held-out log-likelihood scoring.

Generation order: draw X with standard normal rows, scale X so the
largest row L2 norm is 1, draw the true parameter, draw y = X theta +
noise from the scaled X, then scale y to [-1, 1].  The true parameter is
therefore exact for the pre-scaling responses: with vanishing noise it is
the regression parameter of y before the last step.

Scoring follows the usual Gaussian plug-in: estimate the residual
variance on the training fit, then report the mean per-point Gaussian
log-density of the held-out residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    Dataset,
    _check_int,
    _check_positive_finite,
    _row_norms,
    _row_spans,
    _x_order,
    validate_dataset,
)
from .mechanisms import _stream
from .solver import residuals

VARIANCE_FLOOR = 1e-8
# Variance of the Gaussian observation noise added to X theta*.
_NOISE_VAR = 0.01


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, dimension and seed of one problem."""

    n: int
    d: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("n", self.n, 2)
        if round(0.1 * self.n) < 1:
            raise ValueError(f"n={self.n} leaves no test rows; need round(0.1*n) >= 1")
        _check_int("d", self.d)
        _check_int("seed", self.seed, 0)


class SplitDataset(NamedTuple):
    """Train/test split of one synthetic problem plus the generating parameter."""

    train: Dataset
    test: Dataset
    true_theta: np.ndarray


class EvalResult(NamedTuple):
    mechanism: str
    n: int
    seed: int
    loglik_per_point: float
    residual_var: float


def generate(spec: SyntheticSpec) -> SplitDataset:
    """Generate one problem and hold out 10% of the points for testing.

    The holdout is the last round(0.1 * n) rows; rows are i.i.d., so any
    fixed subset is distributionally a uniform one.  Both splits pass
    :func:`dpirls.data.validate_dataset`, and ``true_theta`` is read-only.

    Block order: X is drawn in the row blocks of ``data._row_spans``, of
    about 2^16 entries, each a multiple of 64 rows high and counted from
    the first row of X, not of each split; the last block takes the rows
    left over (all n when n is smaller than one block), and a one-row
    remainder joins the block before it, since numpy multiplies a (1, d)
    block by theta* along another path.  Each block's row norms are
    taken, then it is copied straight into the train or test array, or
    both when it straddles the split.  Those arrays are in the storage
    order of :class:`dpirls.data.Dataset`: column-major up to d = 30,
    row-major above.  The maximum row norm must come from these C-ordered
    blocks: taken from F-ordered arrays, whose rows numpy sums in another
    order, it changes X's bits from d = 8 on.  Consecutive draws continue
    one stream, so X is bitwise the single (n, d) draw of the module's
    generation order, in either storage order.  ``X @ theta*`` runs over
    the same blocks, each gathered back into a C-ordered buffer.  With
    every block starting at a multiple of 4 rows, the OpenBLAS kernels
    checked give each row bitwise as the product over the whole C-ordered
    X on one thread does, which a block starting at the test split's
    first row would not.  The split holds the only copy of X: each
    Dataset adopts its array.

    Scaling by the data's own maxima is not a row-local map, so a private
    run on the output protects the scaled data, not the raw draws.
    """
    n, d = spec.n, spec.d
    test_count = round(0.1 * n)
    train_count = n - test_count
    X_train = np.empty((train_count, d), order=_x_order(d))
    X_test = np.empty((test_count, d), order=_x_order(d))
    parts = ((X_train, 0), (X_test, train_count))
    blocks = _row_spans(n, d)

    gen = _stream(spec.seed, 0)
    max_norm = 0.0
    for start, stop in blocks:
        block = gen.standard_normal((stop - start, d))
        max_norm = max(max_norm, float(np.maximum.reduce(_row_norms(block))))
        for rows, block_rows in _overlaps(parts, start, stop):
            rows[...] = block[block_rows]
    if max_norm > 0.0:
        X_train /= max_norm
        X_test /= max_norm
    theta_star = gen.standard_normal(d)
    theta_star.setflags(write=False)

    y = np.empty(n)
    buf = np.empty((max(stop - start for start, stop in blocks), d))
    for start, stop in blocks:
        for rows, block_rows in _overlaps(parts, start, stop):
            buf[block_rows] = rows
        y[start:stop] = buf[: stop - start] @ theta_star
    del block, buf  # before the bounds checks add their own temporaries
    y += math.sqrt(_NOISE_VAR) * gen.standard_normal(n)
    max_abs = float(np.maximum.reduce(np.abs(y)))
    if max_abs > 0.0:
        y /= max_abs

    X_train.setflags(write=False)
    X_test.setflags(write=False)
    train = Dataset(X=X_train, y=y[:train_count])
    test = Dataset(X=X_test, y=y[train_count:])
    validate_dataset(train)
    validate_dataset(test)
    return SplitDataset(train=train, test=test, true_theta=theta_star)


def _overlaps(parts, start: int, stop: int):
    # For each (array, first global row) in parts that global rows
    # [start, stop) reach: the view of its rows there, and the matching
    # rows of the block that starts at global row start.
    for X, offset in parts:
        lo, hi = max(start, offset), min(stop, offset + X.shape[0])
        if lo < hi:
            yield X[lo - offset : hi - offset], slice(lo - start, hi - start)


def estimate_residual_variance(dataset: Dataset, theta: np.ndarray) -> float:
    """Mean squared residual of ``theta`` on ``dataset``, at least ``VARIANCE_FLOOR``.

    The floor keeps the plug-in log-likelihood finite when a fit is
    (numerically) perfect.
    """
    res = residuals(dataset, theta)
    # np.mean's bits (a pairwise sum, then one division) without its wrapper.
    return max(VARIANCE_FLOOR, float(np.add.reduce(res * res)) / dataset.n)


def loglik_per_test_point(test: Dataset, theta: np.ndarray, residual_var: float) -> float:
    """Mean Gaussian log-density of the test responses under ``theta``.

    (1/m) sum_i [ -0.5 log(2 pi residual_var) - r_i^2 / (2 residual_var) ]
    for test residuals r.  Higher is better; the value is invariant to
    row order and strictly decreasing in the total squared test residual
    for a fixed variance.
    """
    residual_var = _check_positive_finite("residual_var", residual_var)
    res = residuals(test, theta)
    rss = float(np.add.reduce(res * res))
    return -0.5 * math.log(2.0 * math.pi * residual_var) - rss / test.n / (2.0 * residual_var)


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
