"""Iteratively reweighted least squares, the paper's route to L1 regression.

Starting from theta = 0, each iteration forms residual weights
s_i = 1 / max(1/weight_cap, |r_i|), builds the weighted moments
A = (1/n) X^T S y and B = (1/n) X^T S X, and sets the next iterate to
the solution of B theta = A.  The clamp keeps
every weight in (0, weight_cap], which is what the sensitivity bounds in
:mod:`dpirls.mechanisms` assume.

The loop computes the Huber M-estimate at delta = 1/weight_cap, which
tends to the L1 fit only as the cap grows: s_i = psi(r_i) / r_i for
psi(r) = clip(r / delta, -1, 1), so a fixed point solves X^T psi(r) = 0.
At the README grid's cap 5 the ``non-private`` label is least squares in 61
of its 100 cells (every residual within 1/cap) and nearly so in the rest.

The private variant releases A and B through calibrated noise once per
iteration (2 * iterations releases total) and touches the raw data only
through :func:`residuals` and :func:`compute_moments`; everything after a
release is post-processing of already-noised statistics.  The guarantee
covers theta, the plan and the release records, not a trace's weights,
which are computed from the raw data (see :class:`IRLSState`).  The private
loop has no early stopping: data-dependent stopping would itself leak,
so it always runs the configured number of iterations.  The exact loop
stops computing once an iterate repeats an earlier one bit for bit,
since every later state would repeat the cycle between them, and fills
the rest of its trace with that cycle (see :func:`run_exact_irls`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .accountant import NoisePlan, PrivacyBudget, plan_for_budget
from .data import (
    Dataset,
    _as_square,
    _as_theta,
    _as_vector,
    _check_int,
    _check_positive_finite,
    _check_symmetric,
    validate_dataset,
)
from .mechanisms import _check_generator, gaussian_perturb, laplace_perturb, wishart_perturb

_RIDGE_FACTOR = 1e-8

# Largest max(w) / min(w) at which compute_moments takes the capped-weight
# update; it bounds that path's rounding error (see compute_moments).
_UPDATE_MAX_RATIO = 64.0

# compute_moments adds up its Gram and cross terms over blocks of rows
# holding at most this many float64 entries (4 MiB), so a call's scratch
# memory stays one block plus a few n-vectors whatever n * d is.  With
# blocks of 2^17 entries (1310 rows at d = 100) a private solve at
# n = 4e4, d = 100 ran about 10% slower than with one product over all
# rows below the cap (two OpenBLAS threads, whose syrk is slower on short
# blocks); with 2^19 entries about 3% slower.
_MOMENT_BLOCK_ELEMENTS = 1 << 19

# Largest d * d * rows at which compute_moments forms a weighted Gram
# product with one gemm instead of a syrk (see _weighted_gram); measured
# where the gemm form stops being the faster one (see compute_moments).
_GEMM_MAX_MULADDS = 100**3


class Mechanism(enum.Enum):
    """Noise applied to the cross moment A; B always uses the Wishart release."""

    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


class MomentSolveError(RuntimeError):
    """Raised when B theta = A cannot be solved even with the ridge fallback."""


class MomentPair(NamedTuple):
    """Weighted moments A = (1/n) X^T S y (length d) and B = (1/n) X^T S X (d x d)."""

    A: np.ndarray
    B: np.ndarray


class StepSolution(NamedTuple):
    theta: np.ndarray
    used_ridge: bool


def _check_weight_cap(weight_cap: float) -> None:
    # The clamp's floor 1/weight_cap must be finite too, or every weight
    # would be 1/inf = 0.
    _check_positive_finite("weight_cap", weight_cap)
    if math.isinf(1.0 / float(weight_cap)):
        raise ValueError(f"weight_cap must have a finite reciprocal, got {weight_cap!r}")


@dataclass(frozen=True)
class IRLSConfig:
    """Loop parameters shared by the exact and private solvers."""

    iterations: int
    weight_cap: float

    def __post_init__(self) -> None:
        _check_int("iterations", self.iterations)
        _check_weight_cap(self.weight_cap)


class NoiseRelease(NamedTuple):
    """Record of one privatized statistic: which mechanism, at what budget."""

    mechanism: str
    eps_prime: float


class IRLSState(NamedTuple):
    """Snapshot after one iteration.

    ``trace[t]`` holds iteration t + 1.  ``weights`` are the clamped
    weights that built this iteration's moments, computed from the
    previous iterate.  In a private solve they come from the raw data
    (iteration 1's are 1/max(1/weight_cap, |y_i|), so they hold |y_i| for
    every row beyond 1/weight_cap) and the privacy guarantee does not
    cover them; it covers ``theta``, ``used_ridge`` and ``releases``.
    """

    theta: np.ndarray
    weights: np.ndarray
    used_ridge: bool
    releases: tuple[NoiseRelease, ...]


def residuals(dataset: Dataset, theta: np.ndarray) -> np.ndarray:
    """Residual vector y - X theta."""
    return dataset.y - dataset.X @ _as_theta(theta, dataset.d)


def weights_from_residuals(res: np.ndarray, weight_cap: float) -> np.ndarray:
    """Clamped inverse-residual weights s_i = 1 / max(1/weight_cap, |r_i|).

    Every output lies in (0, weight_cap]; the cap binds exactly when
    |r_i| <= 1/weight_cap.  Built in one n-length buffer.
    """
    _check_weight_cap(weight_cap)
    w = np.abs(np.asarray(res, dtype=np.float64))
    np.maximum(w, 1.0 / weight_cap, out=w)
    return np.divide(1.0, w, out=w)


def _row_blocks(rows: int, d: int, step: int):
    """Yield ``(start, stop, Gt)`` over ``rows`` rows in blocks of ``step`` counted from row 0.

    ``Gt`` is a C-contiguous (d, stop - start) view of one buffer that
    every block reuses, since a fresh array per block can pay for new
    pages each time.
    """
    buf = np.empty(d * step)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield start, stop, buf[: d * (stop - start)].reshape(d, stop - start)


def _gemm_sized(d: int, rows: int) -> bool:
    return d * d * rows <= _GEMM_MAX_MULADDS


def _weighted_gram(Xt, v, y, out):
    """Return ``(Xt diag(v) y, Xt diag(v) Xt^T)`` for a (d, rows) ``Xt``.

    The first is None when ``y`` is.  A product of at most
    ``_GEMM_MAX_MULADDS`` multiply-adds takes St = Xt diag(v), St y and the
    gemm G = St Xt^T, and returns (G + G^T) / 2 as the Gram.  A larger one
    scales Xt by sqrt(v) into ``out``, a (d, rows) array that may be
    ``Xt`` itself, and takes ``out (sqrt(v) y)`` and the syrk
    ``out out^T``.  Either Gram is symmetric bit for bit.
    """
    if _gemm_sized(*Xt.shape):
        St = Xt * v
        G = St @ Xt.T
        G = G + G.T
        G *= 0.5
        return (None if y is None else St @ y), G
    c = np.sqrt(v)
    np.multiply(Xt, c, out=out)
    return (None if y is None else out @ (c * y)), out @ out.T


def compute_moments(dataset: Dataset, weights: np.ndarray) -> MomentPair:
    """Weighted sufficient statistics (1/n) X^T S y and (1/n) X^T S X.

    The direct formula builds both from one scaled copy of the rows.  A
    product of at most 1e6 multiply-adds (d * d * rows; every call of the
    README grid, n <= 9000 at d = 10) takes St = X^T S, A = St y / n and
    the gemm G = St X, and sets B = (G + G^T) / (2n).  A larger one takes
    G = diag(sqrt(s)) X, whose ``G.T @ G`` numpy routes to BLAS ``syrk``,
    which computes one triangle and mirrors it onto the other, and
    A = X^T (s y) / n.  Each form is the faster one on its side of the
    limit: the gemm form took 0.58-0.84 times the syrk form's time at
    d = 10 and n = 2000 to 10000 (1.00e6 multiply-adds), but 1.15 times at
    n = 11000 and 1.3-1.8 times at d = 20 and 30 just past the limit
    (2-core host, numpy 2.4, OpenBLAS 0.3.31, default thread count).
    Either way B is symmetric bit for bit rather than merely up to
    rounding (``test_moments_gram_exactly_symmetric`` pins this): fl(a +
    b) = fl(b + a), and syrk fills both triangles from one.

    The clamp gives every row with |r_i| <= 1/weight_cap the same weight
    b = max(s), and most rows sit there once the fit settles.  Those rows
    drop out through the exact identities

        n B = b X^T X - sum_{s_i < b} (b - s_i) x_i x_i^T
        n A = b X^T y - sum_{s_i < b} (b - s_i) x_i y_i

    with X^T X and X^T y computed once per dataset and memoised on it, so
    an iteration costs O(k d^2) for the k rows below b instead of
    O(n d^2).  This update is taken only when both

    - at least half the rows sit at b, so that it pays, and
    - b / min(s) <= 64.  For every unit vector v, both terms of the
      difference are at most (b / min(s)) v^T (n B) v, so the rounding
      error of the update is, in every direction, at most 64 times that
      of the direct formula (and likewise for A, whose terms are at most
      b / min(s) times sum_i s_i |x_i y_i|).

    Otherwise the direct formula runs.  The sums over the k rows take the
    same two forms by the same limit: St = X_k^T diag(b - s) with the gemm
    St X_k, or G = diag(sqrt(b - s)) X_k with its syrk and G^T (sqrt(b - s)
    y).  Where the update runs, A and B differ from the direct formula's
    in the low bits only.

    Run time therefore depends on how many residuals sit under the cap,
    that is, on the data.  The privacy guarantees of the releases cover
    the released values, not the time taken to compute them.

    Both paths work one block of rows at a time, in one reused buffer of
    at most 2^19 entries (4 MiB): the direct path over row slices of X,
    the update over the k rows below b.  Each block's Gram (and, on the
    update path, its cross term) is added to a running sum; A on the
    direct path is the single ``X.T @ (s * y)`` unless the call is one
    gemm-sized block.  Block edges are counted in rows from the first,
    whatever the BLAS thread count.  A call's scratch memory is thus one
    block plus a few vectors of length n, not a copy of X or of its k
    rows (a gemm-sized block is scaled into a fresh array of its own size
    instead).  A call whose rows fit in one block (n d <= 2^19 on the
    direct path, k d <= 2^19 on the update) runs the one-product formula
    itself and returns its bits; every call of the README grid is one
    block.  With more blocks the sums are added in another order, which
    moves A and B in the low bits.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != dataset.n:
        raise ValueError(f"weights must have shape ({dataset.n},), got {w.shape}")
    # One min/max pair serves the check (NaN fails both comparisons) and
    # the choice of path.
    lo, hi = float(np.minimum.reduce(w)), float(np.maximum.reduce(w))
    if not (lo > 0.0 and hi < np.inf):
        raise ValueError("weights must be finite and strictly positive")
    n, d = dataset.n, dataset.d
    X, y = dataset.X, dataset.y
    step = max(1, _MOMENT_BLOCK_ELEMENTS // d)
    # Rows that fit one block take the one-product formula itself: the
    # README grid makes thousands of such small calls, and the block loop
    # cost each a few microseconds more.
    if hi <= _UPDATE_MAX_RATIO * lo:
        below = w < hi
        if 2 * np.add.reduce(below, dtype=np.intp) <= n:
            XtX, Xty = dataset._unit_moments
            idx = below.nonzero()[0]
            # Gathered along the rows of X.T, which are X's contiguous
            # columns; X[idx] reads each row at a stride of n and was 2.6x
            # slower at n=36000, d=100.  Gt is X[idx]^T.
            if idx.shape[0] <= step:
                Gt = X.T.take(idx, axis=1)
                sum_y, sum_G = _weighted_gram(Gt, hi - w[idx], y[idx], Gt)
            else:
                sum_y, sum_G = np.zeros(d), np.zeros((d, d))
                for start, stop, Gt in _row_blocks(idx.shape[0], d, step):
                    rows = idx[start:stop]
                    # Every index is in range; "clip" writes straight into
                    # out= where the default "raise" buffers it.
                    X.T.take(rows, axis=1, out=Gt, mode="clip")
                    cross, gram = _weighted_gram(Gt, hi - w[rows], y[rows], Gt)
                    sum_y += cross
                    sum_G += gram
            A = (hi * Xty - sum_y) / n
            B = (hi * XtX - sum_G) / n
            return MomentPair(A=A, B=B)
    # One gemm-sized block takes A from the scaled copy that builds B;
    # otherwise A stays one product over all rows, as in every larger call.
    if n <= step and _gemm_sized(d, n):
        A, sum_G = _weighted_gram(X.T, w, y, None)
        return MomentPair(A=A / n, B=sum_G / n)
    A = X.T @ (w * y) / n
    if n <= step:
        sum_G = _weighted_gram(X.T, w, None, np.empty((d, n)))[1]
    else:
        sum_G = np.zeros((d, d))
        for start, stop, Gt in _row_blocks(n, d, step):
            sum_G += _weighted_gram(X.T[:, start:stop], w[start:stop], None, Gt)[1]
    B = sum_G / n
    return MomentPair(A=A, B=B)


def _lapack_failed(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("LAPACK reported a failed factorization")


def _cholesky_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    # potrf on B's lower triangle is the positive-definiteness test; two
    # solves against its factor would cost more than one LU solve (11 and
    # 184 us against 6 and 95 us at d = 10 and 100).  An exactly singular B
    # can pass potrf on rounding and then fail in LU, so that fails too.
    # These are the gufuncs np.linalg.cholesky/solve call, under the error
    # state those set, where LAPACK's failure flag calls _lapack_failed; a
    # fresh one per call, as numpy 1.x's decorator shares one across threads.
    try:
        with np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            _umath_linalg.cholesky_lo(B, signature="d->d")
            theta = _umath_linalg.solve1(B, A, signature="dd->d")
    except np.linalg.LinAlgError:
        return None
    if not np.logical_and.reduce(np.isfinite(theta), axis=None):
        raise MomentSolveError(
            f"B theta = A overflows float64: max |A| = {np.abs(A).max():.3g}, "
            f"max |B| = {np.abs(B).max():.3g}"
        )
    return theta


def solve_step(A: np.ndarray, B: np.ndarray) -> StepSolution:
    """Solve B theta = A for a symmetric B, with one ridge retry.

    A Cholesky factorization decides whether B is positive definite; once
    it is, theta is bitwise ``np.linalg.solve(B, A)`` (LU with partial
    pivoting, backward stable on such a B), because numpy has no
    triangular solve to reuse the factor with.  Through numpy's LAPACK
    gufuncs, without ``np.linalg``'s wrappers, the two cost 3.5 us at d=10
    (7.6 us wrapped) and 45 + 92 us at d=100 (2-core host, numpy 2.4,
    OpenBLAS 0.3.31, repeated calls), against 2 and 38 us for potrf/potrs.

    If the factorization or the solve fails (B not positive definite,
    e.g. after an unlucky noise draw, or exactly singular but passing the
    Cholesky test on rounding), retries once with B + lam I for
    lam = 1e-8 * trace(B) / d.  A second failure raises
    :class:`MomentSolveError` reporting the eigenvalue range and the
    ridge that was tried.  A theta that overflows float64 (B near
    singular against a large A) raises it too, so only a finite theta is
    returned.  A B whose asymmetry exceeds 1e-10 raises ValueError, as
    :func:`dpirls.mechanisms.wishart_perturb` does: the Cholesky test
    reads only B's lower triangle, the solve all of it.
    """
    A = _as_vector("A", A)
    B = _as_square("B", B)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, B {B.shape}")
    _check_symmetric("B", B)
    theta = _cholesky_solve(A, B)
    if theta is not None:
        return StepSolution(theta=theta, used_ridge=False)
    d = B.shape[0]
    lam = _RIDGE_FACTOR * float(np.trace(B)) / d
    theta = _cholesky_solve(A, B + lam * np.eye(d))
    if theta is not None:
        return StepSolution(theta=theta, used_ridge=True)
    eigs = np.linalg.eigvalsh(B)
    raise MomentSolveError(
        f"Gram moment is not positive definite even with ridge {lam:.3g}: "
        f"eigenvalues span [{eigs.min():.3g}, {eigs.max():.3g}]"
    )


def _shared_first_step(dataset: Dataset, weight_cap: float) -> tuple[np.ndarray, MomentPair]:
    # Iteration 1's clamped weights and exact moments, from the dataset's
    # one-entry memo (``Dataset._first_step``) or, on a miss, computed by
    # the layers every later iteration calls and stored there read-only.
    # The key holds the cap's type as well as its value: a float32 cap
    # equals its float64 rounding but clamps at a different 1/weight_cap.
    # The entry is read and replaced whole, so a thread sees a step with
    # its own key; two threads that miss at once both compute it.
    key = (type(weight_cap), weight_cap)
    slot = dataset._first_step
    entry = slot[0]
    if entry is None or entry[0] != key:
        weights = weights_from_residuals(residuals(dataset, np.zeros(dataset.d)), weight_cap)
        moments = compute_moments(dataset, weights)
        for a in (weights, *moments):
            a.setflags(write=False)
        entry = (key, weights, moments)
        slot[0] = entry
    return entry[1], entry[2]


def _run_loop(
    dataset: Dataset,
    config: IRLSConfig,
    release: Callable[[MomentPair], tuple[np.ndarray, np.ndarray, tuple[NoiseRelease, ...]]]
    | None,
) -> tuple[np.ndarray, tuple[IRLSState, ...]]:
    theta = np.zeros(dataset.d)
    weights, moments = _shared_first_step(dataset, config.weight_cap)
    trace: list[IRLSState] = []
    # The exact loop's iterates by their bytes, the strictest test (-0.0
    # and 0.0 differ), mapped to the trace index of the state that holds
    # them; theta = 0 precedes state 0.
    seen = {theta.tobytes(): -1} if release is None else None
    for t in range(config.iterations):
        if t > 0:
            weights = weights_from_residuals(residuals(dataset, theta), config.weight_cap)
            moments = compute_moments(dataset, weights)
        if release is None:
            A_out, B_out, rels = moments.A, moments.B, ()
        else:
            A_out, B_out, rels = release(moments)
        solution = solve_step(A_out, B_out)
        theta = solution.theta
        theta.setflags(write=False)
        weights.setflags(write=False)
        trace.append(
            IRLSState(theta=theta, weights=weights, used_ridge=solution.used_ridge, releases=rels)
        )
        if seen is not None:
            first = seen.setdefault(theta.tobytes(), t)
            if first != t:
                # State t + 1 would repeat state first + 1, and so on: the
                # trace cycles with period t - first from here.
                period = t - first
                while len(trace) < config.iterations:
                    trace.append(trace[-period])
                break
    return trace[-1].theta, tuple(trace)


def run_exact_irls(dataset: Dataset, config: IRLSConfig) -> tuple[np.ndarray, tuple[IRLSState, ...]]:
    """Noise-free IRLS on the exact moments.

    Returns the final iterate and the per-iteration trace.  Does not
    require the privacy norm bounds, since nothing is released.

    Each step is a deterministic map theta -> B(theta)^-1 A(theta), so
    once an iterate equals an earlier one byte for byte (or theta = 0),
    every later iteration would rebuild the states that followed it.
    The loop then stops calling the layers and fills the rest of the
    trace by repeating that cycle; a fixed point is a cycle of period 1.
    The trace still holds ``config.iterations`` states with the bits the
    full loop would give.  Iterates that settle to rounding often cycle
    in their last bits with period 2 or 4 instead of repeating the
    previous one, which a stop at the fixed point alone would miss.  On
    the README grid (weight cap 5) the exact solves compute about a
    third of their iterations.

    Like every solve, it starts from the first step memoised on the
    dataset (see ``Dataset._first_step``).
    """
    return _run_loop(dataset, config, release=None)


def run_private_irls(
    dataset: Dataset,
    config: IRLSConfig,
    budget: PrivacyBudget,
    mechanism: Mechanism | str,
    rng: np.random.Generator,
    *,
    gaussian_failure_prob: float = 1e-6,
) -> tuple[np.ndarray, tuple[IRLSState, ...], NoisePlan]:
    """IRLS on noisy moment releases under a total privacy budget.

    Each iteration spends the plan's eps' twice: once on A through the
    chosen mechanism (Laplace or Gaussian) and once on B through the
    Wishart release, drawing all noise from ``rng``, a numpy Generator.
    The dataset must satisfy the norm bounds; they are validated here
    because every calibration depends on them (a dataset that already
    passed :func:`validate_dataset` is not checked again).

    Returns the final iterate, the trace (each state carrying its two
    release records), and the resolved :class:`NoisePlan`.  The privacy
    guarantee covers theta, the plan and the release records.  It does not
    cover the trace's ``weights``, which are computed from the raw data:
    iteration 1's hold |y_i| for every row beyond 1/weight_cap.
    """
    mechanism = Mechanism(mechanism)
    _check_generator(rng)
    validate_dataset(dataset)
    plan = plan_for_budget(budget, config.iterations)
    n, cap, eps_prime = dataset.n, config.weight_cap, plan.eps_prime
    rels = (NoiseRelease(mechanism.value, eps_prime), NoiseRelease("wishart", eps_prime))

    def release(moments: MomentPair):
        if mechanism is Mechanism.LAPLACE:
            A_out = laplace_perturb(moments.A, eps_prime, cap, n, rng)
        else:
            A_out = gaussian_perturb(
                moments.A, eps_prime, gaussian_failure_prob, cap, n, rng
            )
        B_out = wishart_perturb(moments.B, eps_prime, cap, n, rng)
        return A_out, B_out, rels

    theta, trace = _run_loop(dataset, config, release=release)
    return theta, trace, plan
