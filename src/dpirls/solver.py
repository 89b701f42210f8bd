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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core.multiarray import count_nonzero
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import count_nonzero

from .accountant import NoisePlan, PrivacyBudget, plan_for_budget
from .data import (
    _GEMM_MAX_D,
    DataValidationError,
    Dataset,
    _all_finite,
    _as_symmetric,
    _as_theta,
    _as_vector,
    _check_finite,
    _check_int,
    _check_weight_cap,
    _x_order,
    validate_dataset,
)
from .mechanisms import _check_generator, gaussian_perturb, laplace_perturb, wishart_perturb

_RIDGE_FACTOR = 1e-8

# Largest max(w) / min(w) at which compute_moments takes the capped-weight
# update; it bounds that path's rounding error (see compute_moments).
_UPDATE_MAX_RATIO = 64.0

# compute_moments adds up its Gram and cross terms over blocks of rows
# holding at most this many float64 entries (1 MiB, half of one core's
# 2 MiB L2 on the 2-core benchmark host), so a call's scratch memory
# stays one block plus a few vectors of length n whatever n * d is: at
# n = 36000, d = 100 with about 8000 rows below the cap it peaks at
# 1.6 MB, against 4.7 MB with blocks of 2^19 entries.  There the 19
# calls of a private solve took about 2% longer than with 2^19 entries
# (two OpenBLAS threads, 1310-row blocks against 5242-row ones).
_MOMENT_BLOCK_ELEMENTS = 1 << 17

# Largest d * d * rows, and largest d (data._GEMM_MAX_D, which also sets
# Dataset.X's storage order), at which compute_moments forms a weighted
# Gram product with one gemm instead of a syrk (see _weighted_gram);
# measured where the gemm form stops being the faster one (see
# compute_moments).
_GEMM_MAX_MULADDS = 100**3


class MomentSolveError(RuntimeError):
    """Raised when B theta = A cannot be solved even with the ridge fallback."""


class MomentPair(NamedTuple):
    """Weighted moments A = (1/n) X^T S y (length d) and B = (1/n) X^T S X (d x d)."""

    A: np.ndarray
    B: np.ndarray


class StepSolution(NamedTuple):
    theta: np.ndarray
    used_ridge: bool


@dataclass(frozen=True)
class IRLSConfig:
    """Loop parameters shared by the exact and private solvers.

    ``iterations`` and ``weight_cap`` are kept as the Python int and float
    their checks return.
    """

    iterations: int
    weight_cap: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations", _check_int("iterations", self.iterations))
        object.__setattr__(self, "weight_cap", _check_weight_cap(self.weight_cap))


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
    |r_i| <= 1/weight_cap.  The floor is the float64 reciprocal of the
    cap, raised by one ulp at a time while its own reciprocal rounds above
    the cap (1/(1/49) is 49.00000000000001).  Built in one n-length buffer.
    """
    cap = _check_weight_cap(weight_cap)
    floor = 1.0 / cap
    while 1.0 / floor > cap:
        floor = math.nextafter(floor, math.inf)
    w = np.abs(np.asarray(res, dtype=np.float64))
    np.maximum(w, floor, out=w)
    return np.divide(1.0, w, out=w)


def _gemm_sized(d: int, rows: int) -> bool:
    return d <= _GEMM_MAX_D and d * d * rows <= _GEMM_MAX_MULADDS


def _weighted_gram(Xt, v, y, out=None):
    """Return ``(Xt diag(v) y, Xt diag(v) Xt^T)`` for a (d, rows) ``Xt``.

    A product of at most ``_GEMM_MAX_MULADDS`` multiply-adds at d <=
    ``_GEMM_MAX_D`` takes St = Xt diag(v), St y and the gemm G = St Xt^T,
    and returns (G + G^T) / 2 as the Gram.  Any other scales Xt by sqrt(v)
    into ``out``, a (d, rows) array that may be ``Xt`` itself, or into a
    fresh array laid out as ``Xt`` where ``out`` is None, and takes
    ``out (sqrt(v) y)`` and the syrk ``out out^T``.  Either Gram is
    symmetric bit for bit.
    """
    if _gemm_sized(*Xt.shape):
        St = Xt * v
        G = St @ Xt.T
        G = G + G.T
        G *= 0.5
        return St @ y, G
    c = np.sqrt(v)
    out = np.multiply(Xt, c, out=out)
    return out @ (c * y), out @ out.T


def _gather_rows(X, idx, out=None):
    # X[idx]^T as a (d, len(idx)) array, gathered as contiguous runs of X:
    # whole rows of row-major X, or along the rows of X.T (X's columns) when
    # X is column-major, where X[idx] read each row at a stride of n and was
    # 2.6x slower at n=36000, d=100.  Every index is in range; "clip" writes
    # straight into out= where the default "raise" buffers it.
    if _x_order(X.shape[1]) == "C":
        return X.take(idx, axis=0, out=None if out is None else out.T, mode="clip").T
    return X.T.take(idx, axis=1, out=out, mode="clip")


def _block_sums(X, idx, v, y):
    # The sums of _weighted_gram over blocks of at most
    # _MOMENT_BLOCK_ELEMENTS entries, counted in rows from the first: row
    # slices of X where idx is None, else the rows X[idx], gathered block
    # by block.  ``v`` and ``y`` hold one entry per row summed.  Rows that
    # fit one block take the one-product formula before any buffer is
    # allocated, scaled into a fresh array on the direct path and in place
    # in the gathered rows on the update: the README grid makes thousands
    # of such small calls, and the loop cost each a few microseconds more.
    # Every block of a longer call is scaled into one buffer, laid out as
    # X.T is: a fresh array per block can pay for new pages each time.
    rows, d = v.shape[0], X.shape[1]
    step = max(1, _MOMENT_BLOCK_ELEMENTS // d)
    if rows <= step:
        Xt = X.T if idx is None else _gather_rows(X, idx)
        return _weighted_gram(Xt, v, y, None if idx is None else Xt)
    buf = np.empty(d * step)
    sum_y, sum_G = np.zeros(d), np.zeros((d, d))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = buf[: d * (stop - start)]
        Gt = block.reshape(-1, d).T if _x_order(d) == "C" else block.reshape(d, -1)
        Xt = X.T[:, start:stop] if idx is None else _gather_rows(X, idx[start:stop], Gt)
        cross, gram = _weighted_gram(Xt, v[start:stop], y[start:stop], Gt)
        sum_y += cross
        sum_G += gram
    return sum_y, sum_G


def compute_moments(dataset: Dataset, weights: np.ndarray) -> MomentPair:
    """Weighted sufficient statistics (1/n) X^T S y and (1/n) X^T S X.

    The direct formula scales the rows by their weights one block at a
    time (see below).  A product of at most 1e6 multiply-adds (d * d *
    rows) at d <= 30 (every call of the README grid, n <= 9000 at d = 10)
    takes St = X^T S, A = St y / n and the gemm G = St X, and sets
    B = (G + G^T) / (2n).  Any other takes G = diag(sqrt(s)) X, whose
    ``G.T @ G`` numpy routes to BLAS ``syrk``, which computes one
    triangle and mirrors it onto the other, and A = G^T (sqrt(s) y) / n.
    Each form is the faster one on its side of the limits: the gemm form
    took 0.58-0.84 times the syrk form's time at d = 10 and n = 2000 to
    10000 (1.00e6 multiply-adds), but 1.15 times at n = 11000 and 1.3-1.8
    times at d = 20 and 30 just past the limit; below it, 0.93-1.17 times
    at d = 30, 1.06-1.35 times at d = 40, 1.3-1.45 times at d = 50 and up
    to 1.48 times at d = 100 (2-core host, numpy 2.4, OpenBLAS 0.3.31,
    default thread count).
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

    Both paths sum over blocks of rows in one loop, whose one reused
    buffer of at most 2^17 entries (1 MiB) is laid out as X is (see
    :class:`dpirls.data.Dataset`: column-major up to d = 30, where the
    gemm form can run, and row-major above): the direct path over row
    slices of X, the update over the k rows below b, gathered as whole
    contiguous rows of row-major X or along the contiguous columns of
    column-major X.  Each block adds its Gram and its cross term to
    running sums, so A, like B, comes from the scaled rows on either
    layout.  The update forms b - s (in place in the gathered weights)
    and y over its k rows once per call, not once per block.  Block edges
    are counted in rows from the first, whatever the BLAS thread count.
    A call's scratch memory is thus one block plus a few vectors of
    length n, not a copy of X or of its k rows (a gemm-sized block is
    scaled into a fresh array of its own size instead).  A call whose
    rows fit in one block (n d <= 2^17 on the direct path, k d <= 2^17 on
    the update) takes the one-product formula before the loop allocates
    its buffer, scaling the rows into a fresh array on the direct path
    and in place in the gathered rows on the update, with the numpy calls
    of that formula alone.  Every call of the README grid is one
    block (n d <= 90,000), but a direct call at d = 20 and n = 10,000
    already takes two.  With more blocks the sums are added in another
    order, which moves A and B in the low bits.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != dataset.n:
        raise ValueError(f"weights must have shape ({dataset.n},), got {w.shape}")
    # The check and the choice of path take three passes over w: its
    # maximum b = hi, the mask of the k rows below b with its count, and
    # the minimum.  Every other row equals b, so where the update may pay
    # (2k <= n) the minimum is that of the k gathered weights, which the
    # update reuses; otherwise it is min(w).  One test then refuses every
    # bad weight: a NaN anywhere makes hi NaN, so that no row is below it
    # and lo = hi is NaN too; an infinity fails hi < inf, and a weight of 0
    # or below fails 0 < lo.
    hi = float(np.maximum.reduce(w))
    n = dataset.n
    below = w < hi
    # numpy's compiled count: np.count_nonzero is a Python wrapper, and an
    # add.reduce over the mask took 0.9-3.4 us against 0.05-0.4 us at
    # n = 450-9000.
    k = count_nonzero(below)
    if 2 * k <= n:
        idx = below.nonzero()[0]
        wk = w[idx]
        lo = float(np.minimum.reduce(wk)) if k else hi
    else:
        lo = float(np.minimum.reduce(w))
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError("weights must be finite and strictly positive")
    X, y = dataset.X, dataset.y
    if 2 * k <= n and hi <= _UPDATE_MAX_RATIO * lo:
        XtX, Xty = dataset._unit_moments
        v = np.subtract(hi, wk, out=wk)  # b - s
        sum_y, sum_G = _block_sums(X, idx, v, y[idx])
        return MomentPair(A=(hi * Xty - sum_y) / n, B=(hi * XtX - sum_G) / n)
    sum_y, sum_G = _block_sums(X, None, w, y)
    return MomentPair(A=sum_y / n, B=sum_G / n)


def _cholesky_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    # potrf on B's lower triangle is the positive-definiteness test; two
    # solves against its factor would cost more than one LU solve (11 and
    # 184 us against 6 and 95 us at d = 10 and 100).  An exactly singular B
    # can pass potrf on rounding and then fail in LU, so that fails too.
    # These are the gufuncs np.linalg.cholesky/solve call.  Both report a
    # failed factorization through the invalid flag, which the error state
    # here turns into the one FloatingPointError caught; it is a fresh state
    # per call, as numpy 1.x's decorator shares one across threads.
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            _umath_linalg.cholesky_lo(B, signature="d->d")
            theta = _umath_linalg.solve1(B, A, signature="dd->d")
    except FloatingPointError:
        return None
    if not _all_finite(theta):
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
    B = _as_symmetric("B", B)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, B {B.shape}")
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
    # Both solvers pass their data through data._check_finite first, so X
    # and y are finite here and every row norm is too.  The entry is keyed
    # by the cap, a Python float (see IRLSConfig), and read and replaced
    # whole, so a thread sees a step with its own cap; two threads that
    # miss at once both compute it.
    slot = dataset._first_step
    entry = slot[0]
    if entry is None or entry[0] != weight_cap:
        weights = weights_from_residuals(residuals(dataset, np.zeros(dataset.d)), weight_cap)
        moments = compute_moments(dataset, weights)
        for a in (weights, *moments):
            a.setflags(write=False)
        entry = (weight_cap, weights, moments)
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
    require the privacy norm bounds, since nothing is released.  Before
    any iteration it refuses, with :class:`dpirls.data.DataValidationError`,
    what :func:`dpirls.data.clip_dataset` refuses, with the same
    messages: a NaN or an infinity in X, then in y, then a finite row of
    X whose L2 norm overflows float64.  That last holds even where the
    weighted moments would stay finite (a huge |y_i| shrinks the row's
    weight), so such a row is refused rather than solved.  Then it
    refuses, by the same error with a message naming the cap, data whose
    weighted moments could overflow float64: where 2 * weight_cap * sum_i
    ||x_i|| (||x_i|| + |y_i|) is not finite.  Every weight lies in (0, weight_cap],
    so that bound covers every entry of A, of B and of the sums that build
    them on either path of :func:`compute_moments`.  It is taken from the
    row norms of the first check, without another pass over X.

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
    norms = _check_finite(dataset.X, dataset.y)
    with np.errstate(over="ignore"):
        bound = float(np.add.reduce(norms * (norms + np.abs(dataset.y))))
    if not 2.0 * config.weight_cap * bound < np.inf:
        raise DataValidationError(
            "the weighted moments of X and y may overflow float64 at "
            f"weight_cap={config.weight_cap!r}; scale X and y down"
        )
    return _run_loop(dataset, config, release=None)


def run_private_irls(
    dataset: Dataset,
    config: IRLSConfig,
    budget: PrivacyBudget,
    mechanism: str,
    rng: np.random.Generator,
    *,
    gaussian_failure_prob: float = 1e-6,
) -> tuple[np.ndarray, tuple[IRLSState, ...], NoisePlan]:
    """IRLS on noisy moment releases under a total privacy budget.

    Each iteration spends the plan's eps' twice: once on A through the
    mechanism ``"laplace"`` or ``"gaussian"`` and once on B through the
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
    if mechanism not in ("laplace", "gaussian"):
        raise ValueError(f"mechanism must be 'laplace' or 'gaussian', got {mechanism!r}")
    _check_generator(rng)
    validate_dataset(dataset)
    plan = plan_for_budget(budget, config.iterations)
    n, cap, eps_prime = dataset.n, config.weight_cap, plan.eps_prime
    rels = (NoiseRelease(mechanism, eps_prime), NoiseRelease("wishart", eps_prime))

    def release(moments: MomentPair):
        if mechanism == "laplace":
            A_out = laplace_perturb(moments.A, eps_prime, cap, n, rng)
        else:
            A_out = gaussian_perturb(
                moments.A, eps_prime, gaussian_failure_prob, cap, n, rng
            )
        B_out = wishart_perturb(moments.B, eps_prime, cap, n, rng)
        return A_out, B_out, rels

    theta, trace = _run_loop(dataset, config, release=release)
    return theta, trace, plan
