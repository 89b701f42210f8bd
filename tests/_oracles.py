"""Independent reference computations used by unit and acceptance tests.

These deliberately avoid the library's own code paths: plain loops and
brute-force searches whose correctness is obvious by inspection.
"""

import math

import numpy as np


def naive_moments(X, y, weights):
    """Row-by-row accumulation of (1/n) X^T S y and (1/n) X^T S X."""
    n, d = X.shape
    A = np.zeros(d)
    B = np.zeros((d, d))
    for i in range(n):
        A += weights[i] * y[i] * X[i]
        B += weights[i] * np.outer(X[i], X[i])
    return A / n, B / n


def longdouble_solve(B, A):
    """Solution of B x = A by Gaussian elimination with partial pivoting in
    np.longdouble, which numpy.linalg does not support."""
    M = np.asarray(B, dtype=np.longdouble).copy()
    x = np.asarray(A, dtype=np.longdouble).copy()
    d = x.shape[0]
    for k in range(d):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        M[[k, p]] = M[[p, k]]
        x[[k, p]] = x[[p, k]]
        f = M[k + 1:, k] / M[k, k]
        M[k + 1:, k:] -= np.outer(f, M[k, k:])
        x[k + 1:] -= f * x[k]
    for k in range(d - 1, -1, -1):
        x[k] = (x[k] - M[k, k + 1:] @ x[k + 1:]) / M[k, k]
    return x


def grid_l1_minimizer(x, y, rounds=4, points=2001):
    """Refined grid search for argmin_t mean |y - x t| over scalar t.

    The objective is convex piecewise linear, so each refinement keeps
    the global minimizer inside the bracketed window.  Four rounds over
    2001 points shrink the spacing below 1e-8 for any starting range of
    a few units.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ratios = y / x
    lo, hi = float(ratios.min()) - 0.5, float(ratios.max()) + 0.5
    best = 0.0
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        obj = np.abs(y[None, :] - grid[:, None] * x[None, :]).mean(axis=1)
        i = int(np.argmin(obj))
        best = float(grid[i])
        step = (hi - lo) / (points - 1)
        lo, hi = best - 2.0 * step, best + 2.0 * step
    return best


def streaming_mean_stderr(values):
    """Two-pass mean and standard error (ddof=1), written as plain loops."""
    k = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / k
    if k == 1:
        return mean, 0.0
    ss = 0.0
    for v in values:
        ss += (v - mean) ** 2
    return mean, (ss / (k - 1)) ** 0.5 / k**0.5


def unscaled_synthetic(n, d, noise_var, seed):
    """X, y and theta* from synthetic.generate's documented recipe, without
    its last step, the scaling of y to [-1, 1].

    The draws come from the stream generate uses (spawn key 0 of ``seed``),
    so theta* is the exact regression parameter of this y up to the noise.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    gen = np.random.Generator(np.random.PCG64(seq))
    X = gen.standard_normal((n, d))
    X = X / np.linalg.norm(X, axis=1).max()
    theta = gen.standard_normal(d)
    y = X @ theta + math.sqrt(noise_var) * gen.standard_normal(n)
    return X, y, theta


def audit_epsilon(outputs, neighbour_outputs, delta=0.0, alpha=0.05, cuts=200):
    """Statistical lower bound on the eps of a release, from its scalar
    outputs on the two datasets of a neighbouring pair.

    Any (eps, delta)-DP release gives every event E probabilities p and q
    on the two sides with p <= e^eps q + delta, so eps >= log((p - delta) / q).
    The first half of each sample picks the event: among {z > t} and
    {z < t} for ``cuts`` thresholds t at quantiles of the pooled first
    halves, and both orders of the pair, the one whose bound below is
    largest on those halves.  The second halves, which the choice never
    saw, give the returned bound: a one-sided Clopper-Pearson lower bound
    on p and upper bound on q, each at level alpha / 2, so the bound
    exceeds the release's true eps with probability at most alpha.
    It returns -inf when the chosen event never fires.  Needs scipy.

    After Ding et al., "Detecting violations of differential privacy"
    (CCS 2018), and Jagielski, Ullman and Oprea, "Auditing differentially
    private machine learning" (NeurIPS 2020).
    """
    from scipy.stats import beta

    samples = [np.asarray(outputs, dtype=float), np.asarray(neighbour_outputs, dtype=float)]
    halves = [(s[: len(s) // 2], s[len(s) // 2:]) for s in samples]
    pooled = np.concatenate([h[0] for h in halves])
    thresholds = np.quantile(pooled, np.linspace(0.0, 1.0, cuts + 2)[1:-1])

    def event_counts(sample):
        # Counts of {z > t} and {z < t} for every threshold: shape (2, cuts).
        s = np.sort(sample)
        return np.stack([len(s) - np.searchsorted(s, thresholds, side="right"),
                         np.searchsorted(s, thresholds, side="left")])

    def bounds(part):
        # Bound for every (order, direction, threshold): shape (2, 2, cuts).
        a, b = halves[0][part], halves[1][part]
        ka, kb = event_counts(a), event_counts(b)
        out = []
        for (kp, mp), (kq, mq) in (((ka, len(a)), (kb, len(b))), ((kb, len(b)), (ka, len(a)))):
            p_lo = np.where(kp > 0, beta.ppf(alpha / 2, np.maximum(kp, 1), mp - kp + 1), 0.0)
            q_hi = np.where(kq < mq, beta.ppf(1 - alpha / 2, kq + 1, np.maximum(mq - kq, 1)), 1.0)
            with np.errstate(divide="ignore"):
                out.append(np.log(np.maximum(p_lo - delta, 0.0) / q_hi))
        return np.stack(out)

    choice = np.unravel_index(np.argmax(bounds(0)), (2, 2, cuts))
    return float(bounds(1)[choice])
