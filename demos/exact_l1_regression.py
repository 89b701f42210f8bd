"""Least-absolute-deviations regression by iterative reweighting.

Fits a line through data with a few gross outliers twice: once by
ordinary least squares, once by the reweighted L1 solver.  The squared
loss chases the outliers; the absolute loss shrugs them off.
"""

import numpy as np

from dpirls import Dataset, IRLSConfig, run_exact_irls
from dpirls.solver import residuals


def main():
    gen = np.random.default_rng(7)
    n, d = 200, 3
    X = gen.uniform(-1.0, 1.0, (n, d)) / np.sqrt(d)
    theta_true = np.array([0.8, -0.5, 0.3])
    y = X @ theta_true + gen.normal(0.0, 0.02, n)
    # A handful of wildly corrupted responses.
    bad = gen.choice(n, size=10, replace=False)
    y[bad] += gen.choice([-4.0, 4.0], size=10)

    ds = Dataset(X, y)
    config = IRLSConfig(iterations=30, weight_cap=1e4)
    theta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    theta_l1, trace = run_exact_irls(ds, config)

    print("true parameters:   ", np.array2string(theta_true, precision=4))
    print("least squares:     ", np.array2string(theta_ls, precision=4),
          f" (error {np.linalg.norm(theta_ls - theta_true):.4f})")
    print("reweighted L1:     ", np.array2string(theta_l1, precision=4),
          f" (error {np.linalg.norm(theta_l1 - theta_true):.4f})")

    # The clamped weights are the Huber loss's psi(r) / r at delta = 1/cap,
    # so each step minimizes a majorizer of that loss and never raises it.
    delta = 1.0 / config.weight_cap
    print(f"\nmean Huber loss at delta = {delta:g} by iteration (never rises):")
    for t, state in enumerate(trace, 1):
        if t % 5 == 1 or t == len(trace):
            r = np.abs(residuals(ds, state.theta))
            huber = np.where(r <= delta, r**2 / (2 * delta), r - delta / 2).mean()
            print(f"  iter {t:2d}: {huber:.6f}")


if __name__ == "__main__":
    main()
