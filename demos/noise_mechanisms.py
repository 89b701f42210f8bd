"""What each privacy mechanism actually adds, at honest scales.

The moment vector A can be released through Laplace or Gaussian noise;
the moment matrix B goes through the Wishart release, whose additive
part is positive semidefinite, so the released matrix stays usable by
the downstream solve.  Noise scales shrink linearly with the dataset
size: privacy is cheap exactly when data is plentiful.
"""

import numpy as np

from dpirls import (
    Dataset,
    gaussian_std,
    laplace_scale,
    wishart_perturb,
    wishart_variance,
)
from dpirls.solver import compute_moments


def main():
    d, eps_prime, cap, failure_prob = 5, 0.3, 10.0, 1e-5

    print(f"calibrated noise for d={d}, eps'={eps_prime}, weight cap {cap}:")
    print(f"{'N':>8}  {'laplace scale':>14}  {'gaussian std':>13}  {'wishart var':>12}")
    for n in (500, 2000, 10000, 100000):
        lap = laplace_scale(d, n, eps_prime, cap)
        gau = gaussian_std(n, eps_prime, failure_prob, cap)
        wis = wishart_variance(n, eps_prime, cap)
        print(f"{n:>8}  {lap:>14.6f}  {gau:>13.6f}  {wis:>12.2e}")

    # One concrete release.
    gen = np.random.default_rng(21)
    X = gen.uniform(-1.0, 1.0, (2000, d)) / np.sqrt(d)
    y = np.tanh(X.sum(axis=1))
    weights = np.full(2000, 1.0)
    moments = compute_moments(Dataset(X, y), weights)

    released = wishart_perturb(moments.B, eps_prime, cap, 2000, np.random.default_rng(3))
    eig_before = np.linalg.eigvalsh(moments.B).min()
    eig_after = np.linalg.eigvalsh(released).min()
    print("\nwishart release of the second moment matrix:")
    print(f"  smallest eigenvalue before: {eig_before:.6f}")
    print(f"  smallest eigenvalue after:  {eig_after:.6f}  (never pushed below zero)")
    print(f"  max entry change:           {np.abs(released - moments.B).max():.6f}")


if __name__ == "__main__":
    main()
