"""Noise mechanisms for releasing weighted regression moments.

All calibrations assume the bounds enforced by
:func:`dpirls.data.validate_dataset` (row norms of X at most 1, responses
in [-1, 1]) and weights clamped to (0, weight_cap].  Under the
replace-one-row neighboring relation these give, for the cross moment A:

    L1 sensitivity  2 * weight_cap * sqrt(d) / n
    L2 sensitivity  2 * weight_cap / n

and for the Gram moment B a trace-difference bound of weight_cap / n,
which the Wishart mechanism converts into a per-release epsilon
guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import (
    _as_square,
    _as_vector,
    _check_int,
    _check_positive_finite,
    _check_probability,
)

# A Gram matrix assembled from real data is symmetric to a few ulp; a
# larger asymmetry means the caller is not passing a moment matrix.
_SYMMETRY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: one (seed, stream_id) pair, one stream.

    Distinct ``stream_id`` values under the same seed give statistically
    independent streams; identical pairs reproduce draws bit for bit.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_int("seed", self.seed, 0)
        _check_int("stream_id", self.stream_id, 0)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng: SeededRng | np.random.Generator | int) -> np.random.Generator:
    """Accept a SeededRng, a Generator, or a plain seed."""
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return SeededRng(int(rng)).generator()
    raise TypeError(f"expected SeededRng, numpy Generator, or int, got {type(rng).__name__}")


def _check_calibration(n: int, weight_cap: float) -> None:
    _check_int("n", n)
    _check_positive_finite("weight_cap", weight_cap)


def l1_sensitivity_A(d: int, n: int, weight_cap: float) -> float:
    """Worst-case L1 change of the cross moment A over neighboring datasets.

    Replacing one row changes (1/n) X^T S y by at most
    2 * weight_cap * sqrt(d) / n in L1 norm.
    """
    _check_int("d", d)
    _check_calibration(n, weight_cap)
    return 2.0 * weight_cap * math.sqrt(d) / n


def l2_sensitivity_A(n: int, weight_cap: float) -> float:
    """Worst-case L2 change of A over neighboring datasets: 2 * weight_cap / n."""
    _check_calibration(n, weight_cap)
    return 2.0 * weight_cap / n


@dataclass(frozen=True)
class LaplaceNoiseSpec:
    """Per-coordinate Laplace scale for one release of A."""

    scale: float

    def __post_init__(self) -> None:
        _check_positive_finite("scale", self.scale)

    @classmethod
    def calibrate(cls, d: int, n: int, eps_prime: float, weight_cap: float) -> "LaplaceNoiseSpec":
        _check_positive_finite("eps_prime", eps_prime)
        return cls(scale=l1_sensitivity_A(d, n, weight_cap) / eps_prime)


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """Per-coordinate Gaussian std for one (eps', failure_prob)-DP release of A."""

    std: float
    sensitivity: float
    multiplier: float
    failure_prob: float

    def __post_init__(self) -> None:
        _check_positive_finite("std", self.std)

    @classmethod
    def calibrate(
        cls, n: int, eps_prime: float, failure_prob: float, weight_cap: float
    ) -> "GaussianNoiseSpec":
        _check_positive_finite("eps_prime", eps_prime)
        _check_probability("failure_prob", failure_prob)
        if eps_prime >= 1.0:
            # The closed-form multiplier is only proven for eps' < 1.
            warnings.warn(
                f"Gaussian calibration with eps_prime={eps_prime:.4g} >= 1: the "
                "sqrt(2*log(1.25/failure_prob)) multiplier is not guaranteed there",
                UserWarning,
                stacklevel=2,
            )
        sens = l2_sensitivity_A(n, weight_cap)
        mult = math.sqrt(2.0 * math.log(1.25 / failure_prob))
        return cls(
            std=mult * sens / eps_prime,
            sensitivity=sens,
            multiplier=mult,
            failure_prob=failure_prob,
        )


@dataclass(frozen=True)
class WishartNoiseSpec:
    """Gaussian variance and column count for one Wishart release of B.

    The additive noise is Z Z^T with Z of shape (d, d+1) and entries
    N(0, variance), variance = weight_cap / (2 * eps_prime * n).
    """

    variance: float
    dof: int

    def __post_init__(self) -> None:
        _check_positive_finite("variance", self.variance)
        if self.dof < 2:
            raise ValueError(f"dof must be at least 2, got {self.dof!r}")

    @classmethod
    def calibrate(cls, d: int, n: int, eps_prime: float, weight_cap: float) -> "WishartNoiseSpec":
        _check_int("d", d)
        _check_calibration(n, weight_cap)
        _check_positive_finite("eps_prime", eps_prime)
        return cls(variance=weight_cap / (2.0 * eps_prime * n), dof=d + 1)


def laplace_perturb(
    A: np.ndarray,
    eps_prime: float,
    weight_cap: float,
    n: int,
    rng: SeededRng | np.random.Generator | int,
) -> np.ndarray:
    """Release A with per-coordinate Laplace noise at scale Delta_1 / eps'.

    Pure eps'-DP for one release under the replace-one relation, given the
    data bounds and weight clamp stated in the module docstring.
    """
    A = _as_vector("A", A)
    spec = LaplaceNoiseSpec.calibrate(A.shape[0], n, eps_prime, weight_cap)
    gen = as_generator(rng)
    return A + gen.laplace(loc=0.0, scale=spec.scale, size=A.shape)


def gaussian_perturb(
    A: np.ndarray,
    eps_prime: float,
    failure_prob: float,
    weight_cap: float,
    n: int,
    rng: SeededRng | np.random.Generator | int,
) -> np.ndarray:
    """Release A with Gaussian noise at std sqrt(2 log(1.25/failure_prob)) Delta_2 / eps'.

    (eps', failure_prob)-DP for one release; emits a UserWarning when
    eps' >= 1 because the classic calibration is only proven below 1.
    """
    A = _as_vector("A", A)
    spec = GaussianNoiseSpec.calibrate(n, eps_prime, failure_prob, weight_cap)
    gen = as_generator(rng)
    return A + gen.normal(loc=0.0, scale=spec.std, size=A.shape)


def wishart_perturb(
    B: np.ndarray,
    eps_prime: float,
    weight_cap: float,
    n: int,
    rng: SeededRng | np.random.Generator | int,
) -> np.ndarray:
    """Release B as B + Z Z^T with Z a (d, d+1) matrix of N(0, v) entries.

    v = weight_cap / (2 * eps' * n).  The additive part is positive
    semidefinite, so the release can only push B further into the PSD
    cone, and the output is symmetric bit for bit.  Pure eps'-DP for one
    release under the replace-one relation.
    """
    B = _as_square("B", B)
    asym = float(np.max(np.abs(B - B.T))) if B.size else 0.0
    if asym > _SYMMETRY_TOLERANCE:
        raise ValueError(f"B must be symmetric; max |B - B^T| = {asym:.3g}")
    d = B.shape[0]
    spec = WishartNoiseSpec.calibrate(d, n, eps_prime, weight_cap)
    gen = as_generator(rng)
    Z = gen.normal(loc=0.0, scale=math.sqrt(spec.variance), size=(d, spec.dof))
    # einsum evaluates entry (j, k) and (k, j) as the same sum, so the
    # noise term is symmetric bitwise, not just up to rounding.
    return B + np.einsum("jm,km->jk", Z, Z)
