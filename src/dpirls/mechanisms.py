"""Noise mechanisms for releasing weighted regression moments.

All calibrations assume the bounds enforced by
:func:`dpirls.data.validate_dataset` (row norms of X at most 1, responses
in [-1, 1]) and weights clamped to (0, weight_cap].  Under the
replace-one-row neighboring relation these give, for the cross moment A:

    L1 sensitivity  2 * weight_cap * sqrt(d) / n
    L2 sensitivity  2 * weight_cap / n

and for the Gram moment B a trace-difference bound of weight_cap / n,
which bounds the Wishart release's density ratio by exp(eps').  That
release is still not pure eps'-DP (see :func:`wishart_perturb`).  Each
perturb function refuses an empty or non-finite moment.

Every calibration reads its scalar arguments (weight_cap, eps', the
failure probability) as the Python floats their checks return, and n and
d as Python ints, so a numpy float32 or float64, a 0-d array and a float
of one value give the same float64 sensitivity and noise scale under
numpy 1 and numpy 2 alike.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .data import (
    _as_symmetric,
    _as_vector,
    _check_int,
    _check_positive_finite,
    _check_probability,
    _check_weight_cap,
)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream ``key`` of ``seed``; every seeded stream is built here."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def _check_generator(rng: np.random.Generator) -> None:
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")


def _check_calibration(n: int, weight_cap: float) -> tuple[int, float]:
    return _check_int("n", n), _check_weight_cap(weight_cap)


def _calibrated(value: float) -> bool:
    return value > 0.0 and math.isfinite(value)


def _uncalibrated(name: str, value: float, **inputs: float) -> ValueError:
    # The derived value can under- or overflow from valid inputs, so the
    # message names the inputs it came from.  Its keyword inputs are built
    # only once _calibrated has failed: every release prices its noise.
    given = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
    return ValueError(f"{name} must be positive and finite, got {value!r} from {given}")


def l1_sensitivity_A(d: int, n: int, weight_cap: float) -> float:
    """Worst-case L1 change of the cross moment A over neighboring datasets.

    Replacing one row changes (1/n) X^T S y by at most
    2 * weight_cap * sqrt(d) / n in L1 norm.
    """
    d = _check_int("d", d)
    n, cap = _check_calibration(n, weight_cap)
    return 2.0 * cap * math.sqrt(d) / n


def l2_sensitivity_A(n: int, weight_cap: float) -> float:
    """Worst-case L2 change of A over neighboring datasets: 2 * weight_cap / n."""
    n, cap = _check_calibration(n, weight_cap)
    return 2.0 * cap / n


def laplace_scale(d: int, n: int, eps_prime: float, weight_cap: float) -> float:
    """Per-coordinate Laplace scale Delta_1 / eps' for one release of A."""
    eps_prime = _check_positive_finite("eps_prime", eps_prime)
    scale = l1_sensitivity_A(d, n, weight_cap) / eps_prime
    if not _calibrated(scale):
        raise _uncalibrated("scale", scale, eps_prime=eps_prime, weight_cap=weight_cap, n=n, d=d)
    return scale


def gaussian_std(n: int, eps_prime: float, failure_prob: float, weight_cap: float) -> float:
    """Per-coordinate Gaussian std for one (eps', failure_prob)-DP release of A.

    sqrt(2 ln(1.25 / failure_prob)) * Delta_2 / eps'.  Emits a UserWarning
    when eps' >= 1, where that multiplier is not proven.
    """
    eps_prime = _check_positive_finite("eps_prime", eps_prime)
    failure_prob = _check_probability("failure_prob", failure_prob)
    if eps_prime >= 1.0:
        # The closed-form multiplier is only proven for eps' < 1.
        warnings.warn(
            f"Gaussian calibration with eps_prime={eps_prime:.4g} >= 1: the "
            "sqrt(2*log(1.25/failure_prob)) multiplier is not guaranteed there",
            UserWarning,
            stacklevel=2,
        )
    mult = math.sqrt(2.0 * math.log(1.25 / failure_prob))
    std = mult * l2_sensitivity_A(n, weight_cap) / eps_prime
    if not _calibrated(std):
        raise _uncalibrated("std", std, eps_prime=eps_prime, weight_cap=weight_cap, n=n)
    return std


def wishart_variance(n: int, eps_prime: float, weight_cap: float) -> float:
    """Entry variance weight_cap / (2 eps' n) of Z in one Wishart release Z Z^T of B."""
    n, cap = _check_calibration(n, weight_cap)
    eps_prime = _check_positive_finite("eps_prime", eps_prime)
    variance = cap / (2.0 * eps_prime * n)
    if not _calibrated(variance):
        raise _uncalibrated("variance", variance, eps_prime=eps_prime, weight_cap=weight_cap, n=n)
    return variance


def laplace_perturb(
    A: np.ndarray,
    eps_prime: float,
    weight_cap: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Release A with per-coordinate Laplace noise at scale Delta_1 / eps'.

    Pure eps'-DP for one release under the replace-one relation, given the
    data bounds and weight clamp stated in the module docstring.
    """
    A = _as_vector("A", A)
    scale = laplace_scale(A.shape[0], n, eps_prime, weight_cap)
    _check_generator(rng)
    return A + rng.laplace(0.0, scale, A.shape)


def gaussian_perturb(
    A: np.ndarray,
    eps_prime: float,
    failure_prob: float,
    weight_cap: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Release A with Gaussian noise at std sqrt(2 log(1.25/failure_prob)) Delta_2 / eps'.

    (eps', failure_prob)-DP for one release; emits a UserWarning when
    eps' >= 1 because the classic calibration is only proven below 1.
    """
    A = _as_vector("A", A)
    std = gaussian_std(n, eps_prime, failure_prob, weight_cap)
    _check_generator(rng)
    return A + rng.normal(0.0, std, A.shape)


def wishart_perturb(
    B: np.ndarray,
    eps_prime: float,
    weight_cap: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Release B as B + Z Z^T with Z a (d, d+1) matrix of N(0, v) entries.

    v = weight_cap / (2 * eps' * n).  The additive part is positive
    semidefinite, so the release can only push B further into the PSD
    cone, and the output is symmetric bit for bit.  Its density ratio is
    bounded by exp(eps') under the replace-one relation, but as the
    release always lies above B in the PSD order it is not pure eps'-DP
    where a neighbour's support differs: delta >= P[chi2_{d+1} < 2 eps']
    (test_wishart_release_falls_outside_a_neighbours_support_at_the_chi2_rate).
    """
    B = _as_symmetric("B", B)
    d = B.shape[0]
    variance = wishart_variance(n, eps_prime, weight_cap)
    _check_generator(rng)
    Z = rng.normal(0.0, math.sqrt(variance), (d, d + 1))
    # numpy routes Z @ Z.T to BLAS syrk, which computes one triangle and
    # mirrors it, so the noise term is symmetric bitwise, not just up to
    # rounding (test_wishart_output_exactly_symmetric_and_psd_shift pins this).
    return B + Z @ Z.T
