"""Privacy accounting: split a total budget into per-release budgets.

One solver run of J iterations makes 2J noisy releases (the cross moment
and the Gram moment once per iteration).  Three regimes translate a total
budget into the per-release eps' handed to the mechanisms:

CDP
    Budget eps is read as rho = eps zero-concentrated DP (zCDP).  A pure
    eps'-DP release costs eps'^2 / 2 there (Bun & Steinke 2016) and zCDP
    costs add, so k releases fit when eps' = sqrt(2 eps / k).  The plan's
    receipt rho = k eps'^2 / 2 equals eps up to rounding: the split is
    kept exact (eps' == sqrt(eps / J)) rather than clamped, so the float
    receipt can land an ulp or two on either side of eps.
CONVENTIONAL
    Basic sequential composition: eps' = eps / k.
ADVANCED
    Strong composition with slack failure_prob: the largest eps'
    satisfying sqrt(2 k ln(1/failure_prob)) eps' + k eps' (e^eps' - 1)
    <= eps, found by bisection down to adjacent floats.

The strong-composition cost is strictly increasing in eps', so ADVANCED
yields a larger eps' than CONVENTIONAL exactly when the basic split eps/k
costs less than eps under strong composition, i.e. when

    sqrt(2 ln(1/failure_prob) / k) + expm1(eps / k) < 1;

otherwise CONVENTIONAL's eps' is at least as large.  k > 2 ln(1/failure_prob)
(about 27.6 releases at failure_prob = 1e-6) is necessary for that but not
sufficient: at eps = 0.9 and failure_prob = 1e-6 basic composition still
wins at k = 28 and 29, and strong composition first wins at k = 30.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .data import _check_int, _check_positive_finite, _check_probability

class Regime(enum.Enum):
    CDP = "cdp"
    CONVENTIONAL = "conventional"
    ADVANCED = "advanced"


@dataclass(frozen=True)
class PrivacyBudget:
    """Total budget for one solver run.

    ``failure_prob`` is the composition slack of the ADVANCED regime and
    must be 0 in the other two; it is unrelated to the failure probability
    of a Gaussian release, which is a mechanism parameter.
    """

    epsilon: float
    failure_prob: float = 0.0
    regime: Regime = Regime.CDP

    def __post_init__(self) -> None:
        _check_positive_finite("epsilon", self.epsilon)
        if not isinstance(self.regime, Regime):
            raise ValueError(f"regime must be a Regime, got {self.regime!r}")
        if self.regime is Regime.ADVANCED:
            _check_probability("failure_prob", self.failure_prob)
        elif self.failure_prob != 0.0:
            raise ValueError(
                f"failure_prob must be 0 in regime {self.regime.value}, "
                f"got {self.failure_prob!r}"
            )


class NoisePlan(NamedTuple):
    """Resolved accounting for one run of J iterations: what each release may spend.

    ``rho = J eps'^2`` is the zCDP spend of the plan's 2J releases,
    recorded exactly when the regime is CDP and None otherwise.
    """

    eps_prime: float
    rho: float | None


def _check_split_args(epsilon: float, iterations: int) -> int:
    _check_positive_finite("epsilon", epsilon)
    _check_int("iterations", iterations)
    return 2 * iterations


def _checked_split(eps_prime: float, epsilon: float, k: int) -> float:
    if not (eps_prime > 0.0 and math.isfinite(eps_prime)):
        raise ValueError(f"epsilon={epsilon!r} cannot be split over {k} releases: eps'={eps_prime!r}")
    return eps_prime


def cdp_per_release(epsilon: float, iterations: int) -> float:
    """eps' = sqrt(2 eps / k) for the k = 2J releases under an eps-zCDP budget.

    Computed as sqrt(eps / J), the same float, so that 2 eps cannot overflow.
    """
    k = _check_split_args(epsilon, iterations)
    return _checked_split(math.sqrt(epsilon / iterations), epsilon, k)


def conventional_per_release(epsilon: float, iterations: int) -> float:
    """Basic composition: eps' = eps / k for the k = 2J releases."""
    k = _check_split_args(epsilon, iterations)
    return _checked_split(epsilon / k, epsilon, k)


def _advanced_cost(eps_prime: float, k: int, failure_prob: float) -> float:
    # Total (eps, failure_prob)-DP cost of k eps'-DP releases under strong
    # composition.  Guard the exponential: beyond ~700 it overflows float64.
    if eps_prime > 700.0:
        return math.inf
    return (
        math.sqrt(2.0 * k * math.log(1.0 / failure_prob)) * eps_prime
        + k * eps_prime * math.expm1(eps_prime)
    )


def advanced_per_release(epsilon: float, failure_prob: float, iterations: int) -> float:
    """Largest eps' whose k-fold strong composition stays within (eps, failure_prob).

    Solves sqrt(2 k ln(1/failure_prob)) eps' + k eps' (e^eps' - 1) = eps
    for k = 2J by bisection until the bracket holds two adjacent floats,
    so the result is the largest float whose cost stays <= eps at every
    scale of eps; the cost is strictly increasing in eps', so the root is
    unique.
    """
    k = _check_split_args(epsilon, iterations)
    _check_probability("failure_prob", failure_prob)
    lo, hi = 0.0, 1.0
    while _advanced_cost(hi, k, failure_prob) <= epsilon:
        lo = hi
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _advanced_cost(mid, k, failure_prob) <= epsilon:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ValueError(
            f"epsilon={epsilon!r} is too small for {k} releases under strong composition: "
            "no positive float eps' fits"
        )
    return lo


def plan_for_budget(budget: PrivacyBudget, iterations: int) -> NoisePlan:
    """Resolve a total budget into the per-release plan for one run.

    For the CDP regime the plan also records the zCDP receipt ``rho`` of
    the actual releases, which equals the budget up to rounding.
    """
    rho = None
    if budget.regime is Regime.CDP:
        eps_prime = cdp_per_release(budget.epsilon, iterations)
        # k eps'^2 / 2 with k = 2J, without the doubling that overflows.
        rho = iterations * eps_prime**2
    elif budget.regime is Regime.CONVENTIONAL:
        eps_prime = conventional_per_release(budget.epsilon, iterations)
    else:
        eps_prime = advanced_per_release(budget.epsilon, budget.failure_prob, iterations)
    return NoisePlan(eps_prime=eps_prime, rho=rho)
