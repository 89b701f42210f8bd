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
    Basic sequential composition: the largest float eps' with k eps' <= eps
    exactly, which is eps / k or, where that quotient rounds up, the float
    below it.
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

:class:`PrivacyBudget` stores its epsilon and failure_prob as the Python
floats its checks return, and :func:`plan_for_budget` reads iterations
as a Python int, so every split computes in float64 (and the basic
split's exact check in unbounded ints) whatever scalar type the caller
passed (numpy 2 would keep a float32's arithmetic
in float32, numpy 1 would not).
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
    of a Gaussian release, which is a mechanism parameter.  ``epsilon`` and
    an ADVANCED ``failure_prob`` are stored as Python floats.
    """

    epsilon: float
    failure_prob: float = 0.0
    regime: Regime = Regime.CDP

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _check_positive_finite("epsilon", self.epsilon))
        if not isinstance(self.regime, Regime):
            raise ValueError(f"regime must be a Regime, got {self.regime!r}")
        if self.regime is Regime.ADVANCED:
            failure_prob = _check_probability("failure_prob", self.failure_prob)
            object.__setattr__(self, "failure_prob", failure_prob)
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


def _advanced_cost(eps_prime: float, k: int, failure_prob: float) -> float:
    # Total (eps, failure_prob)-DP cost of k eps'-DP releases under strong
    # composition.  math.expm1 raises OverflowError past about 709.78 where
    # a float product would read inf; the cost is inf there as well.
    try:
        growth = math.expm1(eps_prime)
    except OverflowError:
        return math.inf
    return math.sqrt(2.0 * k * math.log(1.0 / failure_prob)) * eps_prime + k * eps_prime * growth


def _advanced_split(epsilon: float, failure_prob: float, k: int) -> float:
    # Bisect until the bracket holds two adjacent floats; 0.0 if none fits.
    lo, hi = 0.0, 1.0
    while _advanced_cost(hi, k, failure_prob) <= epsilon:
        lo = hi
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if _advanced_cost(mid, k, failure_prob) <= epsilon:
            lo = mid
        else:
            hi = mid


def plan_for_budget(budget: PrivacyBudget, iterations: int) -> NoisePlan:
    """Resolve a total budget into the per-release eps' of a run's k = 2J releases.

    CDP
        eps' = sqrt(2 eps / k), computed as sqrt(eps / J), the same float,
        so that 2 eps cannot overflow.  The plan also records the zCDP
        receipt ``rho = J eps'^2`` (k eps'^2 / 2 without the doubling) of
        the actual releases, which equals the budget up to rounding.
    CONVENTIONAL
        The largest float eps' with k eps' <= eps, compared exactly: eps / k,
        stepped one float down where the quotient rounds up (the float
        2.0 / 100 lies above 1/50, and 6 * (0.007 / 6) > 0.007 even in
        floats).
    ADVANCED
        The largest float eps' with sqrt(2 k ln(1/failure_prob)) eps' +
        k eps' (e^eps' - 1) <= eps, at every scale of eps: bisection runs
        down to adjacent floats, and the cost is strictly increasing in
        eps', so the root is unique.

    A split that rounds to 0.0 is refused whatever the regime.
    """
    iterations = _check_int("iterations", iterations)
    k = 2 * iterations
    epsilon = budget.epsilon
    rho = None
    if budget.regime is Regime.CDP:
        eps_prime = math.sqrt(epsilon / iterations)
        rho = iterations * eps_prime**2
    elif budget.regime is Regime.CONVENTIONAL:
        eps_prime = epsilon / k
        # k eps' > eps, decided exactly on the floats' integer ratios, means
        # the quotient rounded up; the float below it then lies below eps / k.
        a, b = eps_prime.as_integer_ratio()
        p, q = epsilon.as_integer_ratio()
        if k * a * q > p * b:
            eps_prime = math.nextafter(eps_prime, 0.0)
    else:
        eps_prime = _advanced_split(epsilon, budget.failure_prob, k)
    if eps_prime == 0.0:
        raise ValueError(f"epsilon={epsilon!r} cannot be split over {k} releases: eps'={eps_prime!r}")
    return NoisePlan(eps_prime=eps_prime, rho=rho)
