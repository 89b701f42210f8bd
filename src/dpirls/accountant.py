"""Privacy accounting: split a total budget into per-release budgets.

One solver run of J iterations makes 2J noisy releases (the cross moment
and the Gram moment once per iteration).  Three regimes translate a total
budget into the per-release eps' handed to the mechanisms:

CDP
    Budget eps is read as (eps, sqrt(2 eps)) zero-concentrated DP.  A
    pure eps'-DP release costs (eps'^2 / 2, eps') there, so k releases
    fit when eps' = sqrt(2 eps / k).
CONVENTIONAL
    Basic sequential composition: eps' = eps / k.
ADVANCED
    Strong composition with slack failure_prob: the largest eps'
    satisfying sqrt(2 k ln(1/failure_prob)) eps' + k eps' (e^eps' - 1)
    <= eps, found by bisection.

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
from typing import Iterable

from .data import _check_int, _check_positive_finite, _check_probability

_BISECTION_TOL = 1e-12


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
            if not (0.0 < self.failure_prob < 1.0):
                raise ValueError(
                    "ADVANCED regime needs failure_prob in (0, 1), "
                    f"got {self.failure_prob!r}"
                )
        elif self.failure_prob != 0.0:
            raise ValueError(
                f"failure_prob must be 0 in regime {self.regime.value}, "
                f"got {self.failure_prob!r}"
            )


@dataclass(frozen=True)
class NoisePlan:
    """Resolved accounting for one run: what each release may spend."""

    eps_prime: float
    releases_per_iteration: int
    total_releases: int
    regime: Regime
    cdp_params: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _check_positive_finite("eps_prime", self.eps_prime)
        if self.releases_per_iteration < 1 or self.total_releases < 1:
            raise ValueError("release counts must be positive")
        if (self.cdp_params is not None) != (self.regime is Regime.CDP):
            raise ValueError("cdp_params is recorded exactly when regime is CDP")


def cdp_of_dp(eps_prime: float) -> tuple[float, float]:
    """Concentrated-DP parameters (mu, tau) of one pure eps'-DP release.

    mu = eps' (e^eps' - 1) / 2 and tau = eps'.  Beyond eps' ~ 709 the mean
    parameter exceeds the float64 range and saturates to inf.
    """
    _check_positive_finite("eps_prime", eps_prime)
    if eps_prime > 709.0:
        return math.inf, eps_prime
    return eps_prime * math.expm1(eps_prime) / 2.0, eps_prime


def compose_cdp(params: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Compose (mu_i, tau_i) pairs: means add, taus add in quadrature."""
    items = list(params)
    if not items:
        raise ValueError("compose_cdp needs at least one (mu, tau) pair")
    for mu, tau in items:
        # mu may saturate to inf (see cdp_of_dp); nan is still rejected
        if not (mu >= 0.0) or not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"invalid CDP parameters ({mu!r}, {tau!r})")
    mu_total = math.fsum(mu for mu, _ in items)
    tau_total = math.sqrt(math.fsum(tau * tau for _, tau in items))
    return mu_total, tau_total


def _check_split_args(epsilon: float, iterations: int, releases_per_iteration: int) -> int:
    _check_positive_finite("epsilon", epsilon)
    _check_int("iterations", iterations)
    _check_int("releases_per_iteration", releases_per_iteration)
    return iterations * releases_per_iteration


def cdp_per_release(epsilon: float, iterations: int, releases_per_iteration: int = 2) -> float:
    """eps' = sqrt(2 eps / k) for k total releases under a (eps, sqrt(2 eps)) CDP budget."""
    k = _check_split_args(epsilon, iterations, releases_per_iteration)
    return math.sqrt(2.0 * epsilon / k)


def conventional_per_release(
    epsilon: float, iterations: int, releases_per_iteration: int = 2
) -> float:
    """Basic composition: eps' = eps / k for k total releases."""
    k = _check_split_args(epsilon, iterations, releases_per_iteration)
    return epsilon / k


def _advanced_cost(eps_prime: float, k: int, failure_prob: float) -> float:
    # Total (eps, failure_prob)-DP cost of k eps'-DP releases under strong
    # composition.  Guard the exponential: beyond ~700 it overflows float64.
    if eps_prime > 700.0:
        return math.inf
    return (
        math.sqrt(2.0 * k * math.log(1.0 / failure_prob)) * eps_prime
        + k * eps_prime * math.expm1(eps_prime)
    )


def advanced_per_release(
    epsilon: float,
    failure_prob: float,
    iterations: int,
    releases_per_iteration: int = 2,
) -> float:
    """Largest eps' whose k-fold strong composition stays within (eps, failure_prob).

    Solves sqrt(2 k ln(1/failure_prob)) eps' + k eps' (e^eps' - 1) = eps
    by bisection to absolute tolerance 1e-12; the cost is strictly
    increasing in eps', so the root is unique.
    """
    k = _check_split_args(epsilon, iterations, releases_per_iteration)
    _check_probability("failure_prob", failure_prob)
    lo, hi = 0.0, 1.0
    while _advanced_cost(hi, k, failure_prob) <= epsilon:
        lo = hi
        hi *= 2.0
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _advanced_cost(mid, k, failure_prob) <= epsilon:
            lo = mid
        else:
            hi = mid
    return lo


def plan_for_budget(
    budget: PrivacyBudget, iterations: int, releases_per_iteration: int = 2
) -> NoisePlan:
    """Resolve a total budget into the per-release plan for one run.

    For the CDP regime the plan also records the composed concentrated-DP
    parameters of the actual releases via :func:`cdp_of_dp` and
    :func:`compose_cdp`, a conservative receipt slightly above the
    nominal (eps, sqrt(2 eps)) target.
    """
    k = _check_split_args(budget.epsilon, iterations, releases_per_iteration)
    if budget.regime is Regime.CDP:
        eps_prime = cdp_per_release(budget.epsilon, iterations, releases_per_iteration)
        cdp_params = compose_cdp([cdp_of_dp(eps_prime)] * k)
    elif budget.regime is Regime.CONVENTIONAL:
        eps_prime = conventional_per_release(budget.epsilon, iterations, releases_per_iteration)
        cdp_params = None
    else:
        eps_prime = advanced_per_release(
            budget.epsilon, budget.failure_prob, iterations, releases_per_iteration
        )
        cdp_params = None
    return NoisePlan(
        eps_prime=eps_prime,
        releases_per_iteration=releases_per_iteration,
        total_releases=k,
        regime=budget.regime,
        cdp_params=cdp_params,
    )
