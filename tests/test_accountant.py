"""Budget splits under the three regimes, and the zCDP receipt.

Expected values were frozen from an independent evaluation: closed forms
for the CDP and basic rules, scipy.optimize.brentq (xtol 1e-15) on the
strong-composition cost for the advanced rule.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpirls.accountant import PrivacyBudget, Regime, plan_for_budget


def cdp_split(epsilon, iterations):
    return plan_for_budget(PrivacyBudget(epsilon), iterations).eps_prime


def conventional_split(epsilon, iterations):
    return plan_for_budget(PrivacyBudget(epsilon, regime=Regime.CONVENTIONAL), iterations).eps_prime


def advanced_split(epsilon, failure_prob, iterations):
    return plan_for_budget(PrivacyBudget(epsilon, failure_prob, Regime.ADVANCED), iterations).eps_prime


# --- per-release splits --------------------------------------------------

def test_cdp_rule_frozen_values():
    # sqrt(2 eps / k) with k = 2 J
    assert cdp_split(0.9, 1) == pytest.approx(0.9486832980505138, rel=1e-15, abs=0)
    assert cdp_split(0.9, 9) == pytest.approx(0.31622776601683794, rel=1e-15, abs=0)
    assert cdp_split(0.9, 10) == pytest.approx(0.3, rel=1e-15, abs=0)
    assert cdp_split(1.0, 1) == pytest.approx(1.0, rel=1e-15, abs=0)


def test_conventional_rule_frozen_values():
    assert conventional_split(0.9, 9) == pytest.approx(0.05, rel=1e-15, abs=0)
    assert conventional_split(0.9, 10) == pytest.approx(0.045, rel=1e-15, abs=0)


def test_conventional_rule_recomposes_to_epsilon():
    for eps in (0.1, 0.9, 3.7):
        for j in (1, 7, 50):
            eps_prime = conventional_split(eps, j)
            assert 2 * j * eps_prime == pytest.approx(eps, rel=1e-15, abs=0)


def test_conventional_rule_never_overspends():
    # k eps' <= eps exactly, as rationals, and eps' is the largest float
    # that satisfies it.  eps / k alone rounds up past the budget in 4,911
    # of these pairs, 2.0 over 100 releases among them (the float 0.02 lies
    # above 1/50), and in 868 of them k * (eps / k) > eps even in floats.
    for i in range(1, 2001):
        eps = i / 1000
        for j in (1, 3, 5, 7, 10, 20, 50):
            eps_prime = conventional_split(eps, j)
            k = 2 * j
            assert k * Fraction(eps_prime) <= Fraction(eps), (eps, j)
            assert k * Fraction(math.nextafter(eps_prime, math.inf)) > Fraction(eps), (eps, j)
    assert conventional_split(2.0, 50) == math.nextafter(0.02, 0.0)


def test_advanced_rule_frozen_values():
    assert advanced_split(0.9, 1e-6, 9) == pytest.approx(
        0.039097743489094526, abs=1e-9
    )
    assert advanced_split(0.1, 1e-6, 2) == pytest.approx(
        0.009477653912572557, abs=1e-9
    )
    assert advanced_split(0.9, 1e-6, 50) == pytest.approx(
        0.016593409179967045, abs=1e-9
    )


def test_advanced_rule_is_the_largest_feasible_eps():
    eps, df, j = 0.9, 1e-6, 9
    k = 2 * j
    x = advanced_split(eps, df, j)

    def cost(v):
        return math.sqrt(2 * k * math.log(1 / df)) * v + k * v * math.expm1(v)

    assert cost(x) <= eps
    assert cost(x + 1e-9) > eps


def test_advanced_rule_spends_tiny_budgets():
    # The split is the largest float whose cost fits, at every scale of eps;
    # bisecting to an absolute tolerance returned 0.0 below eps ~ 1e-11.
    df, j = 1e-5, 50
    k = 2 * j

    def cost(v):
        return math.sqrt(2 * k * math.log(1 / df)) * v + k * v * math.expm1(v)

    for eps in (1e-300, 1e-11, 1e-10, 0.9):
        x = advanced_split(eps, df, j)
        assert 0.0 < cost(x) <= eps < cost(math.nextafter(x, math.inf)), eps
    with pytest.raises(ValueError, match=r"^epsilon=5e-324 cannot be split over 100 releases: eps'=0\.0$"):
        advanced_split(5e-324, df, j)


def test_advanced_rule_handles_huge_budgets():
    # the e^x term keeps the root finite; frozen from the same brentq oracle
    assert advanced_split(1e12, 1e-6, 10) == pytest.approx(21.564251903126205, abs=1e-6)
    # Up to the largest float budget the split is the largest float whose
    # cost fits, also where it lies above 700.  The oracle reads e^x past
    # float64's range as an infinite cost.
    df = 1e-6

    def cost(v, k):
        try:
            growth = math.expm1(v)
        except OverflowError:
            return math.inf
        return math.sqrt(2 * k * math.log(1 / df)) * v + k * v * growth

    for eps in (0.9, 1e3, 1e300, 1.7e308, 1.79e308):
        for j in (1, 20):
            x = advanced_split(eps, df, j)
            assert cost(x, 2 * j) <= eps < cost(math.nextafter(x, math.inf), 2 * j), (eps, j)
    assert advanced_split(1.7e308, df, 1) == 702.4790740996625


def test_regime_ordering_depends_on_release_count():
    # strong composition beats the basic rule exactly when
    # sqrt(2 ln(1/failure_prob) / k) + expm1(eps / k) < 1 for k = 2J (at 1e-6
    # first at k = 28 for eps = 0.1, k = 30 for eps = 0.9): below the
    # crossover basic composition admits the larger per-release budget
    df = 1e-6
    for j, eps in [(2, 0.1), (2, 0.9), (10, 0.9), (10, 0.1)]:
        adv = advanced_split(eps, df, j)
        conv = conventional_split(eps, j)
        cdp = cdp_split(eps, j)
        assert adv < conv < cdp, (j, eps)
    for j, eps in [(50, 0.9), (50, 0.1), (20, 0.9)]:
        adv = advanced_split(eps, df, j)
        conv = conventional_split(eps, j)
        cdp = cdp_split(eps, j)
        assert conv < adv < cdp, (j, eps)


def test_rules_monotone_in_budget_and_iterations():
    for rule in (cdp_split, conventional_split, lambda e, j: advanced_split(e, 1e-6, j)):
        assert rule(0.9, 5) > rule(0.3, 5)
        assert rule(0.9, 5) > rule(0.9, 20)


def test_split_rules_at_the_float_ends():
    # The top: 2 eps overflowed above about 9e307, and so did the receipt's
    # k eps'^2.  sqrt(eps / J) is the old split wherever 2 eps was finite.
    for eps in (1.7e308, 1.7976931348623157e308):
        plan = plan_for_budget(PrivacyBudget(eps), 20)
        assert plan.eps_prime == math.sqrt(eps / 20)
        assert plan.rho == pytest.approx(eps, rel=1e-15, abs=0)
        # The basic split is the largest float with 40 eps' <= eps, one
        # float below eps / 40 where that quotient rounds up.
        conv = plan_for_budget(PrivacyBudget(eps, regime=Regime.CONVENTIONAL), 20).eps_prime
        assert 40 * Fraction(conv) <= Fraction(eps) < 40 * Fraction(math.nextafter(conv, math.inf))
    for eps, j in ((0.9, 7), (1e-300, 3), (8.9e307, 20)):
        assert cdp_split(eps, j) == math.sqrt(2.0 * eps / (2 * j))
    # The bottom: a split that rounds to 0.0 names the budget and the
    # release count, in every regime.
    for rule in (cdp_split, conventional_split, lambda e, j: advanced_split(e, 1e-6, j)):
        with pytest.raises(ValueError, match=r"^epsilon=5e-324 cannot be split over 20 releases"):
            rule(5e-324, 10)
    assert cdp_split(5e-324, 1) > 0.0


def test_rule_argument_validation():
    # The budget checks epsilon and failure_prob, the plan the iterations.
    for rule in (cdp_split, conventional_split, lambda e, j: advanced_split(e, 1e-6, j)):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            rule(0.0, 5)
        # A bool is not a budget, as it is not an iteration count.
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                rule(flag, 5)
        with pytest.raises(ValueError, match="iterations must be a positive integer"):
            rule(0.9, 0)
    for failure_prob in (0.0, 1.0):
        with pytest.raises(ValueError, match="failure_prob must lie in"):
            advanced_split(0.9, failure_prob, 5)
    # A long double within the bounds whose float lies outside them is
    # refused too, as every split computes from the float.
    with pytest.raises(ValueError, match="epsilon must be positive"):
        cdp_split(np.longdouble(2) ** -1100, 5)
    with pytest.raises(ValueError, match="failure_prob must lie in"):
        advanced_split(0.9, 1 - np.longdouble(2) ** -60, 5)


# --- zCDP receipt -------------------------------------------------------

def test_cdp_receipt_tracks_the_budget():
    # k releases of pure eps'-DP cost rho = k eps'^2 / 2 in zCDP, which the
    # split sets to eps; only rounding separates them (abs=0, or approx's
    # default abs=1e-12 would swamp rel=1e-15)
    for j in (1, 2, 10, 20, 50, 10000):
        plan = plan_for_budget(PrivacyBudget(0.9, regime=Regime.CDP), j)
        assert plan.rho == pytest.approx(0.9, rel=1e-15, abs=0)
        assert plan.rho == 2 * j * plan.eps_prime**2 / 2


@settings(derandomize=True, deadline=None)
@given(
    epsilon=st.floats(1e-12, 1e3),
    iterations=st.integers(1, 1000),
    failure_prob=st.floats(1e-12, 0.5),
)
def test_split_rules_spend_the_budget(epsilon, iterations, failure_prob):
    k = 2 * iterations
    plan = plan_for_budget(PrivacyBudget(epsilon, regime=Regime.CDP), iterations)
    assert plan.eps_prime == math.sqrt(epsilon / iterations)
    assert plan.rho == pytest.approx(epsilon, rel=1e-15, abs=0)

    assert k * conventional_split(epsilon, iterations) == pytest.approx(epsilon)

    def strong_cost(v):
        return math.sqrt(2 * k * math.log(1 / failure_prob)) * v + k * v * math.expm1(v)

    x = advanced_split(epsilon, failure_prob, iterations)
    assert strong_cost(x) <= epsilon
    assert strong_cost(x * (1 + 1e-9)) > epsilon


# --- budgets and plans ---------------------------------------------------

def test_budget_validation():
    PrivacyBudget(0.9, regime=Regime.CDP)
    PrivacyBudget(0.9, regime=Regime.CONVENTIONAL)
    PrivacyBudget(0.9, failure_prob=1e-6, regime=Regime.ADVANCED)
    with pytest.raises(ValueError, match="failure_prob"):
        PrivacyBudget(0.9, failure_prob=1e-6, regime=Regime.CDP)
    with pytest.raises(ValueError, match="failure_prob"):
        PrivacyBudget(0.9, failure_prob=1e-6, regime=Regime.CONVENTIONAL)
    with pytest.raises(ValueError, match="failure_prob"):
        PrivacyBudget(0.9, regime=Regime.ADVANCED)
    with pytest.raises(ValueError, match="epsilon"):
        PrivacyBudget(0.0)
    with pytest.raises(ValueError, match="regime"):
        PrivacyBudget(0.9, regime="cdp")  # type: ignore[arg-type]


def test_plan_fields_per_regime():
    # The advanced value is frozen from the brentq oracle.
    for regime, expected in (
        (Regime.CDP, math.sqrt(0.9 / 7)),
        (Regime.CONVENTIONAL, 0.9 / 14),
        (Regime.ADVANCED, 0.04432913943150414),
    ):
        budget = PrivacyBudget(
            0.9,
            failure_prob=1e-6 if regime is Regime.ADVANCED else 0.0,
            regime=regime,
        )
        plan = plan_for_budget(budget, 7)
        assert plan.eps_prime == pytest.approx(expected, rel=1e-12)
        assert (plan.rho is not None) == (regime is Regime.CDP)
        assert plan._fields == ("eps_prime", "rho")


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_for_budget(PrivacyBudget(0.9), 0)
