"""Budget-splitting rules and the zCDP receipt.

Expected values were frozen from an independent evaluation: closed forms
for the CDP and basic rules, scipy.optimize.brentq (xtol 1e-15) on the
strong-composition cost for the advanced rule.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dpirls.accountant import (
    PrivacyBudget,
    Regime,
    advanced_per_release,
    cdp_per_release,
    conventional_per_release,
    plan_for_budget,
)


# --- per-release rules ---------------------------------------------------

def test_cdp_rule_frozen_values():
    # sqrt(2 eps / k) with k = 2 J
    assert cdp_per_release(0.9, 1) == pytest.approx(0.9486832980505138, rel=1e-15, abs=0)
    assert cdp_per_release(0.9, 9) == pytest.approx(0.31622776601683794, rel=1e-15, abs=0)
    assert cdp_per_release(0.9, 10) == pytest.approx(0.3, rel=1e-15, abs=0)
    assert cdp_per_release(1.0, 1) == pytest.approx(1.0, rel=1e-15, abs=0)


def test_conventional_rule_frozen_values():
    assert conventional_per_release(0.9, 9) == pytest.approx(0.05, rel=1e-15, abs=0)
    assert conventional_per_release(0.9, 10) == pytest.approx(0.045, rel=1e-15, abs=0)


def test_conventional_rule_recomposes_to_epsilon():
    for eps in (0.1, 0.9, 3.7):
        for j in (1, 7, 50):
            eps_prime = conventional_per_release(eps, j)
            assert 2 * j * eps_prime == pytest.approx(eps, rel=1e-15, abs=0)


def test_advanced_rule_frozen_values():
    assert advanced_per_release(0.9, 1e-6, 9) == pytest.approx(
        0.039097743489094526, abs=1e-9
    )
    assert advanced_per_release(0.1, 1e-6, 2) == pytest.approx(
        0.009477653912572557, abs=1e-9
    )
    assert advanced_per_release(0.9, 1e-6, 50) == pytest.approx(
        0.016593409179967045, abs=1e-9
    )


def test_advanced_rule_is_the_largest_feasible_eps():
    eps, df, j = 0.9, 1e-6, 9
    k = 2 * j
    x = advanced_per_release(eps, df, j)

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
        x = advanced_per_release(eps, df, j)
        assert 0.0 < cost(x) <= eps < cost(math.nextafter(x, math.inf)), eps
        assert plan_for_budget(PrivacyBudget(eps, df, Regime.ADVANCED), j).eps_prime == x
    with pytest.raises(ValueError, match="too small"):
        advanced_per_release(5e-324, df, j)


def test_advanced_rule_handles_huge_budgets():
    # the e^x term keeps the root finite; frozen from the same brentq oracle
    assert advanced_per_release(1e12, 1e-6, 10) == pytest.approx(21.564251903126205, abs=1e-6)


def test_regime_ordering_depends_on_release_count():
    # strong composition beats the basic rule exactly when
    # sqrt(2 ln(1/failure_prob) / k) + expm1(eps / k) < 1 for k = 2J (at 1e-6
    # first at k = 28 for eps = 0.1, k = 30 for eps = 0.9): below the
    # crossover basic composition admits the larger per-release budget
    df = 1e-6
    for j, eps in [(2, 0.1), (2, 0.9), (10, 0.9), (10, 0.1)]:
        adv = advanced_per_release(eps, df, j)
        conv = conventional_per_release(eps, j)
        cdp = cdp_per_release(eps, j)
        assert adv < conv < cdp, (j, eps)
    for j, eps in [(50, 0.9), (50, 0.1), (20, 0.9)]:
        adv = advanced_per_release(eps, df, j)
        conv = conventional_per_release(eps, j)
        cdp = cdp_per_release(eps, j)
        assert conv < adv < cdp, (j, eps)


def test_rules_monotone_in_budget_and_iterations():
    for rule in (
        lambda e, j: cdp_per_release(e, j),
        lambda e, j: conventional_per_release(e, j),
        lambda e, j: advanced_per_release(e, 1e-6, j),
    ):
        assert rule(0.9, 5) > rule(0.3, 5)
        assert rule(0.9, 5) > rule(0.9, 20)


def test_split_rules_at_the_float_ends():
    # The top: 2 eps overflowed above about 9e307, and so did the receipt's
    # k eps'^2.  sqrt(eps / J) is the old split wherever 2 eps was finite.
    for eps in (1.7e308, 1.7976931348623157e308):
        plan = plan_for_budget(PrivacyBudget(eps), 20)
        assert plan.eps_prime == math.sqrt(eps / 20)
        assert plan.rho == pytest.approx(eps, rel=1e-15, abs=0)
        assert plan_for_budget(PrivacyBudget(eps, regime=Regime.CONVENTIONAL), 20).eps_prime == eps / 40
    for eps, j in ((0.9, 7), (1e-300, 3), (8.9e307, 20)):
        assert cdp_per_release(eps, j) == math.sqrt(2.0 * eps / (2 * j))
    # The bottom: a split that rounds to 0.0 names the budget and the
    # release count, not the per-release value it could not make.
    for rule in (cdp_per_release, conventional_per_release):
        with pytest.raises(ValueError, match=r"epsilon=5e-324 cannot be split over 20 releases"):
            rule(5e-324, 10)
    for regime in (Regime.CDP, Regime.CONVENTIONAL):
        with pytest.raises(ValueError, match=r"epsilon=5e-324"):
            plan_for_budget(PrivacyBudget(5e-324, regime=regime), 10)
    assert cdp_per_release(5e-324, 1) > 0.0


def test_rule_argument_validation():
    for rule in (cdp_per_release, conventional_per_release):
        with pytest.raises(ValueError):
            rule(0.0, 5)
        with pytest.raises(ValueError):
            rule(0.9, 0)
    with pytest.raises(ValueError):
        advanced_per_release(0.9, 0.0, 5)
    with pytest.raises(ValueError):
        advanced_per_release(0.9, 1.0, 5)


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

    assert k * conventional_per_release(epsilon, iterations) == pytest.approx(epsilon)

    def strong_cost(v):
        return math.sqrt(2 * k * math.log(1 / failure_prob)) * v + k * v * math.expm1(v)

    x = advanced_per_release(epsilon, failure_prob, iterations)
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
    for regime, expected in (
        (Regime.CDP, cdp_per_release(0.9, 7)),
        (Regime.CONVENTIONAL, conventional_per_release(0.9, 7)),
        (Regime.ADVANCED, advanced_per_release(0.9, 1e-6, 7)),
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
