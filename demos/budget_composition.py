"""How a fixed privacy budget splits across iterations under three accountants.

An iterative solver spends its budget twice per iteration (one release
for each moment).  The per-release budget eps' decides the noise scale,
so bigger is better.  Basic composition divides the budget evenly;
strong composition pays a sqrt-overhead for a failure probability but
degrades more slowly; the concentrated accountant tracks the actual
privacy-loss distribution and wins clearly at every iteration count.

Strong composition is NOT uniformly better than basic: it pulls ahead
exactly when sqrt(2 ln(1/failure_prob) / k) + expm1(eps / k) < 1 for the
release count k = 2J.  k > 2 ln(1/failure_prob) is necessary for that but
not sufficient.  The table prints the crossover rather than hiding it.
"""

import itertools
import math

from dpirls import PrivacyBudget, Regime, plan_for_budget


def per_release(epsilon, iters, regime, failure_prob=0.0):
    """The per-release budget eps' of a J-iteration run under one regime."""
    return plan_for_budget(PrivacyBudget(epsilon, failure_prob, regime), iters).eps_prime


def strong_beats_basic(epsilon, failure_prob, k):
    """True when strong composition admits a larger per-release budget than eps/k.

    The strong-composition cost is strictly increasing in eps', so it wins
    exactly when its cost at the basic split eps/k stays below eps.
    """
    return math.sqrt(2.0 * math.log(1.0 / failure_prob) / k) + math.expm1(epsilon / k) < 1.0


def main():
    epsilon, failure_prob = 0.9, 1e-5
    first_j = next(j for j in itertools.count(1) if strong_beats_basic(epsilon, failure_prob, 2 * j))
    necessary = 2.0 * math.log(1.0 / failure_prob)
    print(f"total budget epsilon = {epsilon}, failure probability = {failure_prob}")
    print(
        f"strong composition first beats basic at J = {first_j}, k = 2J = {2 * first_j} releases"
        f" (k > {necessary:.1f} is necessary, not sufficient)\n"
    )

    print(f"{'J':>4} {'k':>5}  {'basic':>10}  {'strong':>10}  {'concentrated':>13}   winner (basic vs strong)")
    for iters in (2, 5, 10, 12, 13, 20, 50, 100):
        k = 2 * iters
        conv = per_release(epsilon, iters, Regime.CONVENTIONAL)
        adv = per_release(epsilon, iters, Regime.ADVANCED, failure_prob)
        cdp = per_release(epsilon, iters, Regime.CDP)
        winner = "strong" if adv > conv else "basic"
        marker = "  <- past crossover" if iters >= first_j else ""
        print(f"{iters:>4} {k:>5}  {conv:>10.6f}  {adv:>10.6f}  {cdp:>13.6f}   {winner}{marker}")

    iters = 20
    ratio = per_release(epsilon, iters, Regime.CDP) / per_release(epsilon, iters, Regime.CONVENTIONAL)
    print(f"\nat J = {iters}, the concentrated accountant allows {ratio:.1f}x the per-release")
    print("budget of basic composition, i.e. noise scales shrink by the same factor.")


if __name__ == "__main__":
    main()
