"""End-to-end acceptance checks, one per externally meaningful guarantee.

Each check states its own parameters, tolerance, and runtime budget, and
prints a PASS/FAIL summary line at the end of the run (see conftest.py).
Tolerances are pinned here and nowhere loosened.  Where a guarantee
changes direction across its parameter range, the check asserts the exact
side of the boundary for every cell rather than dropping cells: check 4
asserts strong composition beating basic composition past their exact
crossover and losing to it below, with the crossover computed in the test.
"""

import math
import time
import warnings

import numpy as np
import pytest

from dpirls import (
    Dataset,
    IRLSConfig,
    PrivacyBudget,
    Regime,
    gaussian_perturb,
    gaussian_std,
    laplace_perturb,
    laplace_scale,
    plan_for_budget,
    run_exact_irls,
    run_private_irls,
    wishart_perturb,
    wishart_variance,
)
from dpirls.experiment import ExperimentGrid, aggregate, emit_csv, run_grid
from dpirls.mechanisms import _stream, l1_sensitivity_A, l2_sensitivity_A
from dpirls.solver import compute_moments
from _oracles import grid_l1_minimizer, unscaled_synthetic


def _ball_points(gen, m, d, sharp_every=10):
    """Points with ||x||_2 <= 1, a slice of them at radius 1 - 1e-9.

    The near-boundary slice keeps the sampled maxima close to the
    sensitivity bounds without tripping them through last-ulp rounding.
    """
    dirs = gen.standard_normal((m, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = gen.uniform(0.0, 1.0, m) ** (1.0 / d)
    radii[::sharp_every] = 1.0 - 1e-9
    return dirs * radii[:, None]


@pytest.mark.acceptance(
    1, "moment-vector sensitivity: L1 and L2 bounds, zero violations over 1.2e5 neighbor pairs"
)
def test_acceptance_1_moment_sensitivity_bounds():
    """Replacing one datapoint never moves A by more than the claimed bounds.

    A = (1/N) X^T S y, so under replace-one all but the swapped row cancels
    and the difference is (s y x - s' y' x') / N.  Sampled pairs therefore
    cover the full neighbor space without building 1e5 explicit datasets;
    a smaller batch of whole-dataset moment differences checks the
    cancellation end to end.
    """
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    d, n, cap = 10, 1000, 3.0
    m = 120_000

    def contributions(count):
        x = _ball_points(gen, count, d)
        y = gen.uniform(-1.0, 1.0, count)
        s = gen.uniform(0.0, cap, count)
        s[::10] = cap * (1.0 - 1e-9)
        return (s * y)[:, None] * x / n

    diff = contributions(m) - contributions(m)
    # Engineered near-extremal pairs: antipodal equal-component points with
    # weight and response at the clamp, pushing both norms toward the bound.
    x_sharp = np.full(d, (1.0 - 1e-9) / math.sqrt(d))
    sharp = 2.0 * (cap * (1.0 - 1e-9)) * (1.0 - 1e-9) * x_sharp / n
    diff = np.vstack([diff, np.tile(sharp, (1000, 1))])

    bound_l1 = l1_sensitivity_A(d, n, cap)
    bound_l2 = l2_sensitivity_A(n, cap)
    norms_l1 = np.abs(diff).sum(axis=1)
    norms_l2 = np.linalg.norm(diff, axis=1)
    violations_l1 = int(np.count_nonzero(norms_l1 > bound_l1))
    violations_l2 = int(np.count_nonzero(norms_l2 > bound_l2))
    assert violations_l1 == 0, f"{violations_l1} pairs exceeded the L1 bound {bound_l1:.3e}"
    assert violations_l2 == 0, f"{violations_l2} pairs exceeded the L2 bound {bound_l2:.3e}"
    # The bounds must also be tight enough to mean something: the sampled
    # maxima have to come within 0.1% of them.
    assert norms_l1.max() >= 0.999 * bound_l1
    assert norms_l2.max() >= 0.999 * bound_l2

    # End-to-end: full-dataset moment differences after a single row swap.
    d0, n0 = 4, 50
    X = _ball_points(gen, n0, d0)
    y = gen.uniform(-1.0, 1.0, n0)
    w = gen.uniform(0.0, cap, n0)
    base = compute_moments(Dataset(X, y), w)
    b1, b2 = l1_sensitivity_A(d0, n0, cap), l2_sensitivity_A(n0, cap)
    for trial in range(200):
        k = int(gen.integers(n0))
        X2, y2, w2 = X.copy(), y.copy(), w.copy()
        X2[k] = _ball_points(gen, 1, d0)[0]
        y2[k] = gen.uniform(-1.0, 1.0)
        w2[k] = gen.uniform(0.0, cap)
        swapped = compute_moments(Dataset(X2, y2), w2)
        delta = swapped.A - base.A
        assert np.abs(delta).sum() <= b1
        assert np.linalg.norm(delta) <= b2

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sensitivity check took {elapsed:.1f}s, budget is 30s"


@pytest.mark.acceptance(
    2, "wishart release: privacy ratio exp(eps'N/cap tr(B-B')) <= e^eps' over 2.1e4 pairs"
)
def test_acceptance_2_wishart_privacy_ratio_bound():
    """The density-ratio certificate of the PSD release holds with zero slack abuse.

    B = (1/N) X^T S X, so a row swap changes the trace by
    (s ||x||^2 - s' ||x'||^2) / N <= cap / N, and the released ratio
    exp((eps' N / cap) tr(B - B')) stays below e^eps'.  Boundary pairs sit
    exactly at ||x|| = 1, s = cap; the 1e-12 multiplicative slack absorbs
    their last-ulp rounding.
    """
    t0 = time.perf_counter()
    gen = np.random.default_rng(202)
    d, n, cap, eps_prime = 6, 500, 4.0, 0.7
    m = 20_000

    def trace_terms(count):
        r = gen.uniform(0.0, 1.0, count)
        s = gen.uniform(0.0, cap, count)
        return s * r**2 / n

    tr_diff = trace_terms(m) - trace_terms(m)
    # Extremal pairs: swapped-out point at the clamp and the unit sphere,
    # swapped-in point with weight zero, so the trace moves by exactly cap/n.
    tr_diff = np.concatenate([tr_diff, np.full(1000, cap / n)])
    ratios = np.exp(eps_prime * n / cap * tr_diff)
    limit = math.exp(eps_prime) * (1.0 + 1e-12)
    violations = int(np.count_nonzero(ratios > limit))
    assert violations == 0, f"{violations} pairs exceeded e^eps' = {math.exp(eps_prime):.6f}"
    assert ratios.max() >= math.exp(eps_prime) * (1.0 - 1e-9), "no sampled pair reached the bound"

    # Full-matrix spot check through compute_moments.
    d0, n0 = 4, 60
    X = _ball_points(gen, n0, d0)
    y = gen.uniform(-1.0, 1.0, n0)
    w = gen.uniform(0.0, cap, n0)
    B = compute_moments(Dataset(X, y), w).B
    for trial in range(1000):
        k = int(gen.integers(n0))
        X2, w2 = X.copy(), w.copy()
        X2[k] = _ball_points(gen, 1, d0)[0]
        w2[k] = gen.uniform(0.0, cap)
        B2 = compute_moments(Dataset(X2, y), w2).B
        ratio = math.exp(eps_prime * n0 / cap * float(np.trace(B - B2)))
        assert ratio <= math.exp(eps_prime) * (1.0 + 1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"ratio check took {elapsed:.1f}s, budget is 10s"


@pytest.mark.acceptance(
    3, "noise calibration: laplace std within 3%, gaussian std within 3%, wishart mean within 5%"
)
def test_acceptance_3_noise_calibration():
    """Drawn noise matches its calibrated distribution, not just its formula."""
    t0 = time.perf_counter()
    n, cap, eps_prime, failure_prob = 1000, 1.0, 0.3, 1e-6
    m = 1_000_000

    zeros = np.zeros(m)
    lap = laplace_perturb(zeros, eps_prime, cap, n, _stream(31, 0))
    lap_target = laplace_scale(m, n, eps_prime, cap) * math.sqrt(2.0)
    assert abs(lap.std() - lap_target) <= 0.03 * lap_target

    gau = gaussian_perturb(zeros, eps_prime, failure_prob, cap, n, _stream(32, 0))
    gau_target = gaussian_std(n, eps_prime, failure_prob, cap)
    assert abs(gau.std() - gau_target) <= 0.03 * gau_target

    d, draws = 4, 100_000
    variance, dof = wishart_variance(n, eps_prime, cap), d + 1
    gen = _stream(33, 0)
    zero_B = np.zeros((d, d))
    total = np.zeros((d, d))
    for _ in range(draws):
        total += wishart_perturb(zero_B, eps_prime, cap, n, gen)
    mean = total / draws
    target = dof * variance * np.eye(d)
    # Off-diagonal targets are zero, so "entrywise within 5%" is read
    # against the diagonal scale (d+1) v.
    tol = 0.05 * dof * variance
    assert np.max(np.abs(mean - target)) <= tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"calibration check took {elapsed:.1f}s, budget is 60s"


@pytest.mark.acceptance(
    4,
    "per-release budgets: concentrated split exact, strong-composition residual <= 1e-9,"
    " basic < strong < concentrated past the exact strong/basic crossover,"
    " strong < basic < concentrated below it",
)
def test_acceptance_4_per_release_budget_accounting():
    """Budget splits are exact and the three regimes order as advertised.

    The concentrated split beats both others in every cell.  Which of
    basic and strong composition wins is fixed by their exact crossover:
    the strong-composition cost sqrt(2k ln(1/failure_prob)) eps' +
    k eps' expm1(eps') is strictly increasing in eps', so strong composition
    admits a larger eps' than the basic split eps/k exactly when its cost at
    eps/k stays below eps, i.e. when

        sqrt(2 ln(1/failure_prob) / k) + expm1(eps / k) < 1,   k = 2J.

    The test evaluates that predicate itself, independently of the
    accountant's solver, and asserts conventional < advanced < concentrated
    where it holds (the J=50 column) and advanced < conventional <
    concentrated where it does not (J in {2, 10}).  k > 2 ln(1/failure_prob)
    is necessary for strong composition to win but not sufficient.
    """
    failure_prob = 1e-6
    ordering_failures = []
    for epsilon in (0.1, 0.9, 1.0):
        for iters in (2, 10, 50):
            cdp = plan_for_budget(PrivacyBudget(epsilon), iters).eps_prime
            assert cdp == math.sqrt(epsilon / iters), "concentrated split must be exact"

            adv = plan_for_budget(PrivacyBudget(epsilon, failure_prob, Regime.ADVANCED), iters).eps_prime
            k = 2 * iters
            residual = abs(
                math.sqrt(2.0 * k * math.log(1.0 / failure_prob)) * adv
                + k * adv * math.expm1(adv)
                - epsilon
            )
            assert residual <= 1e-9, f"strong-composition equation residual {residual:.3e}"

            conv = plan_for_budget(PrivacyBudget(epsilon, regime=Regime.CONVENTIONAL), iters).eps_prime
            predicate = math.sqrt(2.0 * math.log(1.0 / failure_prob) / k) + math.expm1(epsilon / k)
            budgets = {"conventional": conv, "advanced": adv, "concentrated": cdp}
            if predicate < 1.0:
                order = ("conventional", "advanced", "concentrated")
            else:
                order = ("advanced", "conventional", "concentrated")
            broken = [
                f"{lo} < {hi}"
                for lo, hi in zip(order, order[1:])
                if not budgets[lo] < budgets[hi]
            ]
            if broken:
                ordering_failures.append(
                    f"epsilon={epsilon} J={iters} k={k}: predicate={predicate:.6f}"
                    f" expects {' < '.join(order)}, broke {', '.join(broken)}"
                    f" (conv={conv:.6f} adv={adv:.6f} cdp={cdp:.6f})"
                )
    assert not ordering_failures, (
        "per-release regime ordering failed at:\n  "
        + "\n  ".join(ordering_failures)
        + "\nStrong composition admits the larger per-release budget exactly when"
        " predicate = sqrt(2 ln(1/failure_prob) / k) + expm1(epsilon / k) < 1;"
        " basic composition does otherwise, and the concentrated split beats both."
    )


def _scalar_problem(seed):
    gen = np.random.default_rng(400 + seed)
    count = 40
    x = gen.uniform(-1.0, 1.0, count)
    # Flat spots at x ~ 0 would leave the minimizer underdetermined.
    x = np.where(np.abs(x) < 1e-3, np.copysign(1e-3, x + (x == 0.0)), x)
    slope = gen.uniform(-2.0, 2.0)
    y = slope * x + gen.laplace(0.0, 0.1, count)
    return x, y


def _secant_margin(x, y, t_star):
    """Least steepness of the L1 objective from its minimizer to any other kink.

    The scalar objective is piecewise linear with kinks at y_i / x_i.  When
    two kinks nearly tie, the valley between them is almost flat: no bounded
    number of reweighting steps can then locate the minimizer to 1e-4, and
    the clamp's fixed point drifts by the same order.  A uniform secant
    slope keeps the sampled problems identifiable at the tolerance scale.
    """
    obj_star = float(np.abs(y - t_star * x).mean())
    slopes = [
        (float(np.abs(y - t * x).mean()) - obj_star) / abs(t - t_star)
        for t in y / x
        if abs(t - t_star) > 1e-4
    ]
    return min(slopes)


@pytest.mark.acceptance(
    5, "exact solver: matches brute-force scalar L1 minimizer (1e-4, 50 problems), recovers noiseless parameters (1e-6)"
)
def test_acceptance_5_exact_solver_oracle_equivalence():
    loose = IRLSConfig(iterations=100, weight_cap=1e6)
    checked, seed = 0, 0
    while checked < 50:
        assert seed < 400, "problem generator stopped yielding well-posed instances"
        x, y = _scalar_problem(seed)
        seed += 1
        oracle = grid_l1_minimizer(x, y)
        if _secant_margin(x, y, oracle) < 0.01:
            continue
        checked += 1
        theta, _ = run_exact_irls(Dataset(x[:, None], y), loose)
        assert abs(theta[0] - oracle) <= 1e-4, (
            f"seed {seed - 1}: solver {theta[0]:.8f} vs grid search {oracle:.8f}"
        )

    # Realizable noiseless case: 1111 points leave a 1000-row training
    # split after the 10% holdout.
    for seed in (0, 1, 2):
        X, y, true_theta = unscaled_synthetic(n=1111, d=10, noise_var=1e-30, seed=seed)
        m = 1111 - round(0.1 * 1111)
        train = Dataset(X[:m], y[:m])
        assert train.n == 1000
        theta, _ = run_exact_irls(train, loose)
        err = float(np.linalg.norm(theta - true_theta))
        assert err <= 1e-6, f"seed {seed}: parameter recovery error {err:.3e}"


@pytest.mark.acceptance(
    6, "vanishing-noise limit: private solver within 1e-6 of exact at epsilon = 1e12"
)
def test_acceptance_6_vanishing_noise_limit():
    """With an enormous budget the private run collapses onto the exact one.

    Checked for both moment-vector mechanisms under the concentrated and
    basic splits (d=5, N=1000, J=5).  The strong-composition split is
    excluded on principle: its per-release budget solves
    sqrt(2k ln(1/failure_prob)) x + k x (e^x - 1) = epsilon, so x grows
    only logarithmically in epsilon and its noise never vanishes; at
    epsilon = 1e12 the Laplace scale is still ~1e-4, orders of magnitude
    above this tolerance.  Rows sit at radius 0.5..1 so the second moment
    stays well conditioned and the comparison reflects noise, not solver
    instability.
    """
    d, count, cap = 5, 1000, 5.0
    config = IRLSConfig(iterations=5, weight_cap=cap)
    for seed in (0, 1, 2):
        gen = np.random.default_rng(seed)
        dirs = gen.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = dirs * gen.uniform(0.5, 1.0, count)[:, None]
        slope = gen.standard_normal(d)
        y = X @ slope + 0.05 * gen.standard_normal(count)
        y /= np.abs(y).max()
        ds = Dataset(X, y)
        theta_exact, _ = run_exact_irls(ds, config)
        for regime in (Regime.CDP, Regime.CONVENTIONAL):
            for mechanism in ("laplace", "gaussian"):
                with warnings.catch_warnings():
                    # The huge per-release budget trips the eps' >= 1
                    # calibration notice by design.
                    warnings.simplefilter("ignore", UserWarning)
                    theta_private, _, _ = run_private_irls(
                        ds,
                        config,
                        PrivacyBudget(1e12, regime=regime),
                        mechanism,
                        rng=_stream(seed, 7),
                    )
                diff = float(np.linalg.norm(theta_private - theta_exact))
                assert diff <= 1e-6, (
                    f"seed {seed}, {regime.value}/{mechanism}: |theta| gap {diff:.3e}"
                )


@pytest.mark.acceptance(
    7, "utility comparison: concentrated curves beat strong/basic splits for N >= 2000 and close >= 80% of the non-private gap by N = 1e4"
)
def test_acceptance_7_utility_comparison():
    """The headline comparison chart, reproduced end to end.

    Full grid: d=10, epsilon=0.9, N in {500..10000}, 20 seeds per cell,
    J=20, weight cap 5, failure_prob 1e-5 (the 1/N_max convention).  J=20
    keeps the release count past the strong-composition crossover so the
    middle curve can beat the basic split at all (see check 4).  "Closes
    the gap" means: the distance from a concentrated curve to the
    non-private mean at N=10^4 is at most 20% of the distance at N=500,
    i.e. more data recovered at least 80% of what privacy noise cost.
    """
    t0 = time.perf_counter()
    grid = ExperimentGrid(
        n_values=(500, 1000, 2000, 5000, 10000),
        d=10,
        epsilon=0.9,
        iterations=20,
        weight_cap=5.0,
        delta_f=1e-5,
        n_seeds=20,
        base_seed=0,
    )
    rows = run_grid(grid)
    bad_cells = [r for r in rows if r.status != "ok"]
    assert not bad_cells, f"{len(bad_cells)} grid cells failed, first: {bad_cells[0]}"
    mean = {(s.mechanism, s.n): s.mean_loglik for s in aggregate(rows)}

    ordering_failures = []
    for n in (2000, 5000, 10000):
        adv = mean[("dp-advanced", n)]
        conv = mean[("dp-conventional", n)]
        for label in ("cdp-lap", "cdp-gau"):
            if not mean[(label, n)] > adv:
                ordering_failures.append(f"{label} <= dp-advanced at N={n}")
        if not adv > conv:
            ordering_failures.append(f"dp-advanced <= dp-conventional at N={n}")
    assert not ordering_failures, "mean log-likelihood ordering broken: " + "; ".join(
        ordering_failures
    )

    np_hi, np_lo = mean[("non-private", 10000)], mean[("non-private", 500)]
    for label in ("cdp-lap", "cdp-gau"):
        remaining = (np_hi - mean[(label, 10000)]) / (np_lo - mean[(label, 500)])
        assert remaining <= 0.20, (
            f"{label} still {remaining:.1%} of its initial non-private gap at N=10^4"
        )

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"comparison grid took {elapsed:.1f}s, budget is 300s"


def _mask_timing(csv_bytes: bytes) -> bytes:
    """Blank the wall-time column, the one legitimately non-reproducible field."""
    lines = csv_bytes.split(b"\r\n")
    out = [lines[0]]
    for line in lines[1:]:
        if not line:
            out.append(line)
            continue
        fields = line.split(b",")
        fields[5] = b"-"
        out.append(b",".join(fields))
    return b"\r\n".join(out)


@pytest.mark.acceptance(
    8, "determinism: identical seeds reproduce byte-identical CSVs (timing column masked)"
)
def test_acceptance_8_byte_identical_reruns(tmp_path):
    def run_once(tag):
        grid = ExperimentGrid(
            n_values=(500, 1000),
            d=4,
            epsilon=0.9,
            iterations=5,
            mechanisms=("non-private", "cdp-lap", "dp-conventional"),
            n_seeds=3,
            base_seed=11,
        )
        rows = run_grid(grid)
        results = tmp_path / f"results_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.csv"
        emit_csv(rows, results)
        emit_csv(aggregate(rows), summary)
        return results.read_bytes(), summary.read_bytes()

    results_a, summary_a = run_once("a")
    results_b, summary_b = run_once("b")
    assert _mask_timing(results_a) == _mask_timing(results_b)
    assert summary_a == summary_b
