"""Sensitivity bounds, noise calibration, and perturbation mechanics.

Expected constants were frozen from direct evaluation of the closed
forms; empirical checks use fixed seeds and wide statistical margins.
"""

import math
import warnings

import numpy as np
import pytest
from _oracles import audit_epsilon

import dpirls.mechanisms as mechanisms
from dpirls.accountant import PrivacyBudget, Regime, _advanced_cost, plan_for_budget
from dpirls.data import Dataset
from dpirls.mechanisms import (
    _stream,
    gaussian_perturb,
    gaussian_std,
    l1_sensitivity_A,
    l2_sensitivity_A,
    laplace_perturb,
    laplace_scale,
    wishart_perturb,
    wishart_variance,
)
from dpirls.solver import IRLSConfig, compute_moments, run_private_irls, solve_step


# --- sensitivities -------------------------------------------------------

def test_l1_sensitivity_values():
    # single row, cap 1: both contributions at magnitude 1 -> 2
    assert l1_sensitivity_A(1, 1, 1.0) == 2.0
    # 2 * cap * sqrt(d) / n, frozen from direct evaluation
    assert l1_sensitivity_A(10, 1000, 1.0) == pytest.approx(
        0.006324555320336759, rel=1e-15, abs=0
    )
    assert l1_sensitivity_A(10, 1000, 1.0) == pytest.approx(
        2.0 * math.sqrt(10.0) / 1000.0, rel=0, abs=0
    )


def test_l2_sensitivity_values():
    assert l2_sensitivity_A(1, 1.0) == 2.0
    assert l2_sensitivity_A(1000, 1.0) == pytest.approx(0.002, rel=1e-15, abs=0)
    assert l2_sensitivity_A(500, 3.0) == pytest.approx(2.0 * 3.0 / 500.0, rel=1e-15, abs=0)


def test_sensitivity_argument_validation():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            l1_sensitivity_A(bad, 10, 1.0)
    with pytest.raises(ValueError):
        l1_sensitivity_A(2, 0, 1.0)
    with pytest.raises(ValueError):
        l1_sensitivity_A(2, 10, 0.0)
    with pytest.raises(ValueError):
        l2_sensitivity_A(10, -2.0)
    with pytest.raises(ValueError):
        l2_sensitivity_A(10, math.inf)


def test_every_calibration_refuses_a_cap_whose_reciprocal_overflows():
    # 1/1e-310 is inf: the solver's clamp could not use such a cap, so no
    # release may be calibrated from it either.  The reciprocal is taken
    # of the cap's Python float, whatever its type, so np.float32(1e-39),
    # whose float64 reciprocal is finite, is accepted.
    for cap in (1e-310, np.float64(1e-310)):
        calls = [
            lambda: laplace_scale(1, 1, 1.0, cap),
            lambda: gaussian_std(1, 0.5, 1e-6, cap),
            lambda: wishart_variance(1, 1.0, cap),
            lambda: IRLSConfig(iterations=1, weight_cap=cap),
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"weight_cap must have a finite reciprocal, got {cap!r}"
    # The smallest caps with a finite reciprocal still calibrate.
    assert laplace_scale(1, 1, 1.0, 1e-300) == 2e-300
    tiny = np.float32(1e-39)
    assert laplace_scale(1, 1, 1.0, tiny) == 2.0 * float(tiny)
    assert wishart_variance(1, 1.0, tiny) == float(tiny) / 2.0
    assert IRLSConfig(iterations=1, weight_cap=tiny).weight_cap == float(tiny)


def _single_point_contrib(cap, rng, count, d, sharp_frac=0.2):
    """Sample (s * x, s * x * y) contributions of single rows, bounds respected.

    A fraction of samples sits at radius/weight 1 - 1e-9 of the boundary
    with coordinates of equal magnitude, where the L1 bound is tight.
    """
    dirs = rng.normal(size=(count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, size=count)
    y = rng.uniform(-1.0, 1.0, size=count)
    s = cap * rng.uniform(0.0, 1.0, size=count) ** 0.5
    sharp = rng.random(count) < sharp_frac
    near = 1.0 - 1e-9
    dirs[sharp] = rng.choice([-1.0, 1.0], size=(sharp.sum(), d)) / math.sqrt(d)
    radius[sharp] = near
    y[sharp] = rng.choice([-1.0, 1.0], size=sharp.sum())
    s[sharp] = cap * near
    x = dirs * radius[:, None]
    return x, y, s


def test_l1_bound_holds_over_sampled_neighbors():
    # replace-one: other rows cancel, so the moment difference is the
    # difference of two single-row contributions divided by n
    d, n, cap = 6, 400, 7.0
    rng = np.random.default_rng(2024)
    m = 20000
    x1, y1, s1 = _single_point_contrib(cap, rng, m, d)
    x2, y2, s2 = _single_point_contrib(cap, rng, m, d)
    diff = (s1 * y1)[:, None] * x1 - (s2 * y2)[:, None] * x2
    l1 = np.abs(diff).sum(axis=1) / n
    bound = l1_sensitivity_A(d, n, cap)
    assert (l1 <= bound).all()
    # the sharp corner samples get close to the bound, so it is not slack
    assert l1.max() > 0.95 * bound


def test_l2_bound_holds_over_sampled_neighbors():
    d, n, cap = 6, 400, 7.0
    rng = np.random.default_rng(77)
    m = 20000
    x1, y1, s1 = _single_point_contrib(cap, rng, m, d)
    x2, y2, s2 = _single_point_contrib(cap, rng, m, d)
    diff = (s1 * y1)[:, None] * x1 - (s2 * y2)[:, None] * x2
    l2 = np.linalg.norm(diff, axis=1) / n
    bound = l2_sensitivity_A(n, cap)
    assert (l2 <= bound).all()
    assert l2.max() > 0.95 * bound


# --- calibrated scales ---------------------------------------------------

def test_laplace_spec_scale():
    scale = laplace_scale(d=10, n=1000, eps_prime=0.3, weight_cap=1.0)
    assert scale == pytest.approx(0.021081851067789197, rel=1e-15, abs=0)


def test_gaussian_spec_std():
    std = gaussian_std(n=1000, eps_prime=0.3, failure_prob=1e-6, weight_cap=1.0)
    assert std == pytest.approx(0.03532535017900316, rel=1e-15, abs=0)
    multiplier = math.sqrt(2.0 * math.log(1.25e6))
    assert std == multiplier * l2_sensitivity_A(1000, 1.0) / 0.3


def test_wishart_spec():
    assert wishart_variance(n=100, eps_prime=0.5, weight_cap=2.0) == pytest.approx(
        0.02, rel=1e-15, abs=0
    )
    # The release adds Z Z^T for Z of shape (d, d + 1) with N(0, v) entries.
    Z = _stream(7, 0).normal(0.0, math.sqrt(0.02), size=(10, 11))
    out = wishart_perturb(np.zeros((10, 10)), 0.5, 2.0, 100, _stream(7, 0))
    assert np.array_equal(out, Z @ Z.T)


# A bool is refused too, not read as 1.0.
@pytest.mark.parametrize("eps", [0.0, -0.5, True, np.True_])
def test_specs_reject_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="^eps_prime must be positive and finite"):
        laplace_scale(d=2, n=10, eps_prime=eps, weight_cap=1.0)
    with pytest.raises(ValueError, match="^eps_prime must be positive and finite"):
        gaussian_std(n=10, eps_prime=eps, failure_prob=1e-6, weight_cap=1.0)
    with pytest.raises(ValueError, match="^eps_prime must be positive and finite"):
        wishart_variance(n=10, eps_prime=eps, weight_cap=1.0)


def test_calibration_errors_name_their_inputs():
    # Valid inputs whose quotient under- or overflows: the message must
    # say which eps', cap and n (and d) gave the unusable value.
    with pytest.raises(ValueError, match=r"scale .* got 0\.0 from eps_prime=1e\+100, "
                                         r"weight_cap=1e-300, n=8, d=3"):
        laplace_scale(d=3, n=8, eps_prime=1e100, weight_cap=1e-300)
    with pytest.raises(ValueError, match=r"std .* got inf from eps_prime=1e-300, "
                                         r"weight_cap=1e\+300, n=8"):
        gaussian_std(n=8, eps_prime=1e-300, failure_prob=1e-6, weight_cap=1e300)
    with pytest.raises(ValueError, match=r"variance .* got 0\.0 from eps_prime=1e\+100, "
                                         r"weight_cap=1e-300, n=8"):
        wishart_variance(n=8, eps_prime=1e100, weight_cap=1e-300)


def test_private_run_names_the_inputs_of_an_unusable_scale():
    split = Dataset(np.full((8, 3), 0.5), np.full(8, 0.25))
    with pytest.raises(ValueError, match=r"weight_cap=1e-300, n=8, d=3"):
        run_private_irls(split, IRLSConfig(2, 1e-300), PrivacyBudget(1e100), "laplace",
                         _stream(0, 0))


@pytest.mark.parametrize(
    "perturb, value, args",
    [
        (laplace_perturb, np.zeros(2), (1.0, 10)),
        (gaussian_perturb, np.zeros(2), (1e-6, 1.0, 10)),
        (wishart_perturb, np.eye(2), (1.0, 10)),
    ],
)
def test_perturb_rejects_infinite_eps_prime(perturb, value, args):
    with pytest.raises(ValueError, match="eps_prime"):
        perturb(value, math.inf, *args, _stream(0, 0))


def test_gaussian_rejects_bad_failure_prob():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            gaussian_std(n=10, eps_prime=0.5, failure_prob=bad, weight_cap=1.0)


def test_gaussian_warns_above_one():
    with pytest.warns(UserWarning, match="eps_prime"):
        gaussian_std(n=10, eps_prime=1.5, failure_prob=1e-6, weight_cap=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaussian_std(n=10, eps_prime=0.99, failure_prob=1e-6, weight_cap=1.0)


def test_scales_monotone_in_parameters():
    base = dict(d=5, n=1000, eps_prime=0.4, weight_cap=2.0)
    b0 = laplace_scale(**base)
    assert laplace_scale(**{**base, "n": 2000}) < b0
    assert laplace_scale(**{**base, "eps_prime": 0.8}) < b0
    assert laplace_scale(**{**base, "weight_cap": 4.0}) > b0
    base = dict(n=1000, eps_prime=0.4, weight_cap=2.0)
    v0 = wishart_variance(**base)
    assert wishart_variance(**{**base, "n": 2000}) < v0
    assert wishart_variance(**{**base, "eps_prime": 0.8}) < v0
    assert wishart_variance(**{**base, "weight_cap": 4.0}) > v0


# --- perturbation ops ----------------------------------------------------

def test_laplace_noise_vanishes_at_huge_eps():
    A = np.linspace(-0.5, 0.5, 4)
    out = laplace_perturb(A, eps_prime=1e12, weight_cap=1.0, n=100, rng=_stream(5, 0))
    assert np.max(np.abs(out - A)) < 1e-9


def test_laplace_empirical_moments():
    # one release of a size-m vector is m i.i.d. draws at the scale
    # calibrated for d = m
    m = 1000000
    b = laplace_scale(d=m, n=50, eps_prime=0.7, weight_cap=3.0)
    draws = laplace_perturb(np.zeros(m), 0.7, 3.0, 50, _stream(123, 0))
    # Laplace std is scale * sqrt(2); a million draws pin it to ~0.1%
    assert draws.std() == pytest.approx(b * math.sqrt(2.0), rel=0.03)
    assert abs(draws.mean()) < 4.0 * b * math.sqrt(2.0) / math.sqrt(m)


def test_gaussian_noise_vanishes_at_huge_eps():
    A = np.linspace(-0.5, 0.5, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        out = gaussian_perturb(A, 1e12, 1e-6, 1.0, 100, _stream(5, 0))
    assert np.max(np.abs(out - A)) < 1e-9


def test_gaussian_empirical_std():
    # Gaussian calibration is dimension-free, so a long release vector is
    # a large i.i.d. sample at the calibrated std
    m = 1000000
    std = gaussian_std(n=50, eps_prime=0.7, failure_prob=1e-5, weight_cap=3.0)
    draws = gaussian_perturb(np.zeros(m), 0.7, 1e-5, 3.0, 50, _stream(321, 0))
    assert draws.std() == pytest.approx(std, rel=0.03)
    assert abs(draws.mean()) < 4.0 * std / math.sqrt(m)


def test_perturb_determinism():
    A = np.array([0.1, -0.2, 0.3])
    B = np.eye(3) * 0.5
    for fn, args in (
        (laplace_perturb, (A, 0.5, 2.0, 100)),
        (gaussian_perturb, (A, 0.5, 1e-6, 2.0, 100)),
        (wishart_perturb, (B, 0.5, 2.0, 100)),
    ):
        one = fn(*args, _stream(9, 4))
        two = fn(*args, _stream(9, 4))
        other = fn(*args, _stream(9, 5))
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)


# --- calibration on every call -------------------------------------------

_RELEASES = [
    (laplace_perturb, np.zeros(2), {}),
    (gaussian_perturb, np.zeros(2), {"failure_prob": 1e-6}),
    (wishart_perturb, np.eye(2), {}),
]


@pytest.mark.parametrize("perturb, value, extra", _RELEASES)
def test_releases_check_their_calibration_on_every_call(perturb, value, extra):
    # After a valid call, each bad argument raises on every call, with the
    # error it raised the first time.
    good = dict(eps_prime=0.5, weight_cap=1.0, n=10, **extra)
    perturb(value, rng=_stream(0, 0), **good)
    bad = [
        ({"eps_prime": -0.5}, ValueError, "eps_prime must be positive"),
        ({"eps_prime": "0.5"}, TypeError, "not supported"),
        ({"weight_cap": 0.0}, ValueError, "weight_cap must be positive"),
        ({"n": 0}, ValueError, "n must be a positive integer"),
        ({"n": 10.0}, ValueError, "n must be a positive integer"),
        ({"eps_prime": 1e-300, "weight_cap": 1e300}, ValueError, "got inf from"),
    ]
    if extra:
        bad.append(({"failure_prob": 0.0}, ValueError, "failure_prob must lie"))
    for change, error, match in bad:
        for _ in range(3):
            with pytest.raises(error, match=match):
                perturb(value, rng=_stream(0, 0), **{**good, **change})


def test_gaussian_warning_fires_on_every_call():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            gaussian_perturb(np.zeros(2), 1.5, 1e-6, 1.0, 10, _stream(0, 0))
            gaussian_std(n=10, eps_prime=1.5, failure_prob=1e-6, weight_cap=1.0)
    assert [w.category for w in caught] == [UserWarning] * 6
    assert all("eps_prime=1.5 >= 1" in str(w.message) for w in caught)


def test_equal_caps_of_two_types_draw_at_one_scale():
    # np.float32(20) == 20.0, and each calibration reads the cap as that
    # Python float, so both releases draw the same noise.
    A = np.array([0.1, -0.2, 0.3])
    expected = A + _stream(1, 0).laplace(loc=0.0, scale=laplace_scale(3, 100, 0.5, 20.0), size=3)
    for cap in (np.float32(20.0), 20.0) * 2:
        assert laplace_perturb(A, 0.5, cap, 100, _stream(1, 0)).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    ("as_type", "as_int"),
    [(float, int), (np.float64, np.int64), (np.float32, np.int32), (np.array, np.int64)],
    ids=["float", "float64", "float32", "array"],
)
def test_every_calibration_and_split_reads_its_scalars_as_python_floats(as_type, as_int):
    # One value in four types: each calibration and each regime's split
    # must return the Python float it returns for the float value of its
    # inputs and the int value of its counts, so that no numpy promotion
    # rule picks the precision.  numpy 2 kept float32 arithmetic in
    # float32, where the Gaussian std of 882 of these caps fell below the
    # float64 one, and an np.int64 J overflowed the exact basic split.
    def same(result, expected):
        assert type(result) is float and result == expected, (result, expected)

    eps, fp = as_type(0.212), as_type(1e-5)
    eps_f, fp_f = float(eps), float(fp)
    n, d = as_int(450), as_int(10)
    for c in range(1, 2001):
        cap, cap_f = as_type(c), float(c)
        same(l1_sensitivity_A(d, n, cap), l1_sensitivity_A(10, 450, cap_f))
        same(l2_sensitivity_A(n, cap), l2_sensitivity_A(450, cap_f))
        same(laplace_scale(d, n, eps, cap), laplace_scale(10, 450, eps_f, cap_f))
        same(gaussian_std(n, eps, fp, cap), gaussian_std(450, eps_f, fp_f, cap_f))
        same(wishart_variance(n, eps, cap), wishart_variance(450, eps_f, cap_f))
    config = IRLSConfig(iterations=as_int(3), weight_cap=as_type(5.0))
    same(config.weight_cap, 5.0)
    assert type(config.iterations) is int and config.iterations == 3
    for total in (1e-5, 0.1, 0.9, 2.0):
        budget, budget_f = as_type(total), float(as_type(total))
        for j in (1, 10, 20, 50):
            for regime in (Regime.CDP, Regime.CONVENTIONAL):
                plan = plan_for_budget(PrivacyBudget(budget, regime=regime), as_int(j))
                expected = plan_for_budget(PrivacyBudget(budget_f, regime=regime), j)
                same(plan.eps_prime, expected.eps_prime)
                assert type(plan.rho) is type(expected.rho) and plan.rho == expected.rho
            for failure_prob in (as_type(1e-5), as_type(1e-6), as_type(1e-8)):
                prob_f = float(failure_prob)
                advanced = PrivacyBudget(budget, failure_prob, Regime.ADVANCED)
                same(advanced.epsilon, budget_f)
                same(advanced.failure_prob, prob_f)
                plan = plan_for_budget(advanced, as_int(j))
                expected = plan_for_budget(PrivacyBudget(budget_f, prob_f, Regime.ADVANCED), j)
                same(plan.eps_prime, expected.eps_prime)
                # The split's strong-composition cost at the failure_prob
                # the caller passed stays within the budget.
                assert _advanced_cost(plan.eps_prime, 2 * j, prob_f) <= budget_f


def test_zero_d_array_arguments_calibrate_and_raise_as_the_public_functions_do():
    # With a 0-d array argument the release gives what the public
    # calibration gives it, and raises what it raises, on every call.
    A, B = np.array([0.1, -0.2, 0.3]), np.eye(3) * 0.5
    eps = np.array(0.5)
    scale = laplace_scale(3, 100, eps, 2.0)
    expected = A + _stream(2, 0).laplace(loc=0.0, scale=scale, size=3)
    assert laplace_perturb(A, eps, 2.0, 100, _stream(2, 0)).tobytes() == expected.tobytes()
    std = gaussian_std(100, eps, 1e-6, np.array(2.0))
    expected = A + _stream(2, 0).normal(loc=0.0, scale=std, size=3)
    out = gaussian_perturb(A, eps, 1e-6, np.array(2.0), 100, _stream(2, 0))
    assert out.tobytes() == expected.tobytes()
    Z = _stream(2, 0).normal(loc=0.0, scale=math.sqrt(wishart_variance(100, eps, 2.0)), size=(3, 4))
    assert wishart_perturb(B, eps, 2.0, 100, _stream(2, 0)).tobytes() == (B + Z @ Z.T).tobytes()
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^eps_prime must be positive and finite, got array\(-0\.5\)$"):
            laplace_perturb(A, np.array(-0.5), 2.0, 100, _stream(2, 0))
        with pytest.raises(ValueError, match=r"^weight_cap must be positive and finite, got array\(0\.\)$"):
            wishart_perturb(B, 0.5, np.array(0.0), 100, _stream(2, 0))


def test_wishart_output_exactly_symmetric_and_psd_shift():
    rng = np.random.default_rng(8)
    for d in (6, 100):
        M = rng.normal(size=(d, d))
        B = M @ M.T / d
        B = (B + B.T) / 2.0
        out = wishart_perturb(B, 0.4, 2.0, 200, _stream(31, 0))
        assert np.array_equal(out, out.T), d
        # the additive part Z Z^T is PSD, so eigenvalues can only grow
        shift = out - B
        assert np.linalg.eigvalsh(shift).min() >= -1e-12, d


def test_wishart_rejects_asymmetric_input():
    B = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        wishart_perturb(B, 0.5, 1.0, 10, _stream(0, 0))
    # A NaN entry is refused before the symmetry check, whose NaN
    # asymmetry would name the wrong fault.
    B = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^B must be finite$"):
        wishart_perturb(B, 0.5, 1.0, 10, _stream(0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "perturb, name, value, args",
    [
        (laplace_perturb, "A", np.zeros(2), (0.5, 1.0, 10)),
        (gaussian_perturb, "A", np.zeros(2), (0.5, 1e-6, 1.0, 10)),
        (wishart_perturb, "B", np.eye(2), (0.5, 1.0, 10)),
    ],
)
def test_perturb_rejects_non_finite_moments(perturb, name, value, args, bad):
    # The first entry: a diagonal one for B, so B stays symmetric.
    value = value.copy()
    value.flat[0] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        perturb(value, *args, _stream(0, 0))


def test_wishart_release_falls_outside_a_neighbours_support_at_the_chi2_rate():
    # The release B + W, W = Z Z^T, lies above B in the PSD order.  A
    # neighbour that adds a capped unit row along u has B' = B + (cap/n) u u^T,
    # so a release with u^T W u < cap/n cannot come from it.  W's variance
    # is cap / (2 eps' n), so that happens with probability
    # P[chi2_{d+1} < 2 eps'], a lower bound on the release's delta.
    stats = pytest.importorskip("scipy.stats")
    eps, cap, n, m = 0.3, 2.0, 100, 20_000
    gen = np.random.default_rng(2024)
    below = sum(
        wishart_perturb(np.zeros((1, 1)), eps, cap, n, gen)[0, 0] < cap / n for _ in range(m)
    )
    p = stats.chi2.cdf(2 * eps, 2)
    assert p == pytest.approx(0.259, abs=5e-4)
    assert abs(below / m - p) < 5.0 * math.sqrt(p * (1.0 - p) / m)
    # The README grid: 20 Wishart releases per cdp-* run at d=10.  The
    # chance that one of them is impossible under the neighbour exceeds
    # the grid's delta_f.
    eps_prime = plan_for_budget(PrivacyBudget(0.9), 20).eps_prime
    assert 2 * eps_prime == pytest.approx(0.424, abs=5e-4)
    miss = 1.0 - (1.0 - stats.chi2.cdf(2 * eps_prime, 11)) ** 20
    assert miss == pytest.approx(1.15e-5, rel=1e-2)
    assert miss > 1e-5


def test_laplace_release_of_A_passes_an_epsilon_audit(monkeypatch):
    # A worst case for A's L1 sensitivity at d = 1: the pair differs in one
    # row, x = 1 with y = 1 against y = -1, at the cap's weight, so A moves
    # by exactly 2 cap sqrt(d) / n.  The event {z > t} then has probability
    # ratio e^eps' for t beyond both means, so a sound audit comes close to
    # eps' from below, and the same audit of a release at half the
    # calibrated scale (truly 2 eps') must exceed eps'.
    pytest.importorskip("scipy.stats")
    n, cap, eps, m = 50, 5.0, 1.0, 20_000
    X, w = np.ones((n, 1)), np.full(n, cap)
    y = np.zeros(n)
    y[0] = 1.0
    A = compute_moments(Dataset(X, y), w).A
    y[0] = -1.0
    A_neighbour = compute_moments(Dataset(X, y), w).A
    assert abs(A - A_neighbour)[0] == pytest.approx(l1_sensitivity_A(1, n, cap), rel=1e-15)

    def audit():
        draws = [
            [laplace_perturb(a, eps, cap, n, gen)[0] for _ in range(m)]
            for a, gen in ((A, _stream(31, 0)), (A_neighbour, _stream(31, 1)))
        ]
        return audit_epsilon(*draws)

    assert 0.8 * eps < audit() <= eps
    calibrated = mechanisms.laplace_scale
    monkeypatch.setattr(mechanisms, "laplace_scale", lambda *args: calibrated(*args) / 2)
    assert audit() > eps


def test_gaussian_release_of_A_passes_an_epsilon_audit(monkeypatch):
    # The Laplace audit's pair at d = 1 moves A by 2 cap / n, its L2
    # sensitivity.  The classic calibration is loose, so a sound audit
    # stays well below eps' at the release's failure probability, and the
    # same audit of a release at a quarter of the calibrated std (the
    # classic formula's std for 4 eps') must exceed eps'.
    pytest.importorskip("scipy.stats")
    n, cap, eps, failure_prob, m = 50, 5.0, 0.5, 1e-5, 20_000
    X, w = np.ones((n, 1)), np.full(n, cap)
    y = np.zeros(n)
    y[0] = 1.0
    A = compute_moments(Dataset(X, y), w).A
    y[0] = -1.0
    A_neighbour = compute_moments(Dataset(X, y), w).A
    assert abs(A - A_neighbour)[0] == pytest.approx(l2_sensitivity_A(n, cap), rel=1e-15)

    def audit():
        draws = [
            [gaussian_perturb(a, eps, failure_prob, cap, n, gen)[0] for _ in range(m)]
            for a, gen in ((A, _stream(31, 0)), (A_neighbour, _stream(31, 1)))
        ]
        return audit_epsilon(*draws, delta=failure_prob)

    assert audit() <= eps
    calibrated = mechanisms.gaussian_std
    monkeypatch.setattr(mechanisms, "gaussian_std", lambda *args: calibrated(*args) / 4)
    assert audit() > eps


def test_wishart_empirical_mean():
    # E[Z Z^T] = dof * variance * I
    d, cap, eps, n = 4, 2.0, 0.5, 100
    variance, dof = wishart_variance(n=n, eps_prime=eps, weight_cap=cap), d + 1
    B = np.zeros((d, d))
    gen = _stream(456, 0)
    total = np.zeros((d, d))
    m = 100000
    for _ in range(m):
        total += wishart_perturb(B, eps, cap, n, gen)
    mean = total / m
    expected_diag = dof * variance
    assert np.allclose(np.diag(mean), expected_diag, rtol=0.05)
    off = mean[~np.eye(d, dtype=bool)]
    # off-diagonal mean is 0 with per-entry std sqrt(dof) * variance / sqrt(m)
    assert np.abs(off).max() < 5.0 * math.sqrt(dof) * variance / math.sqrt(m)


def test_wishart_privacy_ratio_bound():
    # one swapped row changes tr(B) by (s ||x||^2 - s' ||x'||^2) / n; the
    # density-ratio exponent is (eps' n / cap) * tr(B - B'), bounded by eps'
    d, n, cap, eps = 5, 300, 4.0, 0.6
    rng = np.random.default_rng(99)
    m = 10000
    x1, _, s1 = _single_point_contrib(cap, rng, m, d)
    x2, _, s2 = _single_point_contrib(cap, rng, m, d)
    # include the exact boundary: unit-norm row at full weight
    x1[0] = np.eye(d)[0]
    s1[0] = cap
    x2[0] = np.zeros(d)
    s2[0] = 1e-12
    tr_diff = (s1 * (x1 * x1).sum(axis=1) - s2 * (x2 * x2).sum(axis=1)) / n
    ratio = np.exp(eps * n / cap * tr_diff)
    assert (ratio <= math.exp(eps) * (1.0 + 1e-12)).all()
    assert ratio.max() > math.exp(eps) * 0.999


def test_perturb_shape_checks():
    with pytest.raises(ValueError, match="1-dimensional"):
        laplace_perturb(np.zeros((2, 2)), 0.5, 1.0, 10, _stream(0, 0))
    with pytest.raises(ValueError, match="square"):
        wishart_perturb(np.zeros((2, 3)), 0.5, 1.0, 10, _stream(0, 0))


_A0, _B0 = np.zeros(0), np.zeros((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: laplace_perturb(_A0, 0.5, 1.0, 10, _stream(0, 0)),
        lambda: gaussian_perturb(_A0, 0.5, 1e-6, 1.0, 10, _stream(0, 0)),
        lambda: wishart_perturb(_B0, 0.5, 1.0, 10, _stream(0, 0)),
        lambda: solve_step(_A0, np.eye(1)),
        lambda: solve_step(np.zeros(1), _B0),
    ],
    ids=["laplace", "gaussian", "wishart", "solve_step-A", "solve_step-B"],
)
def test_every_release_and_solve_step_refuse_an_empty_moment(call):
    # No release can be calibrated at d = 0, and no step solved.
    with pytest.raises(ValueError, match="^[AB] must not be empty$"):
        call()


# --- random source ---------------------------------------------------------

_RANDOMIZED = {
    "laplace": lambda rng: laplace_perturb(np.zeros(2), 0.5, 1.0, 10, rng),
    "gaussian": lambda rng: gaussian_perturb(np.zeros(2), 0.5, 1e-6, 1.0, 10, rng),
    "wishart": lambda rng: wishart_perturb(np.eye(2), 0.5, 1.0, 10, rng),
    "run_private_irls": lambda rng: run_private_irls(
        Dataset(X=np.array([[0.5], [-0.25], [0.1]]), y=np.array([0.5, 0.25, -0.2])),
        IRLSConfig(iterations=2, weight_cap=100.0),
        PrivacyBudget(0.9),
        "laplace",
        rng,
    ),
}


@pytest.mark.parametrize("bad", [4, None, np.random.RandomState(0)], ids=["int", "None", "RandomState"])
@pytest.mark.parametrize("entry", _RANDOMIZED)
def test_randomized_entry_points_take_only_a_generator(entry, bad):
    with pytest.raises(TypeError, match=f"Generator, got {type(bad).__name__}$"):
        _RANDOMIZED[entry](bad)
    # A Generator is accepted where the bad value was refused.
    _RANDOMIZED[entry](_stream(0, 0))
