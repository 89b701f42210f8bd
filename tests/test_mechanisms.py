"""Sensitivity bounds, noise calibration, and perturbation mechanics.

Expected constants were frozen from direct evaluation of the closed
forms; empirical checks use fixed seeds and wide statistical margins.
"""

import math
import warnings

import numpy as np
import pytest

from dpirls.mechanisms import (
    GaussianNoiseSpec,
    LaplaceNoiseSpec,
    SeededRng,
    WishartNoiseSpec,
    as_generator,
    gaussian_perturb,
    l1_sensitivity_A,
    l2_sensitivity_A,
    laplace_perturb,
    wishart_perturb,
)


# --- sensitivities -------------------------------------------------------

def test_l1_sensitivity_values():
    # single row, cap 1: both contributions at magnitude 1 -> 2
    assert l1_sensitivity_A(1, 1, 1.0) == 2.0
    # 2 * cap * sqrt(d) / n, frozen from direct evaluation
    assert l1_sensitivity_A(10, 1000, 1.0) == pytest.approx(
        0.006324555320336759, rel=1e-15
    )
    assert l1_sensitivity_A(10, 1000, 1.0) == pytest.approx(
        2.0 * math.sqrt(10.0) / 1000.0, rel=0, abs=0
    )


def test_l2_sensitivity_values():
    assert l2_sensitivity_A(1, 1.0) == 2.0
    assert l2_sensitivity_A(1000, 1.0) == pytest.approx(0.002, rel=1e-15)
    assert l2_sensitivity_A(500, 3.0) == pytest.approx(2.0 * 3.0 / 500.0, rel=1e-15)


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


# --- calibrated specs ----------------------------------------------------

def test_laplace_spec_scale():
    spec = LaplaceNoiseSpec.calibrate(d=10, n=1000, eps_prime=0.3, weight_cap=1.0)
    assert spec.scale == pytest.approx(0.021081851067789197, rel=1e-15)


def test_gaussian_spec_std():
    spec = GaussianNoiseSpec.calibrate(n=1000, eps_prime=0.3, failure_prob=1e-6, weight_cap=1.0)
    assert spec.std == pytest.approx(0.03532535017900316, rel=1e-15)
    assert spec.multiplier == pytest.approx(math.sqrt(2.0 * math.log(1.25e6)), rel=1e-15)
    assert spec.sensitivity == pytest.approx(0.002, rel=1e-15)


def test_wishart_spec():
    spec = WishartNoiseSpec.calibrate(d=10, n=100, eps_prime=0.5, weight_cap=2.0)
    assert spec.variance == pytest.approx(0.02, rel=1e-15)
    assert spec.dof == 11


@pytest.mark.parametrize("eps", [0.0, -0.5])
def test_specs_reject_nonpositive_eps(eps):
    with pytest.raises(ValueError):
        LaplaceNoiseSpec.calibrate(d=2, n=10, eps_prime=eps, weight_cap=1.0)
    with pytest.raises(ValueError):
        GaussianNoiseSpec.calibrate(n=10, eps_prime=eps, failure_prob=1e-6, weight_cap=1.0)
    with pytest.raises(ValueError):
        WishartNoiseSpec.calibrate(d=2, n=10, eps_prime=eps, weight_cap=1.0)


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
        perturb(value, math.inf, *args, SeededRng(0))


def test_gaussian_rejects_bad_failure_prob():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            GaussianNoiseSpec.calibrate(n=10, eps_prime=0.5, failure_prob=bad, weight_cap=1.0)


def test_gaussian_warns_above_one():
    with pytest.warns(UserWarning, match="eps_prime"):
        GaussianNoiseSpec.calibrate(n=10, eps_prime=1.5, failure_prob=1e-6, weight_cap=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GaussianNoiseSpec.calibrate(n=10, eps_prime=0.99, failure_prob=1e-6, weight_cap=1.0)


def test_scales_monotone_in_parameters():
    base = dict(d=5, n=1000, eps_prime=0.4, weight_cap=2.0)
    b0 = LaplaceNoiseSpec.calibrate(**base).scale
    assert LaplaceNoiseSpec.calibrate(**{**base, "n": 2000}).scale < b0
    assert LaplaceNoiseSpec.calibrate(**{**base, "eps_prime": 0.8}).scale < b0
    assert LaplaceNoiseSpec.calibrate(**{**base, "weight_cap": 4.0}).scale > b0
    v0 = WishartNoiseSpec.calibrate(**base).variance
    assert WishartNoiseSpec.calibrate(**{**base, "n": 2000}).variance < v0
    assert WishartNoiseSpec.calibrate(**{**base, "eps_prime": 0.8}).variance < v0
    assert WishartNoiseSpec.calibrate(**{**base, "weight_cap": 4.0}).variance > v0


# --- perturbation ops ----------------------------------------------------

def test_laplace_noise_vanishes_at_huge_eps():
    A = np.linspace(-0.5, 0.5, 4)
    out = laplace_perturb(A, eps_prime=1e12, weight_cap=1.0, n=100, rng=SeededRng(5))
    assert np.max(np.abs(out - A)) < 1e-9


def test_laplace_empirical_moments():
    # one release of a size-m vector is m i.i.d. draws at the scale
    # calibrated for d = m
    m = 1000000
    b = LaplaceNoiseSpec.calibrate(d=m, n=50, eps_prime=0.7, weight_cap=3.0).scale
    draws = laplace_perturb(np.zeros(m), 0.7, 3.0, 50, SeededRng(123))
    # Laplace std is scale * sqrt(2); a million draws pin it to ~0.1%
    assert draws.std() == pytest.approx(b * math.sqrt(2.0), rel=0.03)
    assert abs(draws.mean()) < 4.0 * b * math.sqrt(2.0) / math.sqrt(m)


def test_gaussian_noise_vanishes_at_huge_eps():
    A = np.linspace(-0.5, 0.5, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        out = gaussian_perturb(A, 1e12, 1e-6, 1.0, 100, SeededRng(5))
    assert np.max(np.abs(out - A)) < 1e-9


def test_gaussian_empirical_std():
    # Gaussian calibration is dimension-free, so a long release vector is
    # a large i.i.d. sample at the calibrated std
    m = 1000000
    spec = GaussianNoiseSpec.calibrate(n=50, eps_prime=0.7, failure_prob=1e-5, weight_cap=3.0)
    draws = gaussian_perturb(np.zeros(m), 0.7, 1e-5, 3.0, 50, SeededRng(321))
    assert draws.std() == pytest.approx(spec.std, rel=0.03)
    assert abs(draws.mean()) < 4.0 * spec.std / math.sqrt(m)


def test_perturb_determinism():
    A = np.array([0.1, -0.2, 0.3])
    B = np.eye(3) * 0.5
    for fn, args in (
        (laplace_perturb, (A, 0.5, 2.0, 100)),
        (gaussian_perturb, (A, 0.5, 1e-6, 2.0, 100)),
        (wishart_perturb, (B, 0.5, 2.0, 100)),
    ):
        one = fn(*args, SeededRng(9, stream_id=4))
        two = fn(*args, SeededRng(9, stream_id=4))
        other = fn(*args, SeededRng(9, stream_id=5))
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)


def test_wishart_output_exactly_symmetric_and_psd_shift():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(6, 6))
    B = M @ M.T / 6.0
    B = (B + B.T) / 2.0
    out = wishart_perturb(B, 0.4, 2.0, 200, SeededRng(31))
    assert np.array_equal(out, out.T)
    # the additive part Z Z^T is PSD, so eigenvalues can only grow
    shift = out - B
    assert np.linalg.eigvalsh(shift).min() >= -1e-12


def test_wishart_rejects_asymmetric_input():
    B = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        wishart_perturb(B, 0.5, 1.0, 10, SeededRng(0))


def test_wishart_empirical_mean():
    # E[Z Z^T] = dof * variance * I
    d, cap, eps, n = 4, 2.0, 0.5, 100
    spec = WishartNoiseSpec.calibrate(d=d, n=n, eps_prime=eps, weight_cap=cap)
    B = np.zeros((d, d))
    gen = SeededRng(456).generator()
    total = np.zeros((d, d))
    m = 100000
    for _ in range(m):
        total += wishart_perturb(B, eps, cap, n, gen)
    mean = total / m
    expected_diag = spec.dof * spec.variance
    assert np.allclose(np.diag(mean), expected_diag, rtol=0.05)
    off = mean[~np.eye(d, dtype=bool)]
    # off-diagonal mean is 0 with per-entry std sqrt(dof) * variance / sqrt(m)
    assert np.abs(off).max() < 5.0 * math.sqrt(spec.dof) * spec.variance / math.sqrt(m)


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
        laplace_perturb(np.zeros((2, 2)), 0.5, 1.0, 10, SeededRng(0))
    with pytest.raises(ValueError, match="square"):
        wishart_perturb(np.zeros((2, 3)), 0.5, 1.0, 10, SeededRng(0))


# --- seeded rng ----------------------------------------------------------

def test_seeded_rng_reproducible():
    a = SeededRng(7, stream_id=2).generator().normal(size=8)
    b = SeededRng(7, stream_id=2).generator().normal(size=8)
    assert np.array_equal(a, b)


def test_seeded_rng_streams_differ():
    a = SeededRng(7, stream_id=0).generator().normal(size=8)
    b = SeededRng(7, stream_id=1).generator().normal(size=8)
    c = SeededRng(8, stream_id=0).generator().normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_rng_validation():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(3, stream_id=-2)
    with pytest.raises(ValueError):
        SeededRng(1.5)  # type: ignore[arg-type]


def test_as_generator_accepts_the_three_forms():
    g1 = as_generator(SeededRng(4))
    g2 = as_generator(4)
    assert np.array_equal(g1.normal(size=3), g2.normal(size=3))
    gen = np.random.default_rng(0)
    assert as_generator(gen) is gen
    with pytest.raises(TypeError):
        as_generator("seed")  # type: ignore[arg-type]
