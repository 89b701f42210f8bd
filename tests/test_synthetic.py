"""Synthetic problem generation and held-out scoring."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dpirls.data import validate_dataset
from dpirls.solver import IRLSConfig, run_exact_irls
from dpirls.synthetic import (
    _NOISE_VAR,
    SyntheticSpec,
    estimate_residual_variance,
    evaluate_fit,
    generate,
    loglik_per_test_point,
)
from dpirls.data import Dataset
from _oracles import unscaled_synthetic


def test_generated_data_satisfies_bounds():
    split = generate(SyntheticSpec(n=500, d=8, seed=4))
    validate_dataset(split.train)
    validate_dataset(split.test)
    X_all = np.vstack([split.train.X, split.test.X])
    y_all = np.concatenate([split.train.y, split.test.y])
    assert abs(np.linalg.norm(X_all, axis=1).max() - 1.0) < 1e-12
    assert abs(np.abs(y_all).max() - 1.0) < 1e-12


def test_generation_is_deterministic():
    a = generate(SyntheticSpec(n=200, d=3, seed=9))
    b = generate(SyntheticSpec(n=200, d=3, seed=9))
    assert np.array_equal(a.train.X, b.train.X)
    assert np.array_equal(a.train.y, b.train.y)
    assert np.array_equal(a.test.X, b.test.X)
    assert np.array_equal(a.true_theta, b.true_theta)
    c = generate(SyntheticSpec(n=200, d=3, seed=10))
    assert not np.array_equal(a.train.y, c.train.y)


# (n, d, seed) of the pinned problems below.
PINNED_SPECS = [(500, 10, 0), (1000, 3, 7), (2000, 100, 3), (37, 1, 5), (20000, 50, 1)]


def test_generated_features_match_pinned_digest():
    # SHA-256 over train X, test X and theta* of PINNED_SPECS, computed when
    # generate took its row norms in one np.linalg.norm call and divided X
    # out of place.  y is left out: X @ theta* goes through BLAS, whose
    # rounding differs between builds (the next test rebuilds y instead).
    # X and theta* are drawn before the noise, so its variance does not
    # enter the digest.
    digest = hashlib.sha256()
    for n, d, seed in PINNED_SPECS:
        split = generate(SyntheticSpec(n, d, seed))
        for a in (split.train.X, split.test.X, split.true_theta):
            digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "161cfd066cd4a0efa3e042883dedcd446a53f289cae287dfcb766389e9676f70"


# (n, d, seed) that put generate's row blocks (64-row multiples of
# about 2^16 entries) where the pinned specs do not.
BLOCK_EDGE_SPECS = [
    (2007, 100, 4),   # the split falls at row 1806, inside a block and off a multiple of 4
    (1281, 100, 6),   # one row is left over after the last full block
    (50, 7, 11),      # n is smaller than one block
    (300, 1500, 2),   # a block is the 64-row minimum
]


def _assert_generate_matches_the_recipe(specs):
    for spec in specs:
        n, d, seed = spec
        X, y, theta = unscaled_synthetic(n, d, _NOISE_VAR, seed)
        y = y / np.abs(y).max()
        split = generate(SyntheticSpec(*spec))
        m = n - round(0.1 * n)
        for got, want in ((split.train.X, X[:m]), (split.test.X, X[m:]), (split.train.y, y[:m]),
                          (split.test.y, y[m:]), (split.true_theta, theta)):
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), spec


def test_generate_matches_the_documented_recipe_bitwise():
    _assert_generate_matches_the_recipe(PINNED_SPECS)


def test_generate_matches_the_recipe_bitwise_at_block_edges():
    _assert_generate_matches_the_recipe(BLOCK_EDGE_SPECS)


def test_generate_peak_memory_stays_near_one_copy():
    # X is drawn block by block into the train and test arrays, which the
    # datasets adopt, so the peak is one X plus a few blocks and the
    # bounds check's boolean mask (2.25x the size of X when X was drawn
    # whole and copied into the splits, 3.06x before that when each row
    # norm made n x d temporaries).
    n, d = 20000, 50
    tracemalloc.start()
    try:
        generate(SyntheticSpec(n, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * n * d * 8, peak / (n * d * 8)


def test_split_sizes():
    split = generate(SyntheticSpec(n=1000, d=2, seed=0))
    assert split.test.n == 100
    assert split.train.n == 900
    # round() at the midpoint follows banker's rounding
    split2 = generate(SyntheticSpec(n=15, d=2, seed=0))
    assert split2.test.n == round(1.5)
    assert split2.train.n == 15 - round(1.5)


def test_tiny_n_rejected():
    with pytest.raises(ValueError, match="test rows"):
        generate(SyntheticSpec(n=4, d=1, seed=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=1, d=2)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, d=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, d=2, seed=-3)


def test_response_scaling_rescales_theta():
    # the scaled problem's parameter is true_theta / c for the y scale c;
    # generate scales y as this does (see the recipe tests above)
    X, raw_y, true_theta = unscaled_synthetic(800, 4, 1e-20, 13)
    c = np.abs(raw_y).max()
    scaled = Dataset(X=X, y=raw_y / c)
    theta, _ = run_exact_irls(scaled, IRLSConfig(iterations=40, weight_cap=1e6))
    np.testing.assert_allclose(theta, true_theta / c, rtol=0, atol=1e-6)


# --- residual variance ---------------------------------------------------

def test_variance_floor_on_perfect_fit():
    ds = Dataset(X=np.eye(2) * 0.5, y=np.array([0.25, -0.25]))
    theta = np.array([0.5, -0.5])
    assert estimate_residual_variance(ds, theta) == 1e-8


def test_variance_of_constant_residuals():
    ds = Dataset(X=np.zeros((4, 2)), y=np.full(4, 0.3))
    var = estimate_residual_variance(ds, np.zeros(2))
    assert var == pytest.approx(0.09, rel=1e-15, abs=0)


def test_variance_matches_two_pass_loop():
    rng = np.random.default_rng(5)
    ds = Dataset(X=rng.normal(size=(60, 3)) * 0.1, y=rng.uniform(-1, 1, size=60))
    theta = rng.normal(size=3)
    res = [ds.y[i] - float(ds.X[i] @ theta) for i in range(60)]
    total = 0.0
    for r in res:
        total += r * r
    assert estimate_residual_variance(ds, theta) == pytest.approx(total / 60, abs=1e-12)


def test_variance_validation():
    ds = Dataset(X=np.eye(2), y=np.zeros(2))
    with pytest.raises(ValueError):
        estimate_residual_variance(ds, np.zeros(3))


# --- log-likelihood ------------------------------------------------------

def test_loglik_zero_at_matched_variance():
    # perfect predictions with variance 1/(2 pi): log density is exactly 0
    ds = Dataset(X=np.eye(2) * 0.5, y=np.array([0.25, -0.25]))
    theta = np.array([0.5, -0.5])
    ll = loglik_per_test_point(ds, theta, 1.0 / (2.0 * math.pi))
    assert abs(ll) < 1e-15


def test_loglik_single_point_closed_form():
    ds = Dataset(X=np.array([[0.5]]), y=np.array([0.8]))
    theta = np.array([1.0])  # residual 0.3
    ll = loglik_per_test_point(ds, theta, 1.0)
    assert ll == pytest.approx(-0.5 * math.log(2.0 * math.pi) - 0.045, rel=1e-14)


def test_loglik_decreases_with_parameter_distance():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(50, 3)) * 0.2
    y = rng.uniform(-0.9, 0.9, size=50)
    ds = Dataset(X=X, y=y)
    theta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    lls = [
        loglik_per_test_point(ds, theta_ls + t * direction, 1.0)
        for t in (0.0, 0.5, 1.0, 2.0)
    ]
    # least-squares residuals are orthogonal to the perturbation image, so
    # squared error grows strictly with |t| and the score strictly falls
    assert lls[0] > lls[1] > lls[2] > lls[3]


def test_loglik_invariant_under_row_permutation():
    rng = np.random.default_rng(23)
    ds = Dataset(X=rng.normal(size=(40, 3)) * 0.2, y=rng.uniform(-1, 1, size=40))
    perm = rng.permutation(40)
    ds_perm = Dataset(X=ds.X[perm], y=ds.y[perm])
    theta = rng.normal(size=3)
    a = loglik_per_test_point(ds, theta, 0.5)
    b = loglik_per_test_point(ds_perm, theta, 0.5)
    assert a == pytest.approx(b, abs=1e-12)


def test_loglik_validation():
    ds = Dataset(X=np.eye(2), y=np.zeros(2))
    with pytest.raises(ValueError):
        loglik_per_test_point(ds, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        loglik_per_test_point(ds, np.zeros(3), 1.0)


def test_evaluate_fit_composes_the_pipeline():
    split = generate(SyntheticSpec(n=400, d=3, seed=31))
    theta, _ = run_exact_irls(split.train, IRLSConfig(iterations=10, weight_cap=100.0))
    result = evaluate_fit(split, theta, "non-private", 31)
    assert result.mechanism == "non-private"
    assert result.n == 400
    assert result.seed == 31
    var = estimate_residual_variance(split.train, theta)
    assert result.residual_var == var
    assert result.loglik_per_point == loglik_per_test_point(split.test, theta, var)
