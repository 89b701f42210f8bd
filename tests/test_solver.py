"""IRLS loop, weights, moments, and the guarded linear solve."""

import math
import os
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from _oracles import grid_l1_minimizer, longdouble_solve, naive_moments

import dpirls.solver as solver_module
from dpirls.accountant import PrivacyBudget, Regime, plan_for_budget
from dpirls.data import DataValidationError, Dataset, normalize_dataset
from dpirls.mechanisms import _stream, wishart_perturb
from dpirls.synthetic import SyntheticSpec, evaluate_fit, generate
from dpirls.solver import (
    IRLSConfig,
    Mechanism,
    MomentSolveError,
    compute_moments,
    residuals,
    run_exact_irls,
    run_private_irls,
    solve_step,
    weights_from_residuals,
)


def _random_dataset(seed, n=200, d=4):
    rng = np.random.default_rng(seed)
    return normalize_dataset(rng.normal(size=(n, d)), rng.normal(size=n))


# --- weights -------------------------------------------------------------

def test_weights_known_values():
    res = np.array([0.0, 2.0, -2.0, 0.1])
    w = weights_from_residuals(res, weight_cap=10.0)
    np.testing.assert_allclose(w, [10.0, 0.5, 0.5, 10.0], rtol=0, atol=0)


def test_weight_clamp_boundary():
    # |r| exactly 1/cap: both branches of the max agree
    w = weights_from_residuals(np.array([0.125, -0.125]), weight_cap=8.0)
    np.testing.assert_array_equal(w, [8.0, 8.0])
    w2 = weights_from_residuals(np.array([0.2]), weight_cap=8.0)
    assert w2[0] == 5.0


def test_weights_always_in_range():
    rng = np.random.default_rng(0)
    for cap in (0.5, 1.0, 100.0, 1e6):
        w = weights_from_residuals(rng.normal(size=1000) * 10.0, cap)
        assert (w > 0.0).all()
        assert (w <= cap).all()


def test_weights_validation():
    with pytest.raises(ValueError):
        weights_from_residuals(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        weights_from_residuals(np.zeros(3), math.inf)


# --- moments -------------------------------------------------------------

def test_moments_identity_design():
    ds = Dataset(X=np.eye(2), y=np.array([1.0, 1.0]))
    m = compute_moments(ds, np.ones(2))
    np.testing.assert_array_equal(m.A, [0.5, 0.5])
    np.testing.assert_array_equal(m.B, 0.5 * np.eye(2))


def test_moments_single_row():
    x = np.array([0.6, 0.8])
    ds = Dataset(X=x[None, :], y=np.array([1.0]))
    m = compute_moments(ds, np.array([2.0]))
    np.testing.assert_allclose(m.A, 2.0 * x, rtol=0, atol=0)
    np.testing.assert_allclose(m.B, 2.0 * np.outer(x, x), rtol=0, atol=1e-15)


def test_moments_match_naive_loop():
    ds = _random_dataset(7, n=150, d=5)
    rng = np.random.default_rng(8)
    w = rng.uniform(0.1, 30.0, size=ds.n)
    m = compute_moments(ds, w)
    A_ref, B_ref = naive_moments(ds.X, ds.y, w)
    np.testing.assert_allclose(m.A, A_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.B, B_ref, rtol=0, atol=1e-12)


def test_moments_linear_in_weights():
    ds = _random_dataset(9, n=80, d=3)
    w = np.random.default_rng(10).uniform(0.5, 5.0, size=ds.n)
    m1 = compute_moments(ds, w)
    m3 = compute_moments(ds, 3.0 * w)
    np.testing.assert_allclose(m3.A, 3.0 * m1.A, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(m3.B, 3.0 * m1.B, rtol=1e-13, atol=1e-15)


def test_moments_gram_exactly_symmetric():
    # The last case has n < d, so B is rank deficient.
    for n, d in [(500, 1), (500, 2), (500, 10), (500, 100), (300, 150), (40, 150)]:
        ds = _random_dataset(11, n=n, d=d)
        w = np.random.default_rng(12).uniform(0.01, 100.0, size=ds.n)
        B = compute_moments(ds, w).B
        assert np.array_equal(B, B.T), (n, d)


def test_moments_gram_matches_exactly_rounded_sums():
    ds = _random_dataset(13, n=60, d=5)
    w = np.random.default_rng(14).uniform(0.01, 100.0, size=ds.n)
    B = compute_moments(ds, w).B
    X = ds.X
    ref = np.array(
        [
            [math.fsum(w[i] * X[i, j] * X[i, k] for i in range(ds.n)) / ds.n for k in range(ds.d)]
            for j in range(ds.d)
        ]
    )
    np.testing.assert_allclose(B, ref, rtol=1e-12, atol=0)


def _update_path_taken(w):
    # compute_moments' two conditions for the capped-weight update
    b = w.max()
    return b <= 64.0 * w.min() and 2 * np.count_nonzero(w < b) <= w.shape[0]


def _longdouble_moments(ds, w):
    X, y, wl = (np.asarray(a, dtype=np.longdouble) for a in (ds.X, ds.y, w))
    return X.T @ (wl * y) / ds.n, X.T @ (X * wl[:, None]) / ds.n


def _rel_frobenius(got, ref):
    return float(np.linalg.norm((got - ref).astype(np.float64)) / np.linalg.norm(ref.astype(np.float64)))


def _gemm_sized(d, rows):
    return d * d * rows <= solver_module._GEMM_MAX_MULADDS


def _one_product_moments(ds, w):
    # compute_moments' formulas as one product over all rows: the direct
    # one, or the capped-weight update where its two conditions hold.  Each
    # weighted product X^T diag(v) [X, y] is the gemm of St = X^T diag(v)
    # against X, with the average of G and G^T as its Gram, up to
    # _GEMM_MAX_MULADDS multiply-adds, and the syrk of diag(sqrt(v)) X above.
    n, d = ds.n, ds.d
    if not _update_path_taken(w):
        if _gemm_sized(d, n):
            St = ds.X.T * w
            G = St @ ds.X
            return St @ ds.y / n, (G + G.T) * 0.5 / n
        Xs = ds.X * np.sqrt(w)[:, None]
        return ds.X.T @ (w * ds.y) / n, (Xs.T @ Xs) / n
    hi = w.max()
    idx = np.flatnonzero(w < hi)
    Xk = np.take(ds.X.T, idx, axis=1)
    if _gemm_sized(d, idx.shape[0]):
        St = Xk * (hi - w[idx])
        G = St @ Xk.T
        sum_y, sum_G = St @ ds.y[idx], (G + G.T) * 0.5
    else:
        c = np.sqrt(hi - w[idx])
        Gt = Xk * c
        sum_y, sum_G = Gt @ (c * ds.y[idx]), Gt @ Gt.T
    XtX, Xty = ds.X.T @ ds.X, ds.X.T @ ds.y
    return (hi * Xty - sum_y) / n, (hi * XtX - sum_G) / n


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(20, 3000),
    d=st.integers(1, 30),
    cap=st.floats(0.1, 1e3),
    share=st.one_of(
        st.floats(0.0, 1.0), st.floats(0.5, 1.0), st.sampled_from([0.49, 0.5, 0.51, 1.0])
    ),
    ratio=st.one_of(
        st.floats(1.01, 64.0), st.floats(1.01, 200.0), st.sampled_from([63.99, 64.0, 64.01])
    ),
    subspace=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_moments_property_against_longdouble(n, d, cap, share, ratio, subspace, seed):
    rng = np.random.default_rng(seed)
    n_capped = int(round(share * n))
    X = rng.normal(size=(n, d))
    if subspace == 0 and d > 1:
        # Capped rows near a subspace: orthogonal to it, X^T X comes from
        # the uncapped rows alone and the update's difference cancels.
        basis = np.linalg.qr(rng.normal(size=(d, max(1, d // 3))))[0]
        X[:n_capped] = rng.normal(size=(n_capped, basis.shape[1])) @ basis.T
        X[:n_capped] += 1e-6 * rng.normal(size=(n_capped, d))
    X /= np.linalg.norm(X, axis=1).max()
    y = np.clip(X @ rng.normal(size=d) + 0.1 * rng.normal(size=n), -1.0, 1.0)
    w = np.full(n, cap)
    w[n_capped:] = cap / np.exp(rng.uniform(1e-9, math.log(ratio), size=n - n_capped))
    if n_capped < n:
        w[-1] = cap / ratio
    perm = rng.permutation(n)
    ds = Dataset(X=X[perm], y=y[perm])
    w = w[perm]

    m = compute_moments(ds, w)
    assert np.array_equal(m.B, m.B.T)
    A_ref, B_ref = _longdouble_moments(ds, w)
    assert _rel_frobenius(m.A, A_ref) <= 1e-12
    assert _rel_frobenius(m.B, B_ref) <= 1e-12
    # Every draw fits one block (n d <= 90000): the one-product bits, by
    # gemm or syrk as d * d * rows (up to 2.7e6) falls.
    assert ("_unit_moments" in vars(ds)) == _update_path_taken(w)
    A_one, B_one = _one_product_moments(ds, w)
    assert np.array_equal(m.A, A_one) and np.array_equal(m.B, B_one)

    # A second dataset of the same shape gets its own memo: scaling by
    # powers of two is exact, so its moments are exactly rescaled, and
    # the first dataset's moments are unchanged afterwards.
    other = Dataset(X=0.5 * ds.X, y=-ds.y)
    m_other = compute_moments(other, w)
    assert np.array_equal(m_other.A, -0.5 * m.A)
    assert np.array_equal(m_other.B, 0.25 * m.B)
    if _update_path_taken(w):
        assert other._unit_moments is not ds._unit_moments
    m_again = compute_moments(ds, w)
    assert np.array_equal(m_again.A, m.A) and np.array_equal(m_again.B, m.B)


def test_moments_update_path_only_when_most_rows_are_capped():
    ds = _random_dataset(15, n=400, d=6)
    w = np.full(ds.n, 8.0)
    w[:201] = 4.0  # 199 of 400 rows capped: direct formula
    compute_moments(ds, w)
    assert "_unit_moments" not in vars(ds)
    w[200] = 8.0  # half capped, but max/min = 80 > 64: direct formula
    w[0] = 0.1
    compute_moments(ds, w)
    assert "_unit_moments" not in vars(ds)
    w[0] = 4.0  # half capped, max/min = 2: update
    m = compute_moments(ds, w)
    XtX, Xty = vars(ds)["_unit_moments"]
    assert np.array_equal(XtX, ds.X.T @ ds.X) and np.array_equal(Xty, ds.X.T @ ds.y)
    assert not XtX.flags.writeable and not Xty.flags.writeable
    A_ref, B_ref = naive_moments(ds.X, ds.y, w)
    np.testing.assert_allclose(m.A, A_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m.B, B_ref, rtol=0, atol=1e-14)


def _capped_weights(n, below, seed, cap=5.0):
    # ``below`` rows drawn under the cap (max/min < 64), the rest at it
    rng = np.random.default_rng(seed)
    w = np.full(n, cap)
    w[rng.permutation(n)[:below]] = rng.uniform(cap / 8.0, cap, size=below) * (1.0 - 1e-12)
    return w


def _block_rows(d):
    return max(1, solver_module._MOMENT_BLOCK_ELEMENTS // d)


@pytest.mark.parametrize("path", ["direct", "update"])
def test_multi_block_moments_against_longdouble(path):
    ds = _random_dataset(16, n=30000, d=40)
    if path == "direct":
        w = np.random.default_rng(17).uniform(0.01, 10.0, size=ds.n)
        rows = ds.n
    else:
        rows = 14000
        w = _capped_weights(ds.n, rows, seed=17)
    assert _update_path_taken(w) == (path == "update")
    assert rows > _block_rows(ds.d)  # two blocks or more
    m = compute_moments(ds, w)
    assert np.array_equal(m.B, m.B.T)
    A_ref, B_ref = _longdouble_moments(ds, w)
    assert _rel_frobenius(m.A, A_ref) <= 1e-12
    assert _rel_frobenius(m.B, B_ref) <= 1e-12


def test_update_path_block_edges():
    d = 20
    step = _block_rows(d)
    ds = _random_dataset(18, n=2 * (2 * step + 1), d=d)
    XtX, Xty = ds.X.T @ ds.X, ds.X.T @ ds.y
    # k = 0: no row below the cap leaves b X^T X and b X^T y exactly.
    m = compute_moments(ds, np.full(ds.n, 5.0))
    assert np.array_equal(m.A, 5.0 * Xty / ds.n) and np.array_equal(m.B, 5.0 * XtX / ds.n)
    # k = 1 and a k that fits one block exactly: the one-product formula.
    for k in (1, step):
        w = _capped_weights(ds.n, k, seed=k)
        m, ref = compute_moments(ds, w), _one_product_moments(ds, w)
        assert np.array_equal(m.A, ref[0]) and np.array_equal(m.B, ref[1]), k
    # A k one row past a block edge (a one-row last block), and one that
    # ends mid-block after two full ones.
    for k in (step + 1, 2 * step + 1):
        w = _capped_weights(ds.n, k, seed=k)
        assert _update_path_taken(w)
        m = compute_moments(ds, w)
        assert np.array_equal(m.B, m.B.T), k
        A_ref, B_ref = _longdouble_moments(ds, w)
        assert _rel_frobenius(m.A, A_ref) <= 1e-12, k
        assert _rel_frobenius(m.B, B_ref) <= 1e-12, k


@pytest.mark.parametrize("path", ["direct", "update"])
def test_one_block_moments_are_the_one_product_formula_bitwise(path):
    # The README grid's largest training split, whose every call is one
    # gemm-sized block, and a one-block shape above the gemm limit: their
    # bytes are those of the one-product formula.
    for n, d, gemm in ((9000, 10, True), (12000, 20, False)):
        ds = _random_dataset(19, n=n, d=d)
        assert ds.n * ds.d <= solver_module._MOMENT_BLOCK_ELEMENTS
        if path == "direct":
            w = np.random.default_rng(20).uniform(0.01, 10.0, size=ds.n)
            rows = ds.n
        else:
            rows = 4000
            w = _capped_weights(ds.n, rows, seed=20)
        assert _update_path_taken(w) == (path == "update")
        assert _gemm_sized(d, rows) == gemm
        m, ref = compute_moments(ds, w), _one_product_moments(ds, w)
        assert np.array_equal(m.B, m.B.T), (n, d)
        assert np.array_equal(m.A, ref[0]), (n, d)
        assert np.array_equal(m.B, ref[1]), (n, d)


@pytest.mark.parametrize(
    "path, n, d, bound",
    [("direct", 200_000, 10, 0.5), ("update", 100_000, 50, 0.2)],
)
def test_moments_scratch_memory_is_a_block_not_a_copy(path, n, d, bound):
    # The peak is one block of 4 MiB plus a few vectors of length n; one
    # product over all rows copied X (1.10 times its size on the direct
    # path) or the half of its rows below the cap (0.53 on the update).
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, size=(n, d)) / math.sqrt(d)
    ds = Dataset(X=X, y=rng.uniform(-1.0, 1.0, size=n))
    del X
    if path == "direct":
        w = rng.uniform(0.01, 10.0, size=n)
    else:
        w = _capped_weights(n, n // 2, seed=22)
        ds._unit_moments  # memoised once per dataset, not scratch
    assert _update_path_taken(w) == (path == "update")
    tracemalloc.start()
    try:
        compute_moments(ds, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * ds.X.nbytes, peak / ds.X.nbytes


def test_moments_validation():
    ds = _random_dataset(2, n=10, d=2)
    with pytest.raises(ValueError, match="shape"):
        compute_moments(ds, np.ones(5))
    with pytest.raises(ValueError, match="positive"):
        compute_moments(ds, np.zeros(10))
    with pytest.raises(ValueError, match="finite"):
        compute_moments(ds, np.full(10, np.nan))


def test_residuals_and_validation():
    ds = Dataset(X=np.array([[0.5, 0.0], [0.0, 0.5]]), y=np.array([1.0, -1.0]))
    np.testing.assert_array_equal(residuals(ds, np.array([2.0, 2.0])), [0.0, -2.0])
    with pytest.raises(ValueError, match="shape"):
        residuals(ds, np.zeros(3))


# --- linear solve --------------------------------------------------------

def test_solve_step_diagonal():
    # the LU solve leaves at most an ulp of rounding
    sol = solve_step(np.array([2.0, 2.0]), np.diag([2.0, 4.0]))
    np.testing.assert_allclose(sol.theta, [1.0, 0.5], rtol=0, atol=1e-15)
    assert sol.used_ridge is False


def test_solve_step_spd_round_trip():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6))
    B = M @ M.T + 0.5 * np.eye(6)
    B = (B + B.T) / 2.0
    theta_true = rng.normal(size=6)
    sol = solve_step(B @ theta_true, B)
    np.testing.assert_allclose(sol.theta, theta_true, rtol=1e-10)


def test_solve_step_matches_scipy_cholesky_to_rounding():
    # solve_step takes theta from an LU solve, so it cannot match scipy's
    # potrs bit for bit.  Normwise, 200 random draws per size agreed to
    # 1.1e-15; single small components can differ by more, relatively.
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(8)
    for d in (1, 10, 100):
        M = rng.normal(size=(3 * d, d))
        B = M.T @ M / (3 * d)
        A = rng.normal(size=d)
        B.setflags(write=False)
        expected = linalg.cho_solve(linalg.cho_factor(B, lower=True), A)
        sol = solve_step(A, B)
        assert np.linalg.norm(sol.theta - expected) <= 1e-13 * np.linalg.norm(expected)
        assert sol.used_ridge is False


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(1, 100), log_cond=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_solve_step_property_against_longdouble(d, log_cond, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    B = (Q * np.logspace(0.0, -log_cond, d)) @ Q.T
    B = (B + B.T) / 2.0
    A = rng.normal(size=d)
    sol = solve_step(A, B)
    assert sol.used_ridge is False
    ref = longdouble_solve(B, A)
    err = np.linalg.norm((sol.theta - ref).astype(np.float64)) / np.linalg.norm(ref.astype(np.float64))
    assert err <= 64.0 * np.linalg.cond(B) * 2.0**-52


@pytest.mark.parametrize(
    "B, plain_fails, ridge_fails",
    [
        (np.array([[2.0, 0.5], [0.5, 1.0]]), False, False),  # positive definite
        (np.ones((2, 2)), True, False),  # rank 1: the ridge rescues it
        (np.zeros((2, 2)), True, True),  # singular, zero trace: no ridge
        (np.diag([1.0, -1.0]), True, True),  # indefinite
    ],
    ids=["pd", "rank-1", "zero", "indefinite"],
)
def test_solve_step_ridge_and_failure_follow_lapack_potrf(B, plain_fails, ridge_fails):
    # The numpy Cholesky must reject exactly what LAPACK potrf (info > 0) does.
    lapack = pytest.importorskip("scipy.linalg.lapack")
    d = B.shape[0]
    ridged = B + 1e-8 * np.trace(B) / d * np.eye(d)
    assert (lapack.dpotrf(B, lower=1)[1] > 0) == plain_fails
    assert (lapack.dpotrf(ridged, lower=1)[1] > 0) == ridge_fails
    A = np.ones(d)
    if ridge_fails:
        with pytest.raises(MomentSolveError):
            solve_step(A, B)
    else:
        assert solve_step(A, B).used_ridge is plain_fails


def test_solve_step_rejects_asymmetric_B():
    # The Cholesky test reads only B's lower triangle and the LU solve all
    # of it, so this B once came back as theta = (-4, 1) without complaint.
    A = np.array([1.0, 1.0])
    B = np.array([[1.0, 5.0], [0.0, 1.0]])
    message = r"^B must be symmetric; max \|B - B\^T\| = 5$"
    with pytest.raises(ValueError, match=message):
        solve_step(A, B)
    with pytest.raises(ValueError, match=message):  # the same check and message
        wishart_perturb(B, 0.5, 1.0, 10, _stream(0, 0))
    # Asymmetry at the 1e-10 tolerance passes, as rounding in a Gram may leave.
    for B in (np.array([[2.0, 1e-10], [0.0, 2.0]]), np.array([[2.0, 0.0], [-1e-10, 2.0]])):
        sol = solve_step(A, B)
        assert sol.used_ridge is False and np.isfinite(sol.theta).all()
    with pytest.raises(ValueError, match="symmetric"):
        solve_step(A, np.array([[2.0, 0.0], [1.01e-10, 2.0]]))
    # A NaN never reaches the symmetry check: both callers refuse a
    # non-finite B first.
    B = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^B must be finite$"):
        wishart_perturb(B, 0.5, 1.0, 10, _stream(0, 0))
    with pytest.raises(ValueError, match="^B must be finite$"):
        solve_step(A, B)


def test_solve_step_singular_uses_ridge():
    # rank-1 Gram: plain Cholesky fails, the traced ridge makes it SPD
    v = np.array([1.0, 1.0])
    B = np.outer(v, v)
    sol = solve_step(np.array([1.0, 1.0]), B)
    assert sol.used_ridge is True
    assert np.isfinite(sol.theta).all()


def test_solve_step_hopeless_matrix_raises():
    with pytest.raises(MomentSolveError, match="eigenvalues"):
        solve_step(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(MomentSolveError):
        solve_step(np.ones(2), np.diag([1.0, -1.0]))


def test_exactly_singular_B_that_passes_cholesky_takes_the_ridge():
    # Twenty copies of one row: B is exactly singular, but potrf accepts it
    # on rounding and LU then raised a bare LinAlgError ("Singular matrix").
    ds = Dataset(np.tile([[0.5, 0.5]], (20, 1)), np.full(20, 0.3))
    B = compute_moments(ds, weights_from_residuals(ds.y, 5.0)).B
    np.linalg.cholesky(B)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B, np.ones(2))
    theta, trace = run_exact_irls(ds, IRLSConfig(3, 5.0))
    # the ridge of 1e-8 trace(B) / d moves theta by about 1e-8 relative
    np.testing.assert_allclose(theta, [0.3, 0.3], rtol=1e-7, atol=0)
    assert all(state.used_ridge for state in trace)


def test_solve_step_refuses_an_overflowing_theta():
    # B passes the Cholesky test, but theta = A / 1e-300 overflows float64.
    with pytest.raises(MomentSolveError, match="overflows"):
        solve_step(np.array([1e10, 1.0]), np.diag([1e-300, 1.0]))


def test_solve_step_validation():
    with pytest.raises(ValueError, match="shape"):
        solve_step(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError, match="^A must be 1-dimensional"):
        solve_step(np.zeros((2, 1)), np.eye(2))
    with pytest.raises(ValueError, match="^B must be square"):
        solve_step(np.zeros(2), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^A must be finite$"):
        solve_step(np.array([np.nan, 0.0]), np.eye(2))



@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_solve_step_is_np_linalg_solve_bitwise(d):
    # solve_step calls numpy's LAPACK gufuncs without the np.linalg
    # wrappers; theta keeps np.linalg.solve's bits, on the ridge path too.
    rng = np.random.default_rng(d)
    for _ in range(5):
        M = rng.normal(size=(d, d + 3))
        B, A = M @ M.T / d, rng.normal(size=d)
        assert solve_step(A, B).theta.tobytes() == np.linalg.solve(B, A).tobytes()
    if d > 1:
        # Indefinite by 1e-10, far above rounding, and positive definite
        # once the ridge of about 1e-8 is added.
        v = rng.normal(size=d)
        B = np.outer(v, v) - 1e-10 * np.eye(d)
        lam = 1e-8 * float(np.trace(B)) / d
        sol = solve_step(A, B)
        assert sol.used_ridge
        assert sol.theta.tobytes() == np.linalg.solve(B + lam * np.eye(d), A).tobytes()


def test_solve_step_failures_warn_nothing_and_keep_the_callers_error_state():
    # LAPACK signals a failed factorization through the invalid flag; solve_step
    # turns it into its ridge retry or MomentSolveError under its own error
    # state, so no RuntimeWarning escapes, and the caller's state is back
    # afterwards, also after a raise and while another thread fails too.
    cases = [
        (np.ones(2), np.ones((2, 2)), True),  # rank 1: the ridge rescues it
        (np.ones(2), np.diag([1.0, -1.0]), None),  # indefinite: no ridge helps
        (np.zeros(2), np.zeros((2, 2)), None),
    ]

    def run_cases(errors):
        for A, B, ridge in cases:
            if ridge is None:
                with pytest.raises(MomentSolveError):
                    solve_step(A, B)
            else:
                assert solve_step(A, B).used_ridge is ridge
        with pytest.raises(MomentSolveError, match="overflows"):
            solve_step(np.array([1e10, 1.0]), np.diag([1e-300, 1.0]))
        assert np.geterr() == errors

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_cases(np.geterr())
        with np.errstate(all="raise"):
            run_cases(np.geterr())
        # A thread with its own error state beside one with numpy's default.
        failures = []

        def worker(state):
            try:
                with np.errstate(**state):
                    for _ in range(200):
                        run_cases(np.geterr())
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(state,))
                       for state in ({"all": "raise"}, {})]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

# --- exact IRLS ----------------------------------------------------------

def test_single_iteration_hand_computed():
    # residuals (0.5, 0.25) under theta=0, cap 2 clamps both weights to 2:
    # A = (1/2)(2*0.5*0.5 + 2*(-0.25)*0.25) = 0.1875, B = 0.3125, theta = 0.6
    ds = Dataset(X=np.array([[0.5], [-0.25]]), y=np.array([0.5, 0.25]))
    theta, trace = run_exact_irls(ds, IRLSConfig(iterations=1, weight_cap=2.0))
    assert theta[0] == pytest.approx(0.6, abs=1e-15)
    assert len(trace) == 1
    np.testing.assert_array_equal(trace[0].weights, [2.0, 2.0])


def test_exact_recovery_on_realizable_data():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 3))
    X /= np.linalg.norm(X, axis=1).max()
    theta_star = np.array([0.4, -0.2, 0.1])
    ds = Dataset(X=X, y=X @ theta_star)
    theta, _ = run_exact_irls(ds, IRLSConfig(iterations=30, weight_cap=1e6))
    np.testing.assert_allclose(theta, theta_star, rtol=0, atol=1e-8)


def test_matches_grid_search_in_one_dimension():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = 40
        x = rng.uniform(-1.0, 1.0, size=n)
        x[np.abs(x) < 1e-3] = 1e-3
        y = rng.uniform(-1.0, 1.0, size=n)
        ds = Dataset(X=x[:, None], y=y)
        theta, _ = run_exact_irls(ds, IRLSConfig(iterations=100, weight_cap=1e6))
        ref = grid_l1_minimizer(x, y)
        assert theta[0] == pytest.approx(ref, abs=1e-4)


def _huber_mean(res, cap):
    # the smoothed absolute value the clamped weights minimize
    r = np.abs(res)
    inner = r <= 1.0 / cap
    vals = np.where(inner, 0.5 * cap * res**2 + 0.5 / cap, r)
    return float(vals.mean())


def test_smoothed_objective_monotone():
    # clamped IRLS is majorize-minimize on the huberized objective, so
    # that objective never increases between iterations
    ds = _random_dataset(44, n=300, d=5)
    cfg = IRLSConfig(iterations=25, weight_cap=100.0)
    _, trace = run_exact_irls(ds, cfg)
    values = [_huber_mean(residuals(ds, st.theta), cfg.weight_cap) for st in trace]
    for prev, nxt in zip(values, values[1:]):
        assert nxt <= prev + 1e-12


def test_weights_come_from_the_previous_iterate():
    # every state's weights are the clamped weights of the previous
    # iterate's residuals (zeros for the first), exact and private alike
    cfg = IRLSConfig(iterations=4, weight_cap=10.0)
    for n, private in ((50, False), (1000, False), (50, True), (1000, True)):
        ds = _random_dataset(3, n=n, d=2)
        if private:
            _, trace, _ = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(3, 0))
        else:
            _, trace = run_exact_irls(ds, cfg)
        prev = np.zeros(ds.d)
        for state in trace:
            np.testing.assert_array_equal(
                state.weights, weights_from_residuals(residuals(ds, prev), cfg.weight_cap)
            )
            prev = state.theta


def _outlier_dataset(seed, n=800, d=5, share=0.3):
    # Linear data with a share of gross outliers in y, so that at the
    # weight caps below a fifth or more of the residuals lie beyond 1/cap.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    out = rng.random(n) < share
    y[out] += rng.uniform(-5.0, 5.0, out.sum())
    return normalize_dataset(X, y)


@pytest.mark.parametrize("cap", [5.0, 20.0])
def test_exact_fixed_point_is_the_huber_m_estimate(cap):
    # The weights 1 / max(1/cap, |r|) are psi(r) / r for the Huber loss at
    # delta = 1/cap, whose psi(r) = clip(r / delta, -1, 1); a fixed point of
    # the exact loop is where the Huber estimating equation X^T psi(r) = 0
    # holds.  psi is computed here from its definition, not from the
    # solver's weights.
    ds = _outlier_dataset(7)
    theta, trace = run_exact_irls(ds, IRLSConfig(iterations=60, weight_cap=cap))
    # A fixed point: bitwise with this BLAS, where the loop stops by iteration
    # 20; other summation orders may leave a cycle in the last bits.
    np.testing.assert_allclose(trace[-2].theta, theta, rtol=1e-13, atol=0)

    def score(theta):
        psi = np.clip(cap * residuals(ds, theta), -1.0, 1.0)
        return ds.X.T @ psi / ds.n, np.abs(ds.X).T @ np.abs(psi) / ds.n

    g, scale = score(theta)
    assert np.all(np.abs(g) <= 1e-13 * scale)  # zero to rounding, in every coordinate
    assert np.mean(np.abs(residuals(ds, theta)) > 1.0 / cap) > 0.2  # not least squares
    # Least squares does not solve it: its score is far from zero.
    g_ls, scale_ls = score(np.linalg.lstsq(ds.X, ds.y, rcond=None)[0])
    assert np.max(np.abs(g_ls) / scale_ls) > 1e-3


def test_exact_fixed_point_approaches_the_lad_fit_as_the_cap_grows():
    # The Huber M-estimate at delta = 1/cap tends to the L1 (least absolute
    # deviations) fit as the cap grows.  The LAD fit comes from the linear
    # program min sum(u + v) s.t. X theta + u - v = y, u, v >= 0.
    optimize = pytest.importorskip("scipy.optimize")
    for seed in (7, 8, 9):
        ds = _outlier_dataset(seed)
        n, d = ds.n, ds.d
        lp = optimize.linprog(
            np.concatenate([np.zeros(d), np.ones(2 * n)]),
            A_eq=np.hstack([ds.X, np.eye(n), -np.eye(n)]),
            b_eq=ds.y,
            bounds=[(None, None)] * d + [(0, None)] * (2 * n),
            method="highs",
        )
        assert lp.status == 0
        gaps = [
            np.max(np.abs(run_exact_irls(ds, IRLSConfig(200, cap))[0] - lp.x[:d]))
            for cap in (5.0, 100.0, 1e4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


def test_no_early_stopping():
    # trivially converged after one step: the exact loop stops computing,
    # but the trace still has J states
    ds = Dataset(X=np.eye(3) * 0.5, y=np.array([0.25, 0.25, 0.25]))
    _, trace = run_exact_irls(ds, IRLSConfig(iterations=30, weight_cap=5.0))
    assert len(trace) == 30
    # the exact solver releases nothing, so its states carry no records
    assert all(st.releases == () and st.used_ridge is False for st in trace)


def _reference_loop(ds, cfg):
    # The loop as the paper states it: J rounds of residuals, weights,
    # moments and solve from theta = 0, nothing memoised, no stopping.
    theta = np.zeros(ds.d)
    states = []
    for _ in range(cfg.iterations):
        w = weights_from_residuals(residuals(ds, theta), cfg.weight_cap)
        m = compute_moments(ds, w)
        solution = solve_step(m.A, m.B)
        theta = solution.theta
        states.append((theta, w, solution.used_ridge))
    return states


def _assert_trace_is(trace, states):
    assert len(trace) == len(states)
    for state, (theta, w, used_ridge) in zip(trace, states):
        assert state.theta.tobytes() == theta.tobytes()
        assert state.weights.tobytes() == w.tobytes()
        assert state.used_ridge == used_ridge


def _fresh_copy(ds):
    return Dataset(X=ds.X.copy(), y=ds.y.copy())


def _moment_calls(monkeypatch):
    # The weights of every compute_moments call the solvers make.
    calls = []
    original = solver_module.compute_moments

    def recording(dataset, weights):
        calls.append(np.array(weights))
        return original(dataset, weights)

    monkeypatch.setattr(solver_module, "compute_moments", recording)
    return calls


def test_exact_solve_stops_at_its_bitwise_fixed_point(monkeypatch):
    # At cap 5 the first shape's iterate repeats itself bit for bit after a
    # few iterations, the second's never does within J = 20.  Both traces
    # are the full loop's, bit for bit, but only the first saves calls.
    calls = _moment_calls(monkeypatch)
    for spec, cap, stalls in (
        (SyntheticSpec(n=500, d=10, seed=0), 5.0, True),
        (SyntheticSpec(n=300, d=4, seed=0), 100.0, False),
    ):
        ds = generate(spec).train
        cfg = IRLSConfig(iterations=20, weight_cap=cap)
        states = _reference_loop(_fresh_copy(ds), cfg)
        thetas = [theta.tobytes() for theta, *_ in states]
        assert any(a == b for a, b in zip(thetas, thetas[1:])) == stalls
        calls.clear()
        theta, trace = run_exact_irls(ds, cfg)
        _assert_trace_is(trace, states)
        assert theta.tobytes() == thetas[-1]
        assert (len(calls) < cfg.iterations) == stalls


def _first_repeat(states, d):
    # (number of states up to the first theta that repeats an earlier one
    # or theta = 0, its period), or (J, None) if none repeats.
    seen = {np.zeros(d).tobytes(): -1}
    for t, (theta, *_) in enumerate(states):
        first = seen.setdefault(theta.tobytes(), t)
        if first != t:
            return t + 1, t - first
    return len(states), None


def test_exact_solve_stops_at_any_repeated_iterate(monkeypatch):
    # Iterates that settle to rounding can cycle in their last bits instead
    # of repeating the previous one.  Once theta repeats any earlier
    # iterate, every later state repeats the cycle between them, so the
    # loop stops computing there and still returns the full loop's trace,
    # state by state and bit for bit.
    calls = _moment_calls(monkeypatch)
    J, computed, at_fixed_point, periods = 80, 0, 0, []
    for seed in range(7, 25):
        ds = _outlier_dataset(seed)
        for cap in (5.0, 20.0):
            cfg = IRLSConfig(iterations=J, weight_cap=cap)
            states = _reference_loop(_fresh_copy(ds), cfg)
            stop, period = _first_repeat(states, ds.d)
            calls.clear()
            theta, trace = run_exact_irls(ds, cfg)
            _assert_trace_is(trace, states)
            assert theta.tobytes() == states[-1][0].tobytes()
            assert len(calls) == stop, (seed, cap)
            computed += stop
            periods.append(period)
            # where a stop at the fixed point alone would have stopped
            thetas = [state_theta.tobytes() for state_theta, *_ in states]
            at_fixed_point += next(
                (t + 1 for t in range(1, J) if thetas[t] == thetas[t - 1]), J
            )
    # With OpenBLAS 0.3.31 four of these 36 solves cycle with period 2 to 4
    # and never reach a fixed point: 752 iterations computed, against 984
    # for a stop at the fixed point alone.
    assert any(p is not None and p > 1 for p in periods), periods
    assert computed < at_fixed_point


def test_exact_solver_accepts_unnormalized_data():
    rng = np.random.default_rng(55)
    ds = Dataset(X=rng.normal(size=(100, 3)) * 5.0, y=rng.normal(size=100) * 9.0)
    theta, _ = run_exact_irls(ds, IRLSConfig(iterations=5, weight_cap=10.0))
    assert np.isfinite(theta).all()


def test_config_validation():
    with pytest.raises(ValueError):
        IRLSConfig(iterations=0, weight_cap=100.0)
    with pytest.raises(ValueError, match="iterations"):
        IRLSConfig(iterations=True, weight_cap=100.0)
    with pytest.raises(ValueError):
        IRLSConfig(iterations=10, weight_cap=-1.0)
    # 1/1e-310 overflows to inf, so the clamp would make every weight 0;
    # 1e-300 still has a finite reciprocal.
    IRLSConfig(iterations=10, weight_cap=1e-300)
    with pytest.raises(ValueError, match="weight_cap"):
        IRLSConfig(iterations=10, weight_cap=1e-310)
    with pytest.raises(ValueError, match="weight_cap"):
        weights_from_residuals(np.zeros(3), 1e-310)


# --- private IRLS --------------------------------------------------------

def _budget(regime=Regime.CDP):
    return PrivacyBudget(
        0.9,
        failure_prob=1e-6 if regime is Regime.ADVANCED else 0.0,
        regime=regime,
    )


def test_private_run_is_deterministic():
    ds = _random_dataset(100, n=400, d=6)
    cfg = IRLSConfig(iterations=3, weight_cap=20.0)
    out = []
    for _ in range(2):
        theta, trace, plan = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(17, 0))
        out.append((theta, trace, plan))
    assert np.array_equal(out[0][0], out[1][0])
    for s1, s2 in zip(out[0][1], out[1][1]):
        assert np.array_equal(s1.theta, s2.theta)
    other, _, _ = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(18, 0))
    assert not np.array_equal(out[0][0], other)


def test_private_release_accounting():
    ds = _random_dataset(101, n=300, d=4)
    cfg = IRLSConfig(iterations=6, weight_cap=20.0)
    _, trace, plan = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(3, 0))
    assert len(trace) == 6
    assert sum(len(state.releases) for state in trace) == 2 * cfg.iterations
    for state in trace:
        assert len(state.releases) == 2
        assert state.releases[0].mechanism == "laplace"
        assert state.releases[1].mechanism == "wishart"
        for rel in state.releases:
            assert rel.eps_prime == plan.eps_prime


def test_private_gaussian_path():
    ds = _random_dataset(102, n=300, d=4)
    cfg = IRLSConfig(iterations=4, weight_cap=20.0)
    theta, trace, plan = run_private_irls(
        ds, cfg, _budget(), Mechanism.GAUSSIAN, _stream(5, 0), gaussian_failure_prob=1e-6
    )
    assert np.isfinite(theta).all()
    assert trace[0].releases[0].mechanism == "gaussian"
    with pytest.raises(ValueError):
        run_private_irls(
            ds, cfg, _budget(), Mechanism.GAUSSIAN, _stream(5, 0), gaussian_failure_prob=0.0
        )


def test_private_matches_exact_when_noise_vanishes():
    ds = _random_dataset(103, n=500, d=5)
    cfg = IRLSConfig(iterations=3, weight_cap=10.0)
    exact, _ = run_exact_irls(ds, cfg)
    big = PrivacyBudget(1e15, regime=Regime.CDP)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for mech in (Mechanism.LAPLACE, Mechanism.GAUSSIAN):
            theta, _, _ = run_private_irls(ds, cfg, big, mech, _stream(1, 0))
            np.testing.assert_allclose(theta, exact, rtol=0, atol=1e-6)


def test_private_solver_touches_data_only_via_releases(monkeypatch):
    # identity "noise" must reproduce the exact trajectory: everything
    # downstream of the two releases is post-processing
    ds = _random_dataset(104, n=250, d=4)
    cfg = IRLSConfig(iterations=5, weight_cap=30.0)
    calls = {"laplace": 0, "wishart": 0}

    def fake_laplace(A, eps_prime, weight_cap, n, rng):
        calls["laplace"] += 1
        return np.asarray(A, dtype=float)

    def fake_wishart(B, eps_prime, weight_cap, n, rng):
        calls["wishart"] += 1
        return np.asarray(B, dtype=float)

    monkeypatch.setattr(solver_module, "laplace_perturb", fake_laplace)
    monkeypatch.setattr(solver_module, "wishart_perturb", fake_wishart)
    theta, _, _ = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(9, 0))
    exact, _ = run_exact_irls(ds, cfg)
    assert calls == {"laplace": 5, "wishart": 5}
    np.testing.assert_array_equal(theta, exact)


def _count_calls(monkeypatch, module, names):
    # Replaces each named module attribute with a wrapper that counts its
    # calls and calls the original.
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def test_private_solve_call_structure(monkeypatch):
    # The benchmark's traced runs pin these counts through the same module
    # attributes: per private solve J solves and releases of each kind, and
    # J - 1 residual, weight and moment passes once the split's first step
    # is memoised (J of each while it is not).  No residual pass follows
    # the last iterate.
    counts = _count_calls(monkeypatch, solver_module, (
        "residuals", "weights_from_residuals", "compute_moments", "solve_step",
        "laplace_perturb", "gaussian_perturb", "wishart_perturb",
    ))
    ds = _random_dataset(108, n=300, d=4)
    J = 6
    cfg = IRLSConfig(iterations=J, weight_cap=20.0)
    run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, _stream(6, 0))
    assert counts == {
        "residuals": J, "weights_from_residuals": J, "compute_moments": J,
        "solve_step": J, "laplace_perturb": J, "wishart_perturb": J,
    }
    for mechanism in (Mechanism.GAUSSIAN, Mechanism.LAPLACE):
        counts.clear()
        run_private_irls(ds, cfg, _budget(), mechanism, _stream(7, 0))
        assert counts == {
            "residuals": J - 1, "weights_from_residuals": J - 1, "compute_moments": J - 1,
            "solve_step": J, f"{mechanism.value}_perturb": J, "wishart_perturb": J,
        }


# numpy's Python-level wrappers (np.linalg, ndarray.all/any/max, np.mean,
# np.take, count_nonzero, flatnonzero, np.linalg.norm) under numpy 2 and 1
# names.  At d = 10 each costs more than the compiled kernel it wraps.
_NUMPY_WRAPPER_FILES = {
    "linalg/_linalg.py", "linalg/linalg.py",
    "_core/_methods.py", "core/_methods.py",
    "_core/fromnumeric.py", "core/fromnumeric.py",
    "_core/numeric.py", "core/numeric.py",
}


def test_an_irls_solve_enters_none_of_numpys_python_wrappers():
    root = os.path.dirname(np.__file__)
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call":
            rel = os.path.relpath(frame.f_code.co_filename, root).replace(os.sep, "/")
            if rel in _NUMPY_WRAPPER_FILES:
                entered[f"{rel}:{frame.f_code.co_name}"] += 1

    cfg = IRLSConfig(iterations=8, weight_cap=5.0)
    budget = PrivacyBudget(epsilon=0.9)
    sys.setprofile(profile)
    try:
        # A fresh split misses every memo: its bounds checks, X^T X and
        # first step run here.  Cap 5 takes both moment paths.
        split = generate(SyntheticSpec(n=2000, d=10, seed=5))
        run_exact_irls(split.train, cfg)
        for mechanism in (Mechanism.LAPLACE, Mechanism.GAUSSIAN):
            theta, _, _ = run_private_irls(
                split.train, cfg, budget, mechanism, _stream(5, 0), gaussian_failure_prob=1e-5
            )
        evaluate_fit(split, theta, "cdp-gau", 0)
    finally:
        sys.setprofile(None)
    assert entered == Counter()


def test_private_rejects_unnormalized_data():
    rng = np.random.default_rng(60)
    ds = Dataset(X=rng.normal(size=(100, 3)) * 5.0, y=rng.normal(size=100))
    with pytest.raises(DataValidationError):
        run_private_irls(
            ds, IRLSConfig(iterations=2, weight_cap=5.0), _budget(), Mechanism.LAPLACE, _stream(0, 0)
        )


def test_private_rejects_mechanism_none():
    ds = _random_dataset(105, n=50, d=2)
    for label in ("none", "bogus"):
        with pytest.raises(ValueError):
            run_private_irls(
                ds, IRLSConfig(iterations=2, weight_cap=5.0), _budget(), label, _stream(0, 0)
            )


def test_private_ridge_fallback_is_recorded():
    # duplicated column makes every exact Gram singular
    rng = np.random.default_rng(61)
    col = rng.normal(size=(150, 1))
    X = np.hstack([col, col])
    ds = normalize_dataset(X, rng.normal(size=150))
    theta, trace = run_exact_irls(ds, IRLSConfig(iterations=3, weight_cap=10.0))
    assert all(st.used_ridge for st in trace)
    assert np.isfinite(theta).all()


def test_all_mechanism_regime_combinations_run():
    ds = _random_dataset(106, n=200, d=3)
    cfg = IRLSConfig(iterations=2, weight_cap=10.0)
    for regime in Regime:
        for mech in (Mechanism.LAPLACE, Mechanism.GAUSSIAN):
            budget = _budget(regime)
            theta, trace, plan = run_private_irls(ds, cfg, budget, mech, _stream(2, 0))
            assert np.isfinite(theta).all()
            assert plan == plan_for_budget(budget, cfg.iterations)


def test_solves_on_one_dataset_share_their_first_step(monkeypatch):
    ds = _random_dataset(107, n=400, d=5)
    cfg = IRLSConfig(iterations=4, weight_cap=20.0)

    def solves(data, config):
        return (
            lambda: run_private_irls(data, config, _budget(), Mechanism.LAPLACE, _stream(4, 0)),
            lambda: run_private_irls(
                data, config, _budget(Regime.ADVANCED), Mechanism.GAUSSIAN, _stream(5, 0),
                gaussian_failure_prob=1e-6,
            ),
            lambda: run_exact_irls(data, config),
        )

    def outputs(result):
        theta, trace = result[:2]
        return theta.tobytes(), [
            (s.theta.tobytes(), s.weights.tobytes(), s.used_ridge, s.releases)
            for s in trace
        ]

    def first_step_calls(cap):
        w0 = weights_from_residuals(residuals(ds, np.zeros(ds.d)), cap).tobytes()
        return sum(w.tobytes() == w0 for w in calls)

    alone = [outputs(solves(_fresh_copy(ds), cfg)[i]()) for i in range(3)]
    calls = _moment_calls(monkeypatch)
    assert [outputs(solve()) for solve in solves(ds, cfg)] == alone
    assert first_step_calls(cfg.weight_cap) == 1
    _, weights, moments = vars(ds)["_first_step"][0]
    assert not any(a.flags.writeable for a in (weights, *moments))

    # Another cap, or a float32 cap equal in value but not in its clamp,
    # builds its own first step, which replaces the entry.
    for cap in (10.0, np.float32(20.0), 20.0):
        other = IRLSConfig(iterations=4, weight_cap=cap)
        expected = outputs(run_exact_irls(_fresh_copy(ds), other))
        calls.clear()
        assert outputs(run_exact_irls(ds, other)) == expected
        assert first_step_calls(cap) == 1


def test_threads_sharing_a_dataset_get_the_steps_they_would_get_alone():
    # Four threads on two cores, switching as often as possible, solve on
    # one dataset at two caps, so each keeps replacing the other's entry.
    # A thread that read one cap's key with another's step, or a step
    # half-replaced, would return other bits than the same solve alone.
    ds = _random_dataset(108, n=300, d=4)
    configs = [IRLSConfig(iterations=3, weight_cap=cap) for cap in (5.0, 20.0)]
    expected = [run_exact_irls(_fresh_copy(ds), cfg)[0].tobytes() for cfg in configs]
    results, errors = [], []

    def worker(i):
        try:
            for j in range(30):
                k = (i + j) % 2
                results.append(run_exact_irls(ds, configs[k])[0].tobytes() == expected[k])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 4 * 30 and all(results)
    assert vars(ds)["_first_step"][0][0] in {(float, cfg.weight_cap) for cfg in configs}


# --- edge-case contract --------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(2, 10),
    d=st.integers(1, 12),
    shape=st.sampled_from(["duplicate rows", "zero column", "rounded"]),
    zero_y=st.booleans(),
    log_cap=st.floats(-300.0, 300.0),
    log_eps=st.floats(-300.0, 300.0),
    regime=st.sampled_from(Regime),
    log_delta=st.floats(-300.0, -0.01),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_case_contract(
    n, d, shape, zero_y, log_cap, log_eps, regime, log_delta, iterations, seed
):
    # Degenerate data, extreme caps and budgets: every solver returns a
    # finite theta or raises MomentSolveError/ValueError, nothing else;
    # numpy's LinAlgError subclasses ValueError, so it is refused by name.
    # Only finiteness is asserted; some singular B still solve without the
    # ridge, to a very large theta.
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, d))
    if shape == "duplicate rows":
        X[n // 2:] = X[: n - n // 2]
    elif shape == "zero column":
        X[:, gen.integers(d)] = 0.0
    else:
        X = np.round(X)
    max_norm = np.linalg.norm(X, axis=1).max()
    if max_norm > 0.0:
        X /= max_norm
    y = np.zeros(n) if zero_y else gen.uniform(-1.0, 1.0, n)
    ds = Dataset(X, y)
    config = IRLSConfig(iterations, 10.0**log_cap)
    delta = 10.0**log_delta if regime is Regime.ADVANCED else 0.0
    budget = PrivacyBudget(10.0**log_eps, delta, regime)
    runs = [lambda: run_exact_irls(ds, config)[0]]
    for mechanism in Mechanism:
        runs.append(
            lambda m=mechanism: run_private_irls(ds, config, budget, m, _stream(seed, 0))[0]
        )
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                theta = run()
            except (MomentSolveError, ValueError) as exc:
                assert not isinstance(exc, np.linalg.LinAlgError), exc
                continue
        assert np.isfinite(theta).all()
