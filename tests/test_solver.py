"""IRLS loop, weights, moments, and the guarded linear solve."""

import json
import math

import numpy as np
import pytest
from _oracles import grid_l1_minimizer, naive_moments

import dpirls.solver as solver_module
from dpirls.accountant import PrivacyBudget, Regime
from dpirls.data import DataValidationError, Dataset, normalize_dataset
from dpirls.mechanisms import SeededRng
from dpirls.solver import (
    IRLSConfig,
    Mechanism,
    MomentSolveError,
    compute_moments,
    residuals,
    run_exact_irls,
    run_private_irls,
    serialize_trace,
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
    ds = _random_dataset(11, n=500, d=8)
    w = np.random.default_rng(12).uniform(0.01, 100.0, size=ds.n)
    B = compute_moments(ds, w).B
    assert np.array_equal(B, B.T)


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
    # Cholesky + two triangular solves leave at most an ulp of rounding
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


def test_solve_step_validation():
    with pytest.raises(ValueError, match="shape"):
        solve_step(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        solve_step(np.array([np.nan, 0.0]), np.eye(2))


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
    # and the reported L1 objective improves overall
    assert trace[-1].objective <= trace[0].objective + 1e-12


def test_objective_is_mean_absolute_residual():
    # every state: the objective is that state's own mean |residual|, and
    # the weights come from the previous iterate (theta_0 for the first)
    ds = _random_dataset(3, n=50, d=2)
    cfg = IRLSConfig(iterations=4, weight_cap=10.0, theta_init=np.array([0.3, -0.1]))
    _, trace = run_exact_irls(ds, cfg)
    prev = cfg.theta_init
    for state in trace:
        expected = float(np.mean(np.abs(residuals(ds, state.theta))))
        assert state.objective == pytest.approx(expected, rel=0, abs=0)
        np.testing.assert_array_equal(
            state.weights, weights_from_residuals(residuals(ds, prev), cfg.weight_cap)
        )
        prev = state.theta


def test_no_early_stopping():
    # trivially converged after one step, but the trace still has J states
    ds = Dataset(X=np.eye(3) * 0.5, y=np.array([0.25, 0.25, 0.25]))
    _, trace = run_exact_irls(ds, IRLSConfig(iterations=30, weight_cap=5.0))
    assert len(trace) == 30
    assert [st.iteration for st in trace] == list(range(1, 31))


def test_exact_solver_accepts_unnormalized_data():
    rng = np.random.default_rng(55)
    ds = Dataset(X=rng.normal(size=(100, 3)) * 5.0, y=rng.normal(size=100) * 9.0)
    theta, _ = run_exact_irls(ds, IRLSConfig(iterations=5, weight_cap=10.0))
    assert np.isfinite(theta).all()


def test_theta_init_is_respected():
    ds = _random_dataset(66, n=120, d=3)
    init = np.array([5.0, -5.0, 5.0])
    _, trace1 = run_exact_irls(ds, IRLSConfig(iterations=1, weight_cap=10.0, theta_init=init))
    _, trace0 = run_exact_irls(ds, IRLSConfig(iterations=1, weight_cap=10.0))
    # different starting residuals -> different first-step weights
    assert not np.array_equal(trace1[0].weights, trace0[0].weights)
    with pytest.raises(ValueError, match="theta_init"):
        run_exact_irls(ds, IRLSConfig(iterations=1, weight_cap=10.0, theta_init=np.zeros(7)))


def test_config_validation():
    with pytest.raises(ValueError):
        IRLSConfig(iterations=0)
    with pytest.raises(ValueError):
        IRLSConfig(weight_cap=-1.0)
    with pytest.raises(ValueError):
        IRLSConfig(theta_init=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        IRLSConfig(theta_init=np.array([np.inf]))


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
        theta, trace, plan = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, SeededRng(17))
        out.append((theta, trace, plan))
    assert np.array_equal(out[0][0], out[1][0])
    for s1, s2 in zip(out[0][1], out[1][1]):
        assert np.array_equal(s1.theta, s2.theta)
        assert s1.objective == s2.objective
    other, _, _ = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, SeededRng(18))
    assert not np.array_equal(out[0][0], other)


def test_private_release_accounting():
    ds = _random_dataset(101, n=300, d=4)
    cfg = IRLSConfig(iterations=6, weight_cap=20.0)
    _, trace, plan = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, SeededRng(3))
    assert plan.total_releases == 12
    assert len(trace) == 6
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
        ds, cfg, _budget(), Mechanism.GAUSSIAN, SeededRng(5), gaussian_failure_prob=1e-6
    )
    assert np.isfinite(theta).all()
    assert trace[0].releases[0].mechanism == "gaussian"
    with pytest.raises(ValueError):
        run_private_irls(
            ds, cfg, _budget(), Mechanism.GAUSSIAN, SeededRng(5), gaussian_failure_prob=0.0
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
            theta, _, _ = run_private_irls(ds, cfg, big, mech, SeededRng(1))
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
    theta, _, _ = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, SeededRng(9))
    exact, _ = run_exact_irls(ds, cfg)
    assert calls == {"laplace": 5, "wishart": 5}
    np.testing.assert_array_equal(theta, exact)


def test_private_rejects_unnormalized_data():
    rng = np.random.default_rng(60)
    ds = Dataset(X=rng.normal(size=(100, 3)) * 5.0, y=rng.normal(size=100))
    with pytest.raises(DataValidationError):
        run_private_irls(
            ds, IRLSConfig(iterations=2, weight_cap=5.0), _budget(), Mechanism.LAPLACE, SeededRng(0)
        )


def test_private_rejects_mechanism_none():
    ds = _random_dataset(105, n=50, d=2)
    for label in ("none", "bogus"):
        with pytest.raises(ValueError):
            run_private_irls(
                ds, IRLSConfig(iterations=2, weight_cap=5.0), _budget(), label, SeededRng(0)
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
            theta, trace, plan = run_private_irls(
                ds, cfg, _budget(regime), mech, SeededRng(2)
            )
            assert np.isfinite(theta).all()
            assert plan.regime is regime


# --- trace serialization -------------------------------------------------

def test_serialize_exact_trace():
    ds = _random_dataset(107, n=60, d=2)
    _, trace = run_exact_irls(ds, IRLSConfig(iterations=3, weight_cap=5.0))
    lines = serialize_trace(trace).strip().split("\n")
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["iteration"] == i
        assert rec["mechanism"] == "none"
        assert rec["eps_prime"] is None
        assert isinstance(rec["objective"], float)
        assert rec["ridge_fallback"] is False


def test_serialize_private_trace():
    ds = _random_dataset(108, n=200, d=3)
    cfg = IRLSConfig(iterations=4, weight_cap=10.0)
    _, trace, plan = run_private_irls(ds, cfg, _budget(), Mechanism.LAPLACE, SeededRng(11))
    text = serialize_trace(trace)
    lines = text.strip().split("\n")
    assert len(lines) == 8  # two releases per iteration
    mechs = [json.loads(l)["mechanism"] for l in lines]
    assert mechs == ["laplace", "wishart"] * 4
    for line in lines:
        rec = json.loads(line)
        assert rec["eps_prime"] == plan.eps_prime
    # byte determinism of the serialization itself
    assert serialize_trace(trace) == text
