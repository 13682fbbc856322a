import numpy as np
import pytest

from asynctrig.errors import InfeasibleError
from asynctrig.matrix_core import (
    is_psd,
    is_schur,
    mat_exp,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
    zoh_pair,
)
from helpers import A2, B2, power_iteration_norm, simpson_zoh_B, taylor_expm


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 5)
        A = rng.normal(scale=2.0, size=(n, n))
        t = float(rng.uniform(0.0, 1.5))
        got = mat_exp(A, t)
        want = taylor_expm(A * t)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_mat_exp_semigroup():
    rng = np.random.default_rng(12)
    for _ in range(30):
        A = rng.normal(size=(3, 3))
        s, t = rng.uniform(0.05, 0.8, size=2)
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, s) @ mat_exp(A, t)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_mat_exp_zero_time_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3)), 0.0), np.eye(3))


def test_mat_exp_rejects_nonfinite():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), np.inf)


def test_zoh_pair_zero_dynamics():
    # A = 0 integrates to (I, T B) exactly
    A_T, B_T = zoh_pair(np.zeros((2, 2)), B2, 0.5)
    assert np.allclose(A_T, np.eye(2), atol=1e-15)
    assert np.allclose(B_T, 0.5 * B2, atol=1e-15)


def test_zoh_pair_matches_quadrature_oracle():
    A_T, B_T = zoh_pair(A2, B2, 0.3)
    assert np.allclose(A_T, taylor_expm(A2 * 0.3), rtol=1e-12)
    assert np.allclose(B_T, simpson_zoh_B(A2, B2, 0.3), rtol=1e-10, atol=1e-12)


def test_zoh_pair_invertible_A_closed_form():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    B = rng.normal(size=(3, 2))
    T = 0.2
    A_T, B_T = zoh_pair(A, B, T)
    want = np.linalg.solve(A, (A_T - np.eye(3)) @ B)
    assert np.allclose(B_T, want, rtol=1e-10)


def test_zoh_pair_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        zoh_pair(A2, B2, 0.0)
    with pytest.raises(ValueError):
        zoh_pair(A2, B2, -0.1)


def test_spectral_radius_and_schur():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)
    rot = 1.1 * np.array([[0.0, -1.0], [1.0, 0.0]])  # complex pair of modulus 1.1
    assert spectral_radius(rot) == pytest.approx(1.1, rel=1e-12)
    assert is_schur(np.diag([0.99, 0.5]))
    assert not is_schur(np.diag([1.0, 0.5]))


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(21)
    for _ in range(20):
        M = rng.normal(size=rng.integers(1, 6, size=2))
        assert spectral_norm(M) == pytest.approx(power_iteration_norm(M), rel=1e-9)


def test_sym_eig_bounds_diagonal():
    lo, hi = sym_eig_bounds(np.diag([3.0, -1.0, 2.0]))
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(3.0)


def test_sym_eig_bounds_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig_bounds(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_bounds_accepts_roundoff_asymmetry():
    S = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    lo, hi = sym_eig_bounds(S)
    assert lo < hi


def test_is_psd():
    assert is_psd(np.eye(2))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1e-6]))
    assert is_psd(np.diag([1.0, -1e-10]))  # within default tolerance


def test_symmetrize():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == pytest.approx(1.0)


def test_lyapunov_residual_random_schur():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        Phi = rng.normal(size=(n, n))
        Phi *= 0.95 / max(spectral_radius(Phi), 1e-3)
        rho = float(rng.uniform(spectral_radius(Phi) ** 2 + 0.01, 1.0))
        Q = np.eye(n)
        P = solve_discrete_lyapunov(Phi, rho, Q)
        resid = Phi.T @ P @ Phi - rho * P + Q
        assert np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(Q, "fro")
        lo, _ = sym_eig_bounds(P)
        assert lo > 0  # unit right-hand side forces definiteness


def test_lyapunov_rejects_bad_rate_and_radius():
    Phi = np.diag([0.9, 0.5])
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(Phi, 0.0, np.eye(2))
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(Phi, 1.5, np.eye(2))
    with pytest.raises(InfeasibleError):
        solve_discrete_lyapunov(Phi, 0.81, np.eye(2))  # sr^2 == rho exactly
    with pytest.raises(InfeasibleError):
        solve_discrete_lyapunov(np.diag([1.01, 0.2]), 1.0, np.eye(2))


def test_quadrature_oracle_batches_the_node_loop():
    # same arithmetic as a taylor_expm call per node, summed in node order
    A = np.array([[0.5, 4.0, -1.0], [-3.0, 1.0, 2.0], [1.5, -2.0, -4.0]])
    B = np.array([[1.0], [-0.5], [2.0]])
    T, panels = 0.4, 60
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= T / (2 * panels) / 3.0
    acc = np.zeros_like(B)
    for wi, s in zip(w, np.linspace(0.0, T, 2 * panels + 1)):
        acc = acc + wi * (taylor_expm(A * s) @ B)
    np.testing.assert_array_equal(simpson_zoh_B(A, B, T, panels=panels), acc)

