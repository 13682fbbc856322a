import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from asynctrig.errors import InfeasibleError
from asynctrig.matrix_core import (
    decay_form,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
    zoh_pair,
)
from asynctrig.partition import RegionForms, region_multipliers
from helpers import A2, B2, power_iteration_norm, simpson_zoh_B, sprocedure_multiplier, taylor_expm


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


def test_symmetrize():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == pytest.approx(1.0)


def test_decay_form_on_one_matrix_and_on_a_stack():
    rng = np.random.default_rng(5)
    phis = rng.normal(size=(3, 4, 4))
    P, A = symmetrize(rng.normal(size=(4, 4))), symmetrize(rng.normal(size=(4, 4)))
    w = rng.normal(size=3)
    stack = decay_form(phis, P, w, A)
    assert stack.shape == (3, 4, 4)
    assert np.array_equal(stack, np.swapaxes(stack, 1, 2))
    for k in range(3):
        assert np.array_equal(stack[k], decay_form(phis[k], P, w[k], A))  # stacked and one at a time, bit for bit
        np.testing.assert_allclose(stack[k], phis[k].T @ A @ phis[k] - w[k] * P, rtol=0, atol=1e-12)
    assert np.array_equal(decay_form(phis[0], P, w[0]), decay_form(phis[0], P, w[0], P))  # A defaults to P
    assert np.array_equal(decay_form(np.eye(2), np.eye(2), 0.25), 0.75 * np.eye(2))


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


def _multiplier_draw(rng, dim: int):
    """A random symmetric pair (S, Q) with O(1) entries in S.

    Half the draws are feasible by construction at eps0 = 10^U(-12, 12):
    S + eps0 Q = -R with R > 0, so the feasible interval can lie far outside
    any fixed search range.  Half the Q are singular, zero outside a leading
    block, as the perturbed region test's Q is.
    """
    Q0 = symmetrize(rng.normal(size=(dim, dim)))
    if rng.random() < 0.5:
        k = int(rng.integers(1, dim))
        Q0[k:, :] = 0.0
        Q0[:, k:] = 0.0
    if rng.random() < 0.5:
        G = rng.normal(size=(dim, dim))
        R = G @ G.T / dim + 10.0 ** rng.uniform(-3.0, 0.0) * np.eye(dim)
        eps0 = 10.0 ** rng.uniform(-12.0, 12.0)
        return -Q0 - R, Q0 / eps0
    return symmetrize(rng.normal(size=(dim, dim))), Q0 * 10.0 ** rng.uniform(-6.0, 6.0)


def _region_multiplier(S, Q):
    """region_multipliers on a one-horizon stack whose full matrix is S itself."""
    return region_multipliers(RegionForms(np.arange(1), S[None], S[None], 1.0), Q)[0]


@pytest.mark.parametrize("dim", [4, 9])
def test_sprocedure_multiplier_finds_what_a_dense_scan_finds(dim):
    # oracle: lambda_max(S + eps Q) on 50 points per decade over 1e-14..1e14;
    # the one-pair oracle and the package's batched region test both face it
    rng = np.random.default_rng(2024 + dim)
    grid = np.logspace(-14.0, 14.0, 1401)
    scanned_feasible = outside_old_range = 0
    for _ in range(150):
        S, Q = _multiplier_draw(rng, dim)
        lmax = np.linalg.eigvalsh(S[None] + grid[:, None, None] * Q[None])[:, -1]
        hits = grid[lmax <= 0.0]
        eps = sprocedure_multiplier(S, Q)
        batched = _region_multiplier(S, Q)
        assert np.isnan(batched) == (eps is None)
        if hits.size:
            scanned_feasible += 1
            outside_old_range += bool(hits.min() > 1e8 or hits.max() < 1e-8)
            assert eps is not None
            # an eigenvalue 1e-6 that no multiplier moves: a near miss
            assert sprocedure_multiplier(block_diag(S, 1e-6), block_diag(Q, 0.0)) is None
            assert np.isnan(_region_multiplier(block_diag(S, 1e-6), block_diag(Q, 0.0)))
        for found in (eps, None if np.isnan(batched) else batched):
            if found is not None:
                assert found > 0
                assert sym_eig_bounds(S + found * Q)[1] <= 0.0
    # the draws must exercise both verdicts and multipliers no log grid over
    # [1e-8, 1e8] can reach
    assert 30 <= scanned_feasible <= 120
    assert outside_old_range >= 10


def _tol_knobs(tree: ast.AST) -> list:
    """The module-level names ending in _TOL, then the functions with a
    parameter, and the classes (as Class.tol) with an annotated field, named
    `tol` in tree."""
    found = [
        t.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in ast.walk(node)
        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store) and t.id.endswith("_TOL")
    ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if any(arg is not None and arg.arg == "tol" for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]):
                found.append(getattr(node, "name", "<lambda>"))
        elif isinstance(node, ast.ClassDef):
            found += [f"{node.name}.tol" for f in node.body if isinstance(f, ast.AnnAssign) and getattr(f.target, "id", None) == "tol"]
    return found


def test_no_check_takes_a_tolerance_of_its_own():
    # every certificate, region and runtime verdict reads its inequality as
    # computed (the unperturbed decay at the PSD_MARGIN margin): a tolerance
    # option or constant is a second authority on what a certificate claims
    src = Path(__file__).resolve().parent.parent / "src" / "asynctrig"
    found = {path.name: _tol_knobs(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}
    assert {name: knobs for name, knobs in found.items() if knobs} == {}
    # the scan sees module-level *_TOL names, parameters of every kind and
    # annotated fields, and passes margins, selection windows and locals
    planted = (
        "PSD_TOL = 1e-9\nPSD_MARGIN = 1e-9\nSIGMA_STAR_RTOL = 1e-6\nSLACK_TOL = 1e-12\nLO_TOL, HI = 0.0, PSD_MARGIN\n"
        "def f(S, tol=1e-9): ...\ndef g(*, tol): ...\nclass F:\n    tol: float\n    S: object\n"
        "def h(S):\n    tol = 1\n    X_TOL = 2\n    return lambda tol: tol\n"
    )
    assert _tol_knobs(ast.parse(planted)) == ["PSD_TOL", "SLACK_TOL", "LO_TOL", "f", "g", "F.tol", "<lambda>"]
