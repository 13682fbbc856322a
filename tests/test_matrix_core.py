import ast
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from asynctrig.errors import InfeasibleError
from asynctrig.matrix_core import (
    decay_form,
    definite,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sprocedure_multipliers,
    sym_eig_bounds,
    symmetrize,
    zoh_pair,
)
from asynctrig.partition import RegionForms, region_multipliers
from asynctrig.presets import PRESET_NAMES, preset_config
from asynctrig.simulation import prepare
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
    # every certificate and region verdict is decided by `definite`, and every
    # runtime verdict reads its inequality as computed (the unperturbed decay at
    # the PSD_MARGIN margin): a tolerance option or constant is a second
    # authority on what a certificate claims
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


# 150 examples, drawn the same way on every run
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _fractions(A) -> np.ndarray:
    return np.frompyfunc(Fraction, 1, 1)(A)


@st.composite
def _near_singular_stacks(draw):
    """(stack, Gram stack, singular), d <= 8.  Each Gram member is X X' for an
    integer X, so its float entries are exact: X is d x r with r < d, which
    makes it singular, or unit lower triangular, with det X = 1.  The stack
    shifts each by 0 or +/-tiny on the diagonal, adds a random symmetric
    member, and at times makes one member non-finite."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = rng.integers(0, d + 1, size=draw(st.integers(1, 5)))
    factors = [np.tril(rng.integers(-4, 5, size=(d, d)), -1) + np.eye(d) if r == d else rng.integers(-4, 5, size=(d, r)) for r in ranks]
    grams = np.array([X @ X.T for X in factors], dtype=float)
    scale = 1.0 + np.abs(grams).max(axis=(1, 2))
    shifts = rng.choice([0.0, 1.0, -1.0], size=len(ranks)) * 10.0 ** rng.uniform(-18, -6, size=len(ranks)) * scale
    stack = grams + shifts[:, None, None] * np.eye(d)
    stack = np.concatenate([stack, symmetrize(rng.normal(size=(d, d)))[None] * 10.0 ** rng.uniform(-3, 3)])
    if draw(st.booleans()):
        bad = rng.integers(0, len(stack))
        i, j = rng.integers(0, d, size=2)
        stack[bad, i, j] = stack[bad, j, i] = rng.choice([np.inf, -np.inf, np.nan])
    return stack, grams, ranks < d


@PROPERTY
@given(_near_singular_stacks())
def test_definite_is_conservative_on_floats_and_exact_on_fractions(drawn):
    stack, grams, singular = drawn

    def no_float(self):
        raise AssertionError("a Fraction was converted to float")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = definite(stack)
        with mock.patch.object(Fraction, "__float__", no_float):
            exact = definite(stack.astype(object))  # each float entry read as its Fraction
            tiny = Fraction(1, 10**40)  # far below any float shift of these entries
            exact_grams = _fractions(grams)
            assert (definite(exact_grams) == ~singular).all()
            assert definite(exact_grams, -tiny).all()
            assert (definite(exact_grams, tiny) == ~singular).all()
    assert exact.dtype == floats.dtype == bool and exact.shape == floats.shape == (len(stack),)
    assert not (floats & ~exact).any()  # the float verdict never accepts what the exact one rejects
    finite = np.isfinite(stack).all(axis=(1, 2))
    assert not exact[~finite].any() and not floats[~finite].any()
    lam = np.linalg.eigvalsh(stack[finite])[:, 0]
    clear = np.abs(lam) > 1e-8 * np.linalg.norm(stack[finite], 2, axis=(1, 2))
    assert (floats[finite][clear] == (lam[clear] > 0)).all()


def test_definite_reads_its_floor_and_the_shape_of_the_stack():
    assert definite(np.eye(3)).shape == ()
    assert definite(np.eye(3)) and not definite(np.eye(3), 1.0) and definite(np.eye(3), 0.999)
    stack = np.array([np.eye(2), 2 * np.eye(2), -np.eye(2)]).reshape(3, 1, 2, 2)
    np.testing.assert_array_equal(definite(stack, np.array([[1.5], [1.5], [-2.0]])), [[False], [True], [True]])
    assert not definite(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
    assert not definite(_fractions(np.array([[1.0, 0.5], [0.4, 1.0]])))
    # an exactly singular matrix fails, however its float eigenvalues read
    ones = np.ones((3, 3))
    assert not definite(ones) and not definite(_fractions(ones))
    assert definite(_fractions(ones) + _fractions(np.eye(3)) * Fraction(1, 10**30))


def test_overflowing_candidates_are_rejected_without_a_warning():
    # S + eps Q overflows at every candidate, and overflowed entries decide nothing
    # (the last row's candidate past its pencil end 1e308 is itself inf)
    S = np.array([np.diag([-1e308, -1.0]), np.diag([1e308, 1e308]), -np.eye(2)])
    Q = np.diag([-1e308, 0.0])
    with np.errstate(over="ignore"):
        overflowed = -(S + Q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(sprocedure_multipliers(S, Q, np.array([[np.nan, np.nan], [np.nan, np.nan], [1e308, np.nan]]))).all()
        assert not definite(overflowed).any()
        # 1e300 / sqrt(1e-300) overflows inside the loop; then an inf and a NaN entry
        huge = np.array([[[1e-300, 1e300], [1e300, 1e300]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]])
        assert not definite(huge).any()
        assert not definite(huge.astype(object)).any()


def test_no_verdict_calls_an_eigensolver(monkeypatch):
    # every yes/no answer in prepare comes from `definite`; eigenvalues are
    # still read where their value is used (mu, young_gain, the synthesis scale)
    verdicts = {"sprocedure_multipliers", "region_multipliers", "reverify_certificate", "perturbed_forms"}
    package = Path(sys.modules["asynctrig"].__file__).parent
    eigvalsh = np.linalg.eigvalsh
    callers = []

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        while frame and (Path(frame.f_code.co_filename).parent != package or frame.f_code.co_name == "sym_eig_bounds"):
            frame = frame.f_back
        callers.append(frame.f_code.co_name if frame else None)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for name in PRESET_NAMES:
        prepare(preset_config(name))
    assert {"ultimate_bound", "young_gain"} <= set(callers)
    assert verdicts.isdisjoint(callers), callers
