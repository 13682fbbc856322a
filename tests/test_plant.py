import numpy as np
import pytest

from asynctrig.matrix_core import mat_exp, spectral_norm, zoh_pair
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    horizon_transition,
    selection_matrices,
    step_matrix,
    transition_table,
)
from helpers import A2, B2, K2, benchmark_plant


def test_plant_model_validation():
    with pytest.raises(ValueError):
        PlantModel(A=np.ones((2, 3)), B=B2, K=K2, blocks=(1, 1))
    with pytest.raises(ValueError):
        PlantModel(A=A2, B=B2, K=K2, blocks=(1,))  # blocks must sum to n
    with pytest.raises(ValueError):
        PlantModel(A=A2, B=B2, K=K2, blocks=(0, 2))
    with pytest.raises(ValueError):
        PlantModel(A=A2, B=B2, K=np.ones((1, 3)), blocks=(1, 1))
    with pytest.raises(ValueError):
        PlantModel(A=A2, B=B2, K=K2, blocks=(1, 1), w_max=1.0)  # bound without channel
    with pytest.raises(ValueError):
        PlantModel(A=A2, B=B2, K=K2, blocks=(1, 1), D=np.ones((2, 1)))  # channel without bound
    p = benchmark_plant()
    assert p.n == 2 and p.m == 2 and p.m_u == 1


def test_selection_matrices():
    M0, N0 = selection_matrices(0, (1, 1))
    assert np.array_equal(M0, np.zeros((2, 2)))
    assert np.array_equal(N0, np.eye(2))
    M1, N1 = selection_matrices(1, (1, 2))
    assert np.array_equal(M1, np.diag([1.0, 0.0, 0.0]))
    M2, N2 = selection_matrices(2, (1, 2))
    assert np.array_equal(M2, np.diag([0.0, 1.0, 1.0]))
    for a in range(3):
        M, N = selection_matrices(a, (1, 2))
        assert np.array_equal(M + N, np.eye(3))
    with pytest.raises(ValueError, match="exceeds sensor count"):
        selection_matrices(3, (1, 2))


def test_step_matrix_blocks():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    for a in range(3):
        M_sel, N_sel = selection_matrices(a, (1, 1))
        G = step_matrix(dp, a)
        assert G.shape == (4, 4)
        assert np.array_equal(G[2:, :2], M_sel)
        assert np.array_equal(G[2:, 2:], N_sel)
        assert np.allclose(G[:2, :2], dp.A_T + dp.BK_T @ M_sel)
        assert np.allclose(G[:2, 2:], dp.BK_T @ N_sel)


def test_step_matrix_idle_never_reads():
    # idle keeps the estimate: eta -> (A_T x + B_T K xhat, xhat)
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.2)
    G = step_matrix(dp, 0)
    eta = np.array([1.0, -2.0, 0.5, 0.25])
    out = G @ eta
    assert np.allclose(out[2:], eta[2:])
    assert np.allclose(out[:2], dp.A_T @ eta[:2] + dp.BK_T @ eta[2:])


def test_horizon_transition_order():
    # actions apply left to right in time, so the first factor sits rightmost
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    got = horizon_transition(dp, (1, 2))
    want = step_matrix(dp, 2) @ step_matrix(dp, 1)
    assert np.allclose(got, want)
    with pytest.raises(ValueError):
        horizon_transition(dp, ())


def test_transition_table_matches_direct_products():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.25)
    horizons = [(0,), (1, 2), (2, 0, 1)]
    table = transition_table(dp, horizons)
    for i, s in enumerate(horizons):
        assert np.allclose(table[i], horizon_transition(dp, s))


def test_transition_table_rows_equal_horizon_transition_exactly():
    # mixed lengths out of order, one horizon listed twice, none shorter than 3
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.25)
    horizons = [(2, 0, 1, 1), (1, 2, 0), (0, 0, 0, 2, 1), (1, 2, 0), (2, 2, 2), (0, 1, 2, 1)]
    table = transition_table(dp, horizons)
    assert table.shape == (len(horizons), 4, 4)
    for Phi, s in zip(table, horizons):
        assert np.array_equal(Phi, horizon_transition(dp, s)), s


def test_discretization_matches_zoh_pair():
    plant = benchmark_plant()
    dp = DiscretePlant.from_plant(plant, 0.297)
    A_T, B_T = zoh_pair(plant.A, plant.B, 0.297)
    assert np.allclose(dp.A_T, A_T)
    assert np.allclose(dp.B_T, B_T)
    assert np.allclose(dp.BK_T, B_T @ K2)


def test_disturbance_bound_zero_dynamics_exact():
    # A = 0, D = e1: integrand norm is constant 1, so the bound is w_max T
    plant = PlantModel(
        A=np.zeros((2, 2)),
        B=B2,
        K=np.zeros((1, 2)),
        blocks=(1, 1),
        D=np.array([[1.0], [0.0]]),
        w_max=2.0,
    )
    assert disturbance_step_bound(plant, 0.4) == pytest.approx(0.8, rel=1e-12)


def test_disturbance_bound_matches_trapezoid_refinement():
    plant = benchmark_plant(perturbed=True)
    T = 0.205
    got = disturbance_step_bound(plant, T)
    nodes = np.linspace(0.0, T, 20_001)
    f = np.array([spectral_norm(mat_exp(plant.A, s) @ plant.D) for s in nodes])
    want = np.trapezoid(f, nodes)
    assert got == pytest.approx(want, rel=1e-6)
    assert got >= want * (1 - 1e-9)  # the Richardson term keeps it an upper bound


def test_disturbance_bound_requires_channel():
    with pytest.raises(ValueError):
        disturbance_step_bound(benchmark_plant(), 0.2)


def test_growth_constants_recursions():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    horizons = [(0,), (1, 2), (1, 2, 1), (2, 2, 1, 0)]
    C, chi_sq, chi_lin = growth_constants(dp, horizons, varpi)
    assert C == pytest.approx(max(spectral_norm(step_matrix(dp, a)) for a in range(3)))
    for l in (1, 2, 3, 4):
        lin = varpi * sum(C**q for q in range(l))
        assert chi_lin[l] == pytest.approx(lin, rel=1e-12)
        assert chi_sq[l] == pytest.approx(lin**2, rel=1e-12)


def test_growth_constants_frozen_benchmark_values():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    assert varpi == pytest.approx(0.32177, rel=1e-4)
    C, chi_sq, chi_lin = growth_constants(dp, [(1, 2, 1), (1, 2, 1, 0, 0, 0)], varpi)
    assert C == pytest.approx(2.2696, rel=1e-4)
    assert chi_sq[3] == pytest.approx(7.342, rel=1e-3)
    assert chi_sq[6] == pytest.approx(1182.602, rel=1e-3)
    assert chi_lin[6] == pytest.approx(34.389, rel=1e-3)
