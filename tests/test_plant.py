import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from asynctrig.horizons import enumerate_horizons
from asynctrig.matrix_core import spectral_norm, zoh_pair
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    refresh_masks,
    step_matrices,
    transition_table,
)
from asynctrig.presets import preset_config
from asynctrig.simulation import _step_product
from helpers import (
    A2,
    B2,
    K2,
    action_codes,
    benchmark_plant,
    horizon_transition,
    per_node_disturbance_bound,
    random_schur_stabilizable,
    wide_config,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


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
    # the selection S_a is diag(refresh_masks row a): row a marks sensor block a, idle (row 0) nothing
    np.testing.assert_array_equal(refresh_masks((1, 1)), [[0, 0], [1, 0], [0, 1]])
    np.testing.assert_array_equal(refresh_masks((1, 2)), [[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    np.testing.assert_array_equal(refresh_masks((2, 1, 3)).sum(axis=1), [0, 2, 1, 3])
    assert refresh_masks((2, 1)).dtype == bool


def test_step_matrix_blocks():
    # the 0/1 selection S_a = diag(mask a) and its complement, in the paper's block layout
    dp = DiscretePlant.from_plant(PlantModel(A=np.diag([0.5, -1.0, 2.0]), B=np.ones((3, 1)),
                                             K=np.array([[1.0, -2.0, 0.5]]), blocks=(1, 2)), 0.3)
    steps = step_matrices(dp)
    assert steps.shape == (3, 6, 6)
    for G, mask in zip(steps, refresh_masks((1, 2))):
        M_sel = np.diag(mask.astype(float))
        N_sel = np.eye(3) - M_sel
        assert np.array_equal(G[3:, :3], M_sel)
        assert np.array_equal(G[3:, 3:], N_sel)
        assert np.array_equal(G[:3, :3], dp.A_T + dp.BK_T @ M_sel)
        assert np.array_equal(G[:3, 3:], dp.BK_T @ N_sel)


def test_step_matrix_idle_never_reads():
    # idle keeps the estimate: eta -> (A_T x + B_T K xhat, xhat)
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.2)
    G = step_matrices(dp)[0]
    eta = np.array([1.0, -2.0, 0.5, 0.25])
    out = G @ eta
    assert np.allclose(out[2:], eta[2:])
    assert np.allclose(out[:2], dp.A_T @ eta[:2] + dp.BK_T @ eta[2:])


def test_horizon_transition_order():
    # actions apply left to right in time, so the first factor sits rightmost
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    got = horizon_transition(dp, (1, 2))
    steps = step_matrices(dp)
    want = steps[2] @ steps[1]
    assert np.allclose(got, want)
    with pytest.raises(ValueError):
        horizon_transition(dp, ())


def test_transition_table_matches_direct_products():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.25)
    horizons = [(0,), (1, 2), (2, 0, 1)]
    table = transition_table(dp, action_codes(horizons))
    for i, s in enumerate(horizons):
        assert np.allclose(table[i], horizon_transition(dp, s))


def _assert_rows_are_horizon_transitions(dp, horizons):
    # bit for bit, the sign of a zero and any non-finite entry included
    table = transition_table(dp, action_codes(horizons))
    assert table.shape == (len(horizons), 2 * dp.n, 2 * dp.n)
    for Phi, s in zip(table, horizons):
        assert Phi.tobytes() == horizon_transition(dp, s).tobytes(), s
    return table


def test_transition_table_rows_equal_horizon_transition_exactly():
    # mixed lengths out of order, one horizon listed twice, none shorter than 3
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.25)
    horizons = [(2, 0, 1, 1), (1, 2, 0), (0, 0, 0, 2, 1), (1, 2, 0), (2, 2, 2), (0, 1, 2, 1)]
    _assert_rows_are_horizon_transitions(dp, horizons)


def _random_plants(seed, count):
    rng = np.random.default_rng(seed)
    while count:
        draw = random_schur_stabilizable(rng, n=int(rng.integers(2, 4)))
        if draw is not None:
            count -= 1
            yield rng, DiscretePlant.from_plant(*draw)


def test_transition_table_trie_on_random_lists_with_duplicates_and_shared_prefixes():
    for rng, dp in _random_plants(35, 12):
        every = enumerate_horizons(dp.m, 1, 5)
        picks = rng.integers(0, len(every), size=int(rng.integers(1, 400)))
        horizons = [every[i] for i in picks]  # drawn with replacement, in no order
        assert len(set(horizons)) < len(horizons) or len(horizons) < 40
        _assert_rows_are_horizon_transitions(dp, horizons)


def test_transition_table_trie_where_no_prefix_is_a_horizon():
    # l_min > 1: the trie's upper levels are prefixes only, held in rows of longer horizons
    for rng, dp in _random_plants(36, 8):
        l_min = int(rng.integers(2, 4))
        every = enumerate_horizons(dp.m, l_min, 5)
        horizons = [every[i] for i in rng.permutation(len(every))[: int(rng.integers(1, len(every)))]]
        _assert_rows_are_horizon_transitions(dp, horizons + horizons[:3])


def test_transition_table_trie_of_length_one_horizons():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.25)
    table = _assert_rows_are_horizon_transitions(dp, [(2,), (0,), (2,), (1,), (0,)])
    steps = step_matrices(dp)
    assert all(np.array_equal(Phi, steps[a]) for Phi, a in zip(table, (2, 0, 2, 1, 0)))


def test_transition_table_trie_keeps_the_overflowed_rows():
    # e^300 per period: the three-step products of this unstable plant overflow
    dp = DiscretePlant.from_plant(PlantModel(A=[[300.0]], B=[[1.0]], K=[[-1.0]], blocks=(1,)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _assert_rows_are_horizon_transitions(dp, enumerate_horizons(1, 1, 3))
    assert np.isfinite(table[:6]).all() and not np.isfinite(table[6:]).all()


def test_transition_table_holds_no_trie_level_beside_the_table():
    # the deepest level of the wide-horizons trie, 4**7 nodes, would be 4 such shares;
    # the table's other temporaries stay within one
    config = wide_config(15)
    dp = DiscretePlant.from_plant(config.plant, config.T)
    codes = action_codes(enumerate_horizons(dp.m, 1, 7))
    share = int((codes[-1] >= 0).sum()) // (dp.m + 1) * (2 * dp.n) ** 2 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phis = transition_table(dp, codes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= phis.nbytes + share, (peak - phis.nbytes) / share


def test_discretization_matches_zoh_pair():
    plant = benchmark_plant()
    dp = DiscretePlant.from_plant(plant, 0.297)
    A_T, B_T = zoh_pair(plant.A, plant.B, 0.297)
    assert np.allclose(dp.A_T, A_T)
    assert np.allclose(dp.B_T, B_T)
    assert np.allclose(dp.BK_T, B_T @ K2)


@st.composite
def _plants_and_states(draw):
    """A random plant with n <= 4 states and m_u <= 2 inputs, a period T, and a state, estimate and input."""
    n, m_u = draw(st.integers(1, 4)), draw(st.integers(1, 2))

    def matrix(rows, cols, bound):
        entries = st.floats(-bound, bound, allow_subnormal=False)
        return np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    plant = PlantModel(A=matrix(n, n, 3.0), B=matrix(n, m_u, 3.0), K=matrix(m_u, n, 3.0), blocks=(n,))
    T = draw(st.floats(1e-3, 1.0))
    return plant, T, matrix(1, n, 1e3)[0], matrix(1, n, 1e3)[0], matrix(1, m_u, 1e3)[0]


@PROPERTY
@given(_plants_and_states())
# one-element operands whose products are -0.0: ndarray.dot would keep that sign, @ reads +0.0
@example((PlantModel(A=[[-1.0]], B=[[1.0]], K=[[-2.0]], blocks=(1,)), 0.5, np.zeros(1), np.zeros(1), np.array([-0.0])))
def test_stored_zoh_matrices_are_contiguous_and_step_with_the_bits_of_the_strided_views(drawn):
    # simulate steps with `_step_product` on the stored copies (.dot where n > 1); the old loop
    # used @ on views into the augmented exponential, as tests/helpers.py::stepwise_simulate
    # still does on the copies, so only this property sees a layout- or product-induced bit change
    plant, T, x, xh, u = drawn
    n = plant.n
    dot = _step_product(n)
    dp = DiscretePlant.from_plant(plant, T)
    for M in (dp.A_T, dp.B_T, dp.BK_T):
        assert M.flags["C_CONTIGUOUS"]
    aug = np.zeros((n + plant.m_u, n + plant.m_u))
    aug[:n, :n], aug[:n, n:] = plant.A, plant.B
    E = expm(aug * T)
    A_view, B_view = E[:n, :n], E[:n, n:]
    step = dot(dp.A_T, x)
    step += dot(dp.B_T, u)
    pairs = [
        (dp.A_T, A_view),
        (dp.B_T, B_view),
        (dp.BK_T, B_view @ plant.K),
        (dot(plant.K, xh), plant.K @ xh),
        (dot(dp.B_T, u), B_view @ u),
        (dot(dp.A_T, x), A_view @ x),
        (step, A_view @ x + B_view @ u),
    ]
    for got, old in pairs:  # bit patterns, so a zero's sign counts too
        np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(old).view(np.int64))


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
    # one exponential per node, stacked into one expm call, and the batched 2-norm
    f = np.linalg.norm(expm(plant.A[None] * nodes[:, None, None]) @ plant.D, 2, axis=(1, 2))
    want = np.trapezoid(f, nodes)
    assert got == pytest.approx(want, rel=1e-6)
    assert got >= want * (1 - 1e-9)  # the Richardson error estimate keeps it above this reference, not a proof


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_disturbance_bound_equals_the_per_node_formula_on_presets(name):
    # the blocked node exponentials leave both perturbed presets' bound bit-equal
    cfg = preset_config(name)
    assert disturbance_step_bound(cfg.plant, cfg.T) == per_node_disturbance_bound(cfg.plant, cfg.T)


def test_disturbance_bound_matches_the_per_node_formula_on_random_plants():
    # a third upper-triangular A (scipy's triangular expm branch), n_w = 1 and 2,
    # and every fifth draw with ||A||_2 T in [20, 50]
    rng = np.random.default_rng(1717)
    for i in range(50):
        n, n_w = int(rng.integers(2, 6)), 1 + i % 2
        A = rng.standard_normal((n, n))
        if i % 3 == 0:
            A = np.triu(A)
        T = rng.uniform(0.05, 0.5)
        reach = rng.uniform(20.0, 50.0) if i % 5 == 0 else rng.uniform(0.1, 20.0)
        A *= reach / (np.linalg.norm(A, 2) * T)
        plant = PlantModel(
            A=A, B=np.ones((n, 1)), K=np.zeros((1, n)), blocks=(1,) * n,
            D=rng.standard_normal((n, n_w)), w_max=rng.uniform(0.1, 2.0),
        )
        want = per_node_disturbance_bound(plant, T)
        assert disturbance_step_bound(plant, T) == pytest.approx(want, rel=1e-12), (i, n, n_w, reach)


def test_disturbance_bound_requires_channel():
    with pytest.raises(ValueError):
        disturbance_step_bound(benchmark_plant(), 0.2)


def test_growth_constants_recursions():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    C, chi = growth_constants(dp, range(1, 5), varpi)
    assert C == pytest.approx(max(spectral_norm(step_matrices(dp)[a]) for a in range(3)))
    assert set(chi) == {1, 2, 3, 4}
    for l in (1, 2, 3, 4):
        assert chi[l] == pytest.approx(varpi * sum(C**q for q in range(l)), rel=1e-12)


def test_growth_constants_frozen_benchmark_values():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    assert varpi == pytest.approx(0.32177, rel=1e-4)
    C, chi = growth_constants(dp, [3, 6], varpi)
    assert C == pytest.approx(2.2696, rel=1e-4)
    assert chi[3] ** 2 == pytest.approx(7.342, rel=1e-3)
    assert chi[6] ** 2 == pytest.approx(1182.602, rel=1e-3)
    assert chi[6] == pytest.approx(34.389, rel=1e-3)
