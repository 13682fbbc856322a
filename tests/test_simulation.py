import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from asynctrig.errors import ConfigError
from asynctrig.matrix_core import mat_exp
from asynctrig import simulation
from asynctrig.plant import PlantModel, selection_matrices, transition_table
from asynctrig.presets import PRESET_NAMES, preset_config
from asynctrig.simulation import (
    SimConfig,
    SimTrace,
    _DisturbanceIntegrator,
    default_sine_disturbance,
    prepare,
    read_trace_csv,
    schur_threshold,
    simulate,
    utilization_metrics,
    write_decision_csv,
    write_trace_csv,
)
from helpers import benchmark_plant


@pytest.fixture(scope="module")
def online_run():
    cfg = preset_config("online-unperturbed")
    prep = prepare(cfg)
    return cfg, prep, simulate(cfg, prep)


def test_schur_threshold_frozen_value():
    plant = benchmark_plant()
    T_max = schur_threshold(plant)
    assert T_max == pytest.approx(0.5948953985790941, abs=1e-6)


def test_schur_threshold_stable_range_returns_upper_end():
    plant = benchmark_plant()
    assert schur_threshold(plant, t_range=(1e-3, 0.3)) == 0.3


def test_schur_threshold_unstable_lower_end_raises():
    plant = benchmark_plant()
    with pytest.raises(ValueError):
        schur_threshold(plant, t_range=(0.9, 1.0))


def test_config_rejects_bad_inputs():
    plant = benchmark_plant()
    good = dict(plant=plant, T=0.3, l_min=1, l_max=3, mode="online-unperturbed", x0=[5.0, -2.0])
    SimConfig(**good)
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "mode": "sometimes"})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "total_steps": 2})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "x0": [1.0, 2.0, 3.0]})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "mode": "offline-unperturbed", "N": 0})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "mode": "online-perturbed"})  # no disturbance channel


def test_x0_expansion_to_collective_state():
    plant = benchmark_plant()
    cfg = SimConfig(plant=plant, T=0.3, l_min=1, l_max=3, mode="online-unperturbed", x0=[5.0, -2.0])
    np.testing.assert_array_equal(cfg.x0, [5.0, -2.0, 5.0, -2.0])
    cfg2 = SimConfig(
        plant=plant, T=0.3, l_min=1, l_max=3, mode="online-unperturbed", x0=[5.0, -2.0, 1.0, 0.5]
    )
    np.testing.assert_array_equal(cfg2.x0, [5.0, -2.0, 1.0, 0.5])


def test_trace_replays_exactly(online_run):
    # every recorded column must be reproducible from the recorded actions
    cfg, prep, tr = online_run
    dp, _, cert, _, _, _ = prep
    n = cfg.plant.n
    sel = [selection_matrices(a, cfg.plant.blocks) for a in range(cfg.plant.m + 1)]
    x = cfg.x0[:n].copy()
    xh = cfg.x0[n:].copy()
    for k, a in enumerate(tr.actions):
        assert np.array_equal(tr.X[k], x)
        eta = np.concatenate([x, xh])
        assert tr.V[k] == float(eta @ cert.P @ eta)
        M_sel, N_sel = sel[a]
        xh = M_sel @ x + N_sel @ xh
        assert np.array_equal(tr.XHAT[k], xh)
        u = cfg.plant.K @ xh
        assert np.array_equal(tr.U[k], np.atleast_1d(u))
        x = dp.A_T @ x + dp.B_T @ u
    # times accumulate t += T, which is exactly a running cumsum
    assert np.array_equal(tr.times, np.cumsum([0.0] + [cfg.T] * (tr.actions.size - 1)))


def test_idle_action_holds_estimate(online_run):
    _, _, tr = online_run
    idle = np.flatnonzero(tr.actions == 0)
    assert idle.size > 0
    for k in idle:
        prev = tr.XHAT[k - 1] if k > 0 else tr.X[0]  # estimate starts at the true state
        np.testing.assert_array_equal(tr.XHAT[k], prev)


def test_step_count_and_overshoot(online_run):
    cfg, _, tr = online_run
    steps = tr.actions.size
    assert cfg.total_steps <= steps <= cfg.total_steps + cfg.l_max - 1
    assert tr.metrics["steps"] == steps
    lengths = [len(d.horizon) for d in tr.decisions]
    assert sum(lengths) == steps
    assert tr.boundaries == [0] + list(np.cumsum(lengths[:-1]))
    assert len(tr.boundary_V) == len(tr.boundaries) + 1


def test_metrics_agree_with_action_counts(online_run):
    cfg, _, tr = online_run
    readings = int(np.count_nonzero(tr.actions))
    steps = tr.actions.size
    assert tr.metrics["readings"] == readings
    assert tr.metrics["utilization_reduction"] == pytest.approx(1 - readings / (2 * steps))
    again = utilization_metrics(tr, cfg.plant.m)
    assert again["readings"] == readings
    assert again["utilization_reduction"] == tr.metrics["utilization_reduction"]
    assert tr.metrics["min_V_ratio"] == pytest.approx(min(tr.boundary_V) / tr.boundary_V[0])


def test_utilization_metrics_rejects_empty_trace():
    empty = SimTrace(
        times=np.array([]), X=np.zeros((0, 2)), XHAT=np.zeros((0, 2)), U=np.zeros((0, 1)),
        actions=np.array([], dtype=int), V=np.array([]), boundaries=[], boundary_V=[],
        decisions=[], decision_rows=[],
    )
    with pytest.raises(ValueError):
        utilization_metrics(empty, 2)


def test_disturbance_integrator_matches_dense_quadrature():
    # int_0^T e^{A(T-s)} D w(t0+s) ds against a 20001-node trapezoid reference
    plant = benchmark_plant(perturbed=True)
    T = 0.18
    integ = _DisturbanceIntegrator(plant, T, substeps=100)
    w = default_sine_disturbance(plant)
    for t0 in (0.0, 0.37, 1.234):
        got = integ.integrate(w, t0)
        s_grid = np.linspace(0.0, T, 20001)
        vals = np.array([mat_exp(plant.A, T - s) @ plant.D @ w(t0 + s) for s in s_grid])
        ref = np.trapezoid(vals, s_grid, axis=0)
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-12)


def test_disturbance_integrator_matches_the_node_loop():
    # one disturbance channel: each node's product is a single multiply, so
    # the stacked product must equal a mat-vec per node exactly
    plant = benchmark_plant(perturbed=True)
    integ = _DisturbanceIntegrator(plant, 0.18, substeps=100)
    w = default_sine_disturbance(plant)
    for t0 in (0.0, 0.37, 1.234):
        vals = np.array([integ.EAD[j] @ np.atleast_1d(w(t0 + s)) for j, s in enumerate(integ.nodes)])
        np.testing.assert_array_equal(integ.integrate(w, t0), integ.weights @ vals)


def test_disturbance_integrator_refines_consistently():
    plant = benchmark_plant(perturbed=True)
    w = default_sine_disturbance(plant)
    coarse = _DisturbanceIntegrator(plant, 0.18, substeps=100).integrate(w, 0.5)
    fine = _DisturbanceIntegrator(plant, 0.18, substeps=400).integrate(w, 0.5)
    np.testing.assert_allclose(coarse, fine, rtol=1e-10, atol=1e-14)
    with pytest.raises(ConfigError):
        _DisturbanceIntegrator(plant, 0.18, substeps=0)


@pytest.mark.parametrize("n_w", [1, 2])
def test_sine_disturbance_samples_all_nodes_at_once(n_w):
    base = benchmark_plant(perturbed=True)
    plant = dataclasses.replace(base, D=np.ones((2, n_w)), w_max=0.8)
    integ = _DisturbanceIntegrator(plant, 0.18, substeps=100)
    for k in (5.0, 3.0):
        w = default_sine_disturbance(plant, pi_multiple=k)
        for t in (0.0, 0.37, 12.345):
            W = w(t + integ.nodes)
            assert W.shape == (integ.nodes.size, n_w)
            expect = [0.8 / math.sqrt(n_w) * math.sin(k * math.pi * (t + s)) for s in integ.nodes]
            for j in range(n_w):
                assert W[:, j].tolist() == expect


def test_integrate_samples_the_disturbance_once_per_step():
    plant = benchmark_plant(perturbed=True)
    integ = _DisturbanceIntegrator(plant, 0.18, substeps=100)
    w = default_sine_disturbance(plant)
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return w(t)

    for t0 in (0.0, 0.18, 0.36):
        integ.integrate(counting, t0)
    assert calls == [integ.nodes.shape] * 3


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_stacked_node_exponentials_match_the_node_loop(name):
    cfg = preset_config(name)
    plant, T = cfg.plant, cfg.T
    integ = _DisturbanceIntegrator(plant, T, cfg.substeps_per_T)
    loop = np.array([mat_exp(plant.A, T - s) @ plant.D for s in integ.nodes])
    np.testing.assert_array_equal(integ.EAD, loop)


def test_zero_disturbance_reduces_to_linear_advance():
    cfg = preset_config("online-perturbed")
    cfg.total_steps = 20
    cfg.disturbance = lambda t: np.zeros(np.shape(t) + (1,))
    prep = prepare(cfg)
    tr = simulate(cfg, prep)
    dp = prep[0]
    for k in range(tr.actions.size - 1):
        step = dp.A_T @ tr.X[k] + dp.B_T @ tr.U[k]
        np.testing.assert_array_equal(tr.X[k + 1], step)


def test_sine_disturbance_uses_global_time():
    plant = benchmark_plant(perturbed=True)
    w = default_sine_disturbance(plant, pi_multiple=5.0)
    t = 0.77
    expect = plant.w_max * math.sin(5.0 * math.pi * t)
    np.testing.assert_allclose(w(t), [expect], rtol=1e-15)
    assert w(0.0)[0] == 0.0


def test_trace_csv_round_trip_exact(online_run, tmp_path):
    _, _, tr = online_run
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, str(path))
    back = read_trace_csv(str(path))
    np.testing.assert_array_equal(back.times, tr.times)
    np.testing.assert_array_equal(back.X, tr.X)
    np.testing.assert_array_equal(back.XHAT, tr.XHAT)
    np.testing.assert_array_equal(back.U, tr.U)
    np.testing.assert_array_equal(back.actions, tr.actions)
    np.testing.assert_array_equal(back.V, tr.V)
    # rewriting produces identical bytes
    path2 = tmp_path / "trace2.csv"
    write_trace_csv(tr, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_decision_csv_shape(online_run, tmp_path):
    _, _, tr = online_run
    path = tmp_path / "decisions.csv"
    write_decision_csv(tr, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,tau,mode,horizon,metric,feasible_count,inside_ellipsoid"
    assert len(lines) == 1 + len(tr.decision_rows)
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "online-unperturbed"


def test_read_trace_csv_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("step,t,x_1,x_2,xhat_1,xhat_2,u_1,action,V\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(p))


def test_prepare_rejects_overflowing_transition_products():
    # the length-3 products of this unstable plant overflow before sigma* is chosen
    plant = PlantModel(A=[[300.0]], B=[[1.0]], K=[[-1.0]], blocks=(1,))
    cfg = SimConfig(plant=plant, T=1.0, l_min=1, l_max=3, mode="online-unperturbed", x0=[1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        prepare(cfg)


def test_prepare_builds_one_transition_table(monkeypatch):
    # sigma* chosen automatically in every mode; offline cut small to stay cheap
    calls = []

    def counting(dp, horizons):
        calls.append(list(horizons))
        return transition_table(dp, horizons)

    monkeypatch.setattr(simulation, "transition_table", counting)
    for name in PRESET_NAMES:
        small = {"l_max": 3, "N": 3} if name.startswith("offline") else {}
        cfg = dataclasses.replace(preset_config(name), sigma_star=None, **small)
        for with_tables in (True, False):
            calls.clear()
            prep = prepare(cfg, with_tables=with_tables)
            assert calls == [prep.horizons], (name, with_tables)
            offline = name.startswith("offline")
            assert (prep.table is not None) == (offline and with_tables)
            assert (prep.policy is not None) == (with_tables or not offline)



@pytest.mark.parametrize("limit, collected", [(0, True), (2**62, False)])
def test_prepare_collects_before_large_tables(monkeypatch, limit, collected):
    # an old policy whose select a caller wrapped is a reference cycle; with the
    # automatic collector off, only prepare's own collection can free it
    monkeypatch.setattr(simulation, "COLLECT_BEFORE_BYTES", limit)
    gc.disable()
    try:
        old = prepare(preset_config("online-unperturbed")).policy
        old.select = (lambda select: lambda *a: select(*a))(old.select)
        ref = weakref.ref(old)
        del old
        prepare(preset_config("online-unperturbed"))
        assert (ref() is None) == collected
    finally:
        gc.enable()

def test_simulate_decides_through_the_policy(online_run):
    cfg, prep, _ = online_run
    seen = []
    select = prep.policy.select

    def recording(*args):
        seen.append(select(*args))
        return seen[-1]

    prep.policy.select = recording
    try:
        tr = simulate(cfg, prep)
    finally:
        del prep.policy.select
    assert seen and tr.decisions == seen
