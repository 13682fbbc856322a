import dataclasses
import gc
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from asynctrig.errors import ConfigError
from asynctrig import simulation
from asynctrig.horizons import action_codes
from asynctrig.plant import PlantModel, step_matrices, transition_table
from asynctrig.presets import PRESET_NAMES, preset_config
from asynctrig.simulation import (
    SimConfig,
    _DisturbanceIntegrator,
    default_sine_disturbance,
    prepare,
    read_trace_csv,
    simulate,
    utilization_metrics,
    write_decision_csv,
    write_trace_csv,
)
from asynctrig.triggers import GatedPolicy, OnlinePolicy, TablePolicy
from helpers import (
    benchmark_plant,
    oracle_write_decision_csv,
    oracle_write_trace_csv,
    schur_threshold,
    special_value_traces,
    stepwise_simulate,
)


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
    dp, cert = prep.dp, prep.cert
    n = cfg.plant.n
    sel = [(G[n:, :n], G[n:, n:]) for G in step_matrices(dp)]  # each certified map's sampling rows
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
    again = utilization_metrics(tr.actions, cfg.plant.m)
    assert again["readings"] == readings
    assert again["utilization_reduction"] == tr.metrics["utilization_reduction"]
    assert tr.metrics["min_V_ratio"] == pytest.approx(min(tr.boundary_V) / tr.boundary_V[0])


def test_utilization_metrics_rejects_empty_trace():
    with pytest.raises(ValueError):
        utilization_metrics(np.array([], dtype=int), 2)


def test_disturbance_integrator_matches_dense_quadrature():
    # int_0^T e^{A(T-s)} D w(t0+s) ds against a 20001-node trapezoid reference
    plant = benchmark_plant(perturbed=True)
    T = 0.18
    integ = _DisturbanceIntegrator(plant, T, substeps=100)
    w = default_sine_disturbance(plant)
    for t0 in (0.0, 0.37, 1.234):
        got = integ.integrate(w, [t0])[0]
        s_grid = np.linspace(0.0, T, 20001)
        vals = np.array([expm(plant.A * float(T - s)) @ plant.D @ w(t0 + s) for s in s_grid])
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
        np.testing.assert_array_equal(integ.integrate(w, [t0])[0], integ.weights @ vals)


def test_disturbance_integrator_refines_consistently():
    plant = benchmark_plant(perturbed=True)
    w = default_sine_disturbance(plant)
    coarse = _DisturbanceIntegrator(plant, 0.18, substeps=100).integrate(w, [0.5])[0]
    fine = _DisturbanceIntegrator(plant, 0.18, substeps=400).integrate(w, [0.5])[0]
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


def test_integrate_samples_the_disturbance_once_per_block():
    # one call of w per integrate call, on every node of every step given;
    # each row equals that step integrated alone
    plant = benchmark_plant(perturbed=True)
    integ = _DisturbanceIntegrator(plant, 0.18, substeps=100)
    w = default_sine_disturbance(plant)
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return w(t)

    blocks = [0.18 * np.arange(32), 5.76 + 0.18 * np.arange(7), np.array([7.02])]
    for ts in blocks:
        rows = integ.integrate(counting, ts)
        assert rows.shape == (ts.size, plant.n)
        for t, row in zip(ts, rows):
            np.testing.assert_array_equal(row, integ.weights @ np.einsum("kij,kj->ki", integ.EAD, w(t + integ.nodes)))
    assert calls == [(ts.size, 2 * 100 + 1) for ts in blocks]


def test_simulate_samples_the_disturbance_once_per_block():
    cfg = dataclasses.replace(preset_config("online-perturbed"), total_steps=200)
    prep = prepare(cfg)
    w = default_sine_disturbance(cfg.plant)
    shapes = []

    def counting(t):
        shapes.append(np.shape(t))
        return w(t)

    tr = simulate(dataclasses.replace(cfg, disturbance=counting), prep)
    steps, block, nodes = tr.actions.size, simulation.BLOCK_STEPS, 2 * cfg.substeps_per_T + 1
    assert steps > cfg.total_steps and len(shapes) == math.ceil(steps / block) == 7
    assert shapes[:-1] == [(block, nodes)] * 6
    # the last block reaches at most as far as the longest horizon could run
    assert shapes[-1][1] == nodes and steps - 6 * block <= shapes[-1][0] <= cfg.total_steps + cfg.l_max - 1 - 6 * block


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_stacked_node_exponentials_match_the_node_loop(name):
    cfg = preset_config(name)
    plant, T = cfg.plant, cfg.T
    integ = _DisturbanceIntegrator(plant, T, cfg.substeps_per_T)
    loop = np.array([expm(plant.A * float(T - s)) @ plant.D for s in integ.nodes])
    np.testing.assert_array_equal(integ.EAD, loop)


def test_zero_disturbance_reduces_to_linear_advance():
    cfg = preset_config("online-perturbed")
    cfg.total_steps = 20
    cfg.disturbance = lambda t: np.zeros(np.shape(t) + (1,))
    prep = prepare(cfg)
    tr = simulate(cfg, prep)
    dp = prep.dp
    for k in range(tr.actions.size - 1):
        step = dp.A_T @ tr.X[k] + dp.B_T @ tr.U[k]
        np.testing.assert_array_equal(tr.X[k + 1], step)


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_varpi_bounds_what_the_disturbance_adds_in_a_step(name):
    """Every step's disturbance increment x_{k+1} - A_T x_k - B_T u_k is at most varpi.

    Checked under the preset's sine and under the constant w = w_max/sqrt(n_w)
    on every channel, at seeds 154, 1, 2 and 3.  The constant signal is tight:
    the presets' D is an eigenvector of A, so e^{As} D never turns and the
    triangle inequality in varpi = w_max int ||e^{As} D|| ds holds with
    equality; its largest ratio is 1 + 1.5e-13 online and 1 + 4.4e-14
    offline, against 0.70 and 0.62 for the sine.  The 1e-9 allowance covers
    the integrator's 100-substep quadrature of that integral, which may
    exceed the exact value by its own error; a bound off by more than 1e-9
    relative fails here.
    """
    cfg = preset_config(name)
    prep = prepare(cfg)
    varpi, dp = prep.cert.varpi, prep.dp
    n_w = cfg.plant.D.shape[1]

    def constant(t):
        return np.full(np.shape(t) + (n_w,), cfg.plant.w_max / math.sqrt(n_w))

    for disturbance in (None, constant):
        cfg.disturbance = disturbance
        for seed in (154, 1, 2, 3):
            cfg.seed = seed
            tr = simulate(cfg, prep)
            added = tr.X[1:] - tr.X[:-1] @ dp.A_T.T - tr.U[:-1] @ dp.B_T.T
            assert np.linalg.norm(added, axis=1).max() <= varpi * (1 + 1e-9)


def test_sine_disturbance_uses_global_time():
    plant = benchmark_plant(perturbed=True)
    w = default_sine_disturbance(plant, pi_multiple=5.0)
    t = 0.77
    expect = plant.w_max * math.sin(5.0 * math.pi * t)
    np.testing.assert_allclose(w(t), [expect], rtol=1e-15)
    assert w(0.0)[0] == 0.0


def _assert_same_bits(got, want):
    # nan at the same places, and every other entry with the same bits: -0.0 is not 0.0
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_trace_csv_round_trip_exact(online_run, tmp_path):
    for i, tr in enumerate([online_run[2]] + special_value_traces()):
        path = tmp_path / f"trace{i}.csv"
        write_trace_csv(tr, str(path))
        back = read_trace_csv(str(path))
        for field in ("times", "X", "XHAT", "U", "V"):
            _assert_same_bits(getattr(back, field), getattr(tr, field))
        np.testing.assert_array_equal(back.actions, tr.actions)
        # rewriting produces identical bytes
        path2 = tmp_path / f"trace{i}b.csv"
        write_trace_csv(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()


def test_decision_csv_shape(online_run, tmp_path):
    _, _, tr = online_run
    path = tmp_path / "decisions.csv"
    write_decision_csv(tr, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,tau,mode,horizon,metric,evaluated,inside_ellipsoid,reason,region,margin"
    assert len(lines) == 1 + len(tr.decision_rows)
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "online-unperturbed"
    for line, dec in zip(lines[1:], tr.decisions):
        evaluated, _, reason, region, margin = line.split(",")[5:]
        assert (int(evaluated), reason, region) == (dec.evaluated, dec.reason, "")
        assert float(margin) == dec.margin
    assert tr.metrics["forced_fallbacks"] == sum(dec.reason == "forced-fallback" for dec in tr.decisions)
    assert tr.metrics["table_misses"] == 0


def test_decision_reasons_follow_the_mechanism(preset_traces):
    # gate rows are exactly the ellipsoid rows; every row names the run's
    # mode; only table rows name a region, only online tests carry a margin,
    # and the counts match
    for name, (cfg, _, tr) in preset_traces.items():
        online = name.startswith("online")
        for step, _, mode, _, _, evaluated, inside, reason, region, margin in tr.decision_rows:
            assert mode == cfg.mode, (name, step)
            assert (reason == "gate") == bool(inside), (name, step)
            assert reason in (("gate", "certified", "forced-fallback") if online else ("gate", "table", "table-miss"))
            assert (region is not None) == (reason == "table")
            assert (margin is not None) == (reason in ("certified", "forced-fallback"))
            assert (evaluated > 0) == (margin is not None)
        reasons = [row[7] for row in tr.decision_rows]
        assert tr.metrics["forced_fallbacks"] == reasons.count("forced-fallback")
        assert tr.metrics["table_misses"] == reasons.count("table-miss")


def test_writers_match_the_per_element_oracles(preset_traces, tmp_path):
    traces = [tr for _, _, tr in preset_traces.values()] + special_value_traces()
    for i, tr in enumerate(traces):
        for write, oracle in (
            (write_trace_csv, oracle_write_trace_csv),
            (write_decision_csv, oracle_write_decision_csv),
        ):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            write(tr, str(got))
            oracle(tr, str(want))
            assert got.read_bytes() == want.read_bytes(), (i, write.__name__)


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
    calls, coded = [], []

    def counting(dp, horizons, codes=None):
        calls.append(list(horizons))
        return transition_table(dp, horizons, codes)

    def counting_codes(horizons):
        coded.append(list(horizons))
        return action_codes(horizons)

    monkeypatch.setattr(simulation, "transition_table", counting)
    for module in ("simulation", "plant", "triggers"):
        monkeypatch.setattr(f"asynctrig.{module}.action_codes", counting_codes)
    for name in PRESET_NAMES:
        small = {"l_max": 3, "N": 3} if name.startswith("offline") else {}
        cfg = dataclasses.replace(preset_config(name), sigma_star=None, **small)
        calls.clear(), coded.clear()
        dp, horizons, codes, phis, cert = simulation.certify(cfg)
        assert calls == coded == [horizons], name
        assert phis.shape == (len(horizons), 4, 4) and codes.shape[1] == len(horizons)
        calls.clear(), coded.clear()
        prep = prepare(cfg)
        assert calls == coded == [prep.horizons], name
        offline = name in simulation.OFFLINE_MODES
        assert (prep.table is not None) == (prep.regions is not None) == offline, name
        inner = getattr(prep.policy, "policy", prep.policy)
        assert type(inner) is (TablePolicy if offline else OnlinePolicy) and (prep.table is inner) == offline, name
        assert isinstance(prep.policy, GatedPolicy) == (name in simulation.PERTURBED_MODES), name
        assert prep.horizons == horizons and np.array_equal(prep.cert.P, cert.P), name


def test_prepare_builds_the_quadrature_table_once(monkeypatch):
    built = []

    class Spy(_DisturbanceIntegrator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulation, "_DisturbanceIntegrator", Spy)
    for name in PRESET_NAMES:
        small = {"l_max": 3, "N": 3} if name.startswith("offline") else {}
        cfg = dataclasses.replace(preset_config(name), sigma_star=None, total_steps=12, **small)
        perturbed = name in simulation.PERTURBED_MODES
        built.clear()
        prep = prepare(cfg)
        assert len(built) == int(perturbed), name
        assert isinstance(prep.integrator, Spy) if perturbed else prep.integrator is None, name
        built.clear()
        simulate(cfg, prep)
        simulate(dataclasses.replace(cfg, seed=7), prep)
        assert built == [], name


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


def _wide_config(steps: int):
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.wide_config(steps)


def _matches_stepwise(cfg, prep):
    got, want = simulate(cfg, prep), stepwise_simulate(cfg, prep)
    for name in ("times", "X", "XHAT", "U", "actions", "V"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_array_equal(got.boundary_V, want.boundary_V)
    np.testing.assert_array_equal(np.array(got.decision_rows, dtype=object), np.array(want.decision_rows, dtype=object))
    assert got.boundaries == want.boundaries
    return got


def _drifting_disturbance(t):
    t = np.asarray(t)
    return (0.8 * np.cos(2.3 * t) * np.exp(-0.01 * t))[..., None]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_blocked_loop_matches_the_stepwise_oracle_on_the_presets(name, preset_traces):
    cfg, prep, _ = preset_traces[name]
    for seed in (154, 1, 2, 3):
        _matches_stepwise(dataclasses.replace(cfg, seed=seed), prep)
    if name in simulation.PERTURBED_MODES:
        _matches_stepwise(dataclasses.replace(cfg, disturbance=_drifting_disturbance), prep)


def test_blocked_loop_matches_the_stepwise_oracle_on_two_disturbance_channels():
    base = preset_config("online-perturbed")
    cfg = dataclasses.replace(base, plant=dataclasses.replace(base.plant, D=np.array([[1.0, 0.5], [1.0, -0.3]])))
    prep = prepare(cfg)
    assert prep.integrator.EAD.shape[-1] == 2
    for seed in (154, 1):
        _matches_stepwise(dataclasses.replace(cfg, seed=seed), prep)

    def two_tone(t):
        t = np.asarray(t)
        return np.stack([np.sin(3.0 * t), 0.4 * np.cos(7.0 * t)], axis=-1)

    _matches_stepwise(dataclasses.replace(cfg, disturbance=two_tone), prep)


def test_blocked_loop_matches_the_stepwise_oracle_across_block_edges():
    # 70 steps is no multiple of the block; horizons straddle steps 32 and 64,
    # and the last one runs past total_steps
    cfg = preset_config("online-perturbed", total_steps=70)
    prep = prepare(cfg)
    tr = _matches_stepwise(cfg, prep)
    spans = [(b, b + len(dec.horizon)) for b, dec in zip(tr.boundaries, tr.decisions)]
    block = simulation.BLOCK_STEPS
    assert cfg.total_steps % block and tr.actions.size > cfg.total_steps
    assert all(any(b < k < e for b, e in spans) for k in (block, 2 * block))


def test_blocked_loop_matches_the_stepwise_oracle_on_the_wide_plant():
    cfg = dataclasses.replace(_wide_config(15), total_steps=40)
    prep = prepare(cfg)
    assert 2 * cfg.plant.n == 6 and cfg.plant.blocks == (1, 1, 1)
    for seed in (154, 11):
        _matches_stepwise(dataclasses.replace(cfg, seed=seed), prep)
