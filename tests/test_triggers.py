import math
import tracemalloc

import numpy as np
import pytest

from asynctrig.certificates import (
    PerturbedOnlineCertificate,
    UnperturbedCertificate,
    build_U_sigma,
    decay_factor,
    max_eps_feasible,
    region_forms,
    synthesize_perturbed_online,
    synthesize_unperturbed,
)
from asynctrig.errors import ConfigError
from asynctrig.horizons import avg_idle_metric, enumerate_horizons, horizon_from_text
from asynctrig.matrix_core import spectral_norm, symmetrize
from asynctrig.partition import (
    ConicRegion,
    make_partition,
    region_multipliers,
    region_of,
    sprocedure_feasible,
)
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    horizon_transition,
    transition_table,
)
from asynctrig.presets import preset_config
from asynctrig.simulation import prepare
from asynctrig.triggers import GatedPolicy, OfflineTable, OnlinePolicy, TablePolicy, table_to_dict
from helpers import benchmark_plant


@pytest.fixture(scope="module")
def online_unperturbed():
    plant = benchmark_plant()
    dp = DiscretePlant.from_plant(plant, 0.3)
    horizons = enumerate_horizons(2, 1, 3)
    Phi_star = horizon_transition(dp, (1, 2))
    cert = synthesize_unperturbed(Phi_star, 0.0, 0.6, sigma_star=(1, 2), T=0.3)
    return dp, horizons, cert, OnlinePolicy(cert, horizons, transition_table(dp, horizons), dp.m)


@pytest.fixture(scope="module")
def online_perturbed():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    horizons = enumerate_horizons(2, 1, 6)
    _, chi_sq, _ = growth_constants(dp, horizons, varpi)
    beta = math.log(10.0) / (4 * 0.18)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    cert = synthesize_perturbed_online(
        Phi_star, beta, 4 * 0.18, chi_sq[4], 0.35, sigma_star=(2, 1, 2, 1), T=0.18, chi_squared=chi_sq
    )
    policy = OnlinePolicy(cert, horizons, transition_table(dp, horizons), dp.m)
    return dp, horizons, cert, GatedPolicy(policy, cert.P)


def _brute_force_feasible(eta, dp, horizons, cert):
    P = cert.P
    slack = 1e-12 * float(eta @ eta) * spectral_norm(P)
    out = []
    for s in horizons:
        Phi = horizon_transition(dp, s)
        if eta @ (Phi.T @ P @ Phi - decay_factor(cert.beta, len(s), cert.T) * P) @ eta <= slack:
            out.append(s)
    return out


def test_online_unperturbed_matches_brute_force(online_unperturbed):
    dp, horizons, cert, policy = online_unperturbed
    rng = np.random.default_rng(11)
    for k in range(60):
        eta = rng.normal(scale=rng.uniform(0.5, 20.0), size=4)
        feas = _brute_force_feasible(eta, dp, horizons, cert)
        dec = policy.select(eta, rng_seed=0, step_index=k)
        assert dec.feasible_count == len(feas)
        best = max(avg_idle_metric(s, dp.m) for s in feas)
        assert dec.metric == best
        assert dec.horizon in feas
        assert avg_idle_metric(dec.horizon, dp.m) == best


def test_fallback_horizon_always_feasible(online_unperturbed):
    dp, horizons, cert, _ = online_unperturbed
    rng = np.random.default_rng(12)
    for _ in range(100):
        eta = rng.normal(scale=rng.uniform(0.1, 50.0), size=4)
        assert (1, 2) in _brute_force_feasible(eta, dp, horizons, cert)


def test_selected_horizon_decays_lyapunov(online_unperturbed):
    # the admissibility test is exactly the one-shot decay inequality
    dp, horizons, cert, policy = online_unperturbed
    rng = np.random.default_rng(13)
    for k in range(200):
        eta = rng.normal(scale=rng.uniform(0.5, 30.0), size=4)
        dec = policy.select(eta, rng_seed=5, step_index=k)
        Phi = horizon_transition(dp, dec.horizon)
        v0 = eta @ cert.P @ eta
        v1 = (Phi @ eta) @ cert.P @ (Phi @ eta)
        bbar = decay_factor(cert.beta, len(dec.horizon), cert.T)
        assert v1 <= bbar * v0 * (1 + 1e-9) + 1e-12 * (eta @ eta) * spectral_norm(cert.P)


def test_tie_break_deterministic_and_varied(online_unperturbed):
    _, _, _, policy = online_unperturbed
    eta = np.zeros(4)  # every horizon feasible; all-idle words tie at metric 1
    first = policy.select(eta, rng_seed=42, step_index=7)
    assert first.metric == 1.0
    assert first.tie_count == 3  # idle words of lengths 1..3
    assert set(first.horizon) == {0}
    for _ in range(20):
        again = policy.select(eta, rng_seed=42, step_index=7)
        assert again.horizon == first.horizon
    seen = {policy.select(eta, rng_seed=42, step_index=k).horizon for k in range(30)}
    assert len(seen) >= 2  # the counter key actually varies the draw


def test_policy_rejects_missing_fallback(online_unperturbed):
    dp, horizons, cert, _ = online_unperturbed
    short = [s for s in horizons if s != (1, 2)]
    with pytest.raises(ConfigError):
        OnlinePolicy(cert, short, transition_table(dp, short), dp.m)


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed"])
def test_online_forms_equal_the_per_horizon_formulas(name):
    # byte-identical traces start here: the stacked build must give every
    # horizon's own form bit for bit, not merely to rounding
    prep = prepare(preset_config(name))
    policy = prep.policy.policy if isinstance(prep.policy, GatedPolicy) else prep.policy
    cert, P = prep.cert, prep.cert.P
    nn = P.shape[0]
    for i, s in enumerate(prep.horizons):
        Phi = horizon_transition(prep.dp, s)
        rho = decay_factor(cert.beta, len(s), cert.T)
        if isinstance(cert, UnperturbedCertificate):
            form, corner = rho * P - Phi.T @ P @ Phi, 0.0
        else:
            U = build_U_sigma(P, cert.M, cert.gamma, Phi, rho, cert.chi_squared[len(s)])
            form, corner = U[:nn, :nn], U[nn, nn]
            PM = symmetrize(P) + symmetrize(cert.M)  # the one-horizon block, written out
            assert np.array_equal(form, -symmetrize(Phi.T @ PM @ Phi) + (rho - cert.gamma) * symmetrize(P)), s
        assert np.array_equal(policy.forms[i], form), s
        assert policy.corners[i] == corner, s


@pytest.mark.parametrize("perturbed", [False, True])
def test_stacked_builds_peak_below_twice_their_result(perturbed):
    # 5460 horizons, a 1.5 MB stack: a full-size gather of step matrices, or
    # full-size rho P and Phi'P temporaries, would each add a whole stack
    plant = PlantModel(A=-np.eye(3), B=np.ones((3, 1)), K=-0.1 * np.ones((1, 3)), blocks=(1, 1, 1))
    dp = DiscretePlant.from_plant(plant, 0.1)
    horizons = enumerate_horizons(3, 1, 6)
    P, T, star = np.eye(6), 0.1, (1, 2, 3)
    if perturbed:
        cert = PerturbedOnlineCertificate(
            P=P, M=P, gamma=0.5, chi=0.03, C=1.0, varpi=0.1, C_prime=1.0, mu=1.0, psi=1.0,
            sigma_star=star, beta=0.0, T=T, chi_squared={l: 0.01 * l for l in range(1, 7)},
        )
    else:
        cert = UnperturbedCertificate(P=P, beta=0.0, T=T, sigma_star=star)
    tracemalloc.start()
    try:
        phis = transition_table(dp, horizons)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        policy = OnlinePolicy(cert, horizons, phis, dp.m)
        policy_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(horizons) == 5460 and phis.nbytes >= 2**20
    assert table_peak <= 2 * phis.nbytes
    assert policy_peak <= 2 * policy.forms.nbytes


def test_online_perturbed_idle_inside_ellipsoid(online_perturbed):
    _, _, cert, policy = online_perturbed
    lam_hi = max(np.linalg.eigvalsh(cert.P))
    eta = np.ones(4) * (0.9 / math.sqrt(lam_hi * 4.0))
    assert eta @ cert.P @ eta <= 1.0
    dec = policy.select(eta, rng_seed=0, step_index=0)
    assert dec.horizon == (0,)
    assert dec.metric == avg_idle_metric((0,), 2)
    assert dec.feasible_count == 1


def test_online_perturbed_outside_matches_quadratic_test(online_perturbed):
    dp, horizons, cert, policy = online_perturbed
    from asynctrig.certificates import build_U_sigma

    U_all = {}
    for s in horizons:
        U_all[s] = build_U_sigma(
            cert.P, cert.M, cert.gamma, horizon_transition(dp, s),
            decay_factor(cert.beta, len(s), cert.T), cert.chi_squared[len(s)],
        )
    rng = np.random.default_rng(21)
    for k in range(40):
        eta = rng.normal(size=4)
        # rescale in the P-norm so the state sits outside the idle ellipsoid
        eta *= rng.uniform(1.5, 10.0) / math.sqrt(eta @ cert.P @ eta)
        assert eta @ cert.P @ eta > 1.0
        v = np.concatenate([eta, [1.0]])
        slack = -1e-12 * max(1.0, float(eta @ eta))
        feas = [s for s in horizons if v @ U_all[s] @ v >= slack]
        if not feas:
            feas = [(2, 1, 2, 1)]
        dec = policy.select(eta, rng_seed=1, step_index=k)
        assert dec.feasible_count == len(feas)
        assert dec.horizon in feas
        assert dec.metric == max(avg_idle_metric(s, dp.m) for s in feas)


def test_offline_table_shape_and_lookup(prepared_offline_unperturbed):
    cfg, prep, _ = prepared_offline_unperturbed
    dp, horizons, cert, regions, table, policy = prep
    assert table.mode == "offline-unperturbed"
    assert isinstance(policy, TablePolicy) and policy.table is table
    assert table.m == dp.m
    assert len(table.psi) == len(regions) == cfg.N
    for ties, value in zip(table.psi, table.metric):
        assert len(ties) >= 1
        for s in ties:
            assert avg_idle_metric(s, dp.m) == value
    rng = np.random.default_rng(31)
    for k in range(50):
        eta = rng.normal(scale=10.0, size=4)
        c = region_of(eta, regions)
        dec = policy.select(eta, rng_seed=2, step_index=k)
        assert dec.horizon in table.psi[c]
        assert dec.metric == table.metric[c]
        assert dec.mode == table.mode


def test_offline_table_entries_are_certified(prepared_offline_unperturbed):
    # every tabulated horizon must re-pass its own S-procedure feasibility
    from asynctrig.partition import sprocedure_feasible

    _, prep, _ = prepared_offline_unperturbed
    dp, horizons, cert, regions, table, _ = prep
    fallback = tuple(cert.sigma_star)
    for reg, ties in zip(regions, table.psi):
        for s in ties:
            if s == fallback:
                continue
            Phi = horizon_transition(dp, s)
            bbar = decay_factor(cert.beta, len(s), cert.T)
            assert sprocedure_feasible(Phi, cert.P, bbar, reg.Q) is not None


def test_offline_perturbed_gate_and_certification(prepared_offline_perturbed):
    cfg, prep, _ = prepared_offline_perturbed
    dp, horizons, cert, regions, table, policy = prep
    assert table.mode == "offline-perturbed"
    assert isinstance(policy, GatedPolicy) and policy.policy.table is table
    lam_hi = max(np.linalg.eigvalsh(cert.P))
    inside = np.ones(4) * (0.5 / math.sqrt(lam_hi * 4.0))
    dec = policy.select(inside, rng_seed=0)
    assert dec.horizon == (0,)
    assert dec.mode == table.mode and dec.metric == avg_idle_metric((0,), dp.m)
    outside = np.array([15.0, -1.5, 15.0, -1.5])
    assert outside @ cert.P @ outside > 1.0
    dec = policy.select(outside, rng_seed=0)
    c = region_of(outside, regions)
    assert dec.horizon in table.psi[c]
    # every tabulated non-fallback pair must re-pass the assembled-form
    # search; a fallback-only row must mean no horizon certifies that region
    fallback = tuple(cert.sigma_star)
    for reg, ties in zip(regions, table.psi):
        assert len(ties) >= 1
        for s in ties:
            if s == fallback:
                continue
            eps = max_eps_feasible(
                cert.P, cert.gamma1, cert.gamma2,
                horizon_transition(dp, s),
                decay_factor(cert.beta, len(s), cert.T),
                cert.chi_linear_map[len(s)], reg.Q,
            )
            assert eps is not None
    # rebuild one region row from scratch and require an exact match
    reg = regions[0]
    feas = []
    for s in horizons:
        eps = max_eps_feasible(
            cert.P, cert.gamma1, cert.gamma2,
            horizon_transition(dp, s),
            decay_factor(cert.beta, len(s), cert.T),
            cert.chi_linear_map[len(s)], reg.Q,
        )
        if eps is not None:
            feas.append(s)
    if not feas:
        feas = [fallback]
    best = max(avg_idle_metric(s, dp.m) for s in feas)
    ties = tuple(s for s in feas if avg_idle_metric(s, dp.m) == best)
    assert table.psi[0] == ties
    assert table.metric[0] == best


def test_table_to_dict_round_trips_horizon_text(prepared_offline_unperturbed):
    _, prep, _ = prepared_offline_unperturbed
    dp, _, _, regions, table, _ = prep
    data = table_to_dict(table)
    assert data["mode"] == table.mode
    assert data["m"] == dp.m
    assert len(data["regions"]) == len(regions)
    for entry, ties, value in zip(data["regions"], table.psi, table.metric):
        assert entry["metric"] == value
        assert tuple(horizon_from_text(t) for t in entry["psi"]) == ties


def _pair_verdicts(prep, regions):
    """Every (region, horizon) verdict of the one-pair region tests."""
    dp, horizons, cert, _, _, _ = prep
    phis = transition_table(dp, horizons)
    verdicts = np.zeros((len(regions), len(horizons)), dtype=bool)
    for j, s in enumerate(horizons):
        bbar = decay_factor(cert.beta, len(s), cert.T)
        for r, reg in enumerate(regions):
            if isinstance(cert, UnperturbedCertificate):
                eps = sprocedure_feasible(phis[j], cert.P, bbar, reg.Q)
            else:
                eps = max_eps_feasible(
                    cert.P, cert.gamma1, cert.gamma2, phis[j], bbar, cert.chi_linear_map[len(s)], reg.Q
                )
            verdicts[r, j] = eps is not None
    return verdicts


def _batched_verdicts(prep, regions):
    dp, horizons, cert, _, _, _ = prep
    forms = region_forms(cert, horizons, transition_table(dp, horizons))
    verdicts = np.zeros((len(regions), len(horizons)), dtype=bool)
    for r, reg in enumerate(regions):
        verdicts[r, forms.index[~np.isnan(region_multipliers(forms, reg.Q))]] = True
    return forms, verdicts


@pytest.mark.parametrize("fixture", ["prepared_offline_unperturbed", "prepared_offline_perturbed"])
def test_batched_region_test_matches_the_pair_tests(fixture, request):
    # the table builder decides each region for all horizons at once, from
    # batched pencil ends; the one-pair tests solve each generalized pencil
    # on its own, and the perturbed one also reduces U_c to its Schur form
    _, prep, _ = request.getfixturevalue(fixture)
    forms, batched = _batched_verdicts(prep, prep.regions)
    np.testing.assert_array_equal(batched, _pair_verdicts(prep, prep.regions))
    assert batched.any()
    if fixture == "prepared_offline_perturbed":
        # u22 fails for the long horizons on every region, before any region work
        pruned = np.setdiff1d(np.arange(len(prep.horizons)), forms.index)
        assert pruned.size > 0 and not batched[:, pruned].any()


@pytest.mark.parametrize("fixture", ["prepared_offline_unperturbed", "prepared_offline_perturbed"])
def test_batched_region_test_on_capped_cones(fixture, request):
    # make_partition(4, 3) caps the half-angle at pi/2: cos^2 theta is ~4e-33,
    # Q_c is singular to working precision, and the batched pencil must keep
    # the finite ends and drop the ones that are only rounding
    _, prep, _ = request.getfixturevalue(fixture)
    regions = make_partition(4, 3)
    assert math.cos(regions[0].half_angle) ** 2 < 1e-30
    _, batched = _batched_verdicts(prep, regions)
    np.testing.assert_array_equal(batched, _pair_verdicts(prep, regions))


def test_table_lookup_miss_falls_back_to_sigma_star():
    # one narrow cone around e1 leaves e2 uncovered: a miss must take the
    # globally certified fallback, not the entries of the nearest region
    theta = 0.1
    e1 = np.array([1.0, 0.0])
    Q = np.outer(e1, e1) - math.cos(theta) ** 2 * np.eye(2)
    regions = [ConicRegion(index=0, direction=e1, half_angle=theta, Q=Q)]
    table = OfflineTable(psi=(((1, 0, 0),),), metric=(avg_idle_metric((1, 0, 0), 2),), mode="offline-unperturbed", m=2)
    policy = TablePolicy(table, regions, (1, 2))
    hole = np.array([0.0, 3.0])
    assert region_of(hole, regions) is None
    dec = policy.select(hole, rng_seed=0)
    assert dec.horizon == (1, 2)
    assert dec.metric == avg_idle_metric((1, 2), 2)
    assert dec.feasible_count == dec.tie_count == 1
    assert policy.select(2.0 * e1, rng_seed=0).horizon == (1, 0, 0)
