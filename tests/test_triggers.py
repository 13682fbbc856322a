import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asynctrig import triggers
from asynctrig.certificates import (
    PerturbedOnlineCertificate,
    UnperturbedCertificate,
    decay_factor,
    region_forms,
    synthesize_perturbed_online,
    synthesize_unperturbed,
)
from asynctrig.errors import ConfigError, InfeasibleError
from asynctrig.horizons import avg_idle_metric, enumerate_horizons, horizon_from_text
from asynctrig.matrix_core import definite, spectral_norm, symmetrize
from asynctrig.partition import (
    ConicRegion,
    make_partition,
    region_multipliers,
    region_of,
)
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    transition_table,
)
from asynctrig.presets import preset_config
from asynctrig.simulation import SimConfig, certify, prepare
from asynctrig.triggers import (
    FORM_CHUNK,
    GatedPolicy,
    OnlinePolicy,
    TablePolicy,
    _tie_break,
    table_to_dict,
)
from helpers import (
    U_sigma_builder,
    action_codes,
    benchmark_plant,
    bisect_states,
    full_scan_select,
    horizon_list,
    horizon_transition,
    max_eps_feasible,
    random_schur_stabilizable,
    select_with_ties,
    sprocedure_feasible,
    unfiltered_region_multipliers,
    unpruned_table,
)


PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)
# the forms each online policy keeps: only online-perturbed has forms no state admits
KEPT_FORMS = {"online-unperturbed": 39, "online-perturbed": 120, "random-3x3": 5460}


@pytest.fixture(scope="module")
def online_unperturbed():
    plant = benchmark_plant()
    dp = DiscretePlant.from_plant(plant, 0.3)
    horizons = enumerate_horizons(2, 1, 3)
    Phi_star = horizon_transition(dp, (1, 2))
    cert = synthesize_unperturbed(Phi_star, 0.0, (1, 2), 0.3)
    codes = action_codes(horizons)
    policy = OnlinePolicy(cert, transition_table(dp, codes), dp.m, codes, horizons.index((1, 2)))
    return dp, horizons, cert, policy


@pytest.fixture(scope="module")
def online_perturbed():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    horizons = enumerate_horizons(2, 1, 6)
    _, chi = growth_constants(dp, range(1, 7), varpi)
    beta = math.log(10.0) / (4 * 0.18)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    cert = synthesize_perturbed_online(Phi_star, beta, 0.35, (2, 1, 2, 1), 0.18, chi, varpi=0.0, C_prime=0.0)
    codes = action_codes(horizons)
    policy = OnlinePolicy(cert, transition_table(dp, codes), dp.m, codes, horizons.index((2, 1, 2, 1)))
    return dp, horizons, cert, GatedPolicy(policy, cert.P)


def _brute_force_feasible(eta, dp, horizons, cert):
    P = cert.P
    out = []
    for s in horizons:
        Phi = horizon_transition(dp, s)
        if eta @ (Phi.T @ P @ Phi - decay_factor(cert.beta, len(s), cert.T) * P) @ eta <= 0.0:
            out.append(s)
    return out


def test_online_unperturbed_matches_brute_force(online_unperturbed):
    dp, horizons, cert, policy = online_unperturbed
    rng = np.random.default_rng(11)
    for k in range(60):
        eta = rng.normal(scale=rng.uniform(0.5, 20.0), size=4)
        feas = _brute_force_feasible(eta, dp, horizons, cert)
        dec, ties = select_with_ties(policy, eta, rng_seed=0, step_index=k)
        best = max(avg_idle_metric(s, dp.m) for s in feas)
        assert ties == tuple(s for s in feas if avg_idle_metric(s, dp.m) == best)
        assert dec.metric == best
        assert dec.horizon in ties
        assert dec.reason == "certified" and 0 < dec.evaluated <= len(horizons)


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
    first, ties = select_with_ties(policy, eta, rng_seed=42, step_index=7)
    assert first.metric == 1.0
    assert ties == ((0,), (0, 0), (0, 0, 0))  # idle words of lengths 1..3
    assert set(first.horizon) == {0}
    for _ in range(20):
        again = policy.select(eta, rng_seed=42, step_index=7)
        assert again.horizon == first.horizon
    seen = {policy.select(eta, rng_seed=42, step_index=k).horizon for k in range(30)}
    assert len(seen) >= 2  # the counter key actually varies the draw


def test_online_decisions_reuse_each_horizon_tuple(online_unperturbed):
    # a position's tuple is built at the first decision that returns it; later decisions return that object
    _, horizons, _, policy = online_unperturbed
    eta = np.zeros(4)
    first = [policy.select(eta, rng_seed=42, step_index=k).horizon for k in range(30)]
    again = [policy.select(eta, rng_seed=42, step_index=k).horizon for k in range(30)]
    assert all(a is b for a, b in zip(first, again))
    assert 2 <= len(policy.built) and all(policy.built[i] == horizon_list(policy.codes)[i] for i in policy.built)
    assert set(first) <= set(horizons)


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed"])
def test_online_forms_equal_the_per_horizon_formulas(name):
    # byte-identical traces start here: the stacked build must give every
    # kept horizon's own form bit for bit, not merely to rounding; a dropped
    # horizon's form is shown never admissible, exactly
    prep = prepare(preset_config(name))
    policy = prep.policy.policy if isinstance(prep.policy, GatedPolicy) else prep.policy
    cert, P = prep.cert, prep.cert.P
    nn = P.shape[0]
    position = {s: i for i, s in enumerate(horizon_list(policy.codes))}
    dropped, dropped_corners = [], []
    for s in horizon_list(prep.codes):
        Phi = horizon_transition(prep.dp, s)
        rho = decay_factor(cert.beta, len(s), cert.T)
        if isinstance(cert, UnperturbedCertificate):
            form, corner = rho * P - symmetrize(Phi.T @ P @ Phi), 0.0
        else:
            U = U_sigma_builder(P, cert.M, cert.gamma)(Phi, rho, cert.chi[len(s)] ** 2)
            form, corner = U[:nn, :nn], U[nn, nn]
            PM = symmetrize(P) + symmetrize(cert.M)  # the one-horizon block, written out
            assert np.array_equal(form, -symmetrize(Phi.T @ PM @ Phi) + (rho - cert.gamma) * symmetrize(P)), s
        if s in position:
            assert np.array_equal(policy.forms[position[s]], form), s
            assert policy.corners[position[s]] == corner, s
        else:
            dropped.append(form)
            dropped_corners.append(corner)
    assert len(position) == KEPT_FORMS[name] and len(position) + len(dropped) == prep.codes.shape[1]
    if dropped:  # F < 0 and c < 0 in exact arithmetic: eta' F eta + c < 0 at every real eta
        assert definite(-np.array(dropped).astype(object)).all()
        assert max(dropped_corners) < 0


def _random_plant_policy():
    """OnlinePolicy of online-unperturbed on a random 3-state, 3-sensor plant, lengths 1..6."""
    rng = np.random.default_rng(31)
    while True:
        draw = random_schur_stabilizable(rng, n=3)
        if draw is None:
            continue
        plant, T = draw
        config = SimConfig(plant=plant, T=T, l_min=1, l_max=6, mode="online-unperturbed", x0=np.ones(3))
        try:
            return prepare(config).policy
        except (ConfigError, InfeasibleError):
            continue


@pytest.fixture(scope="module")
def online_policies():
    preset = {name: prepare(preset_config(name)) for name in ("online-unperturbed", "online-perturbed")}
    policies = {name: (prep.policy, prep.cert.P) for name, prep in preset.items()}
    random_policy = _random_plant_policy()
    assert random_policy.codes.shape[1] == 5460
    policies["random-3x3"] = (random_policy, None)
    return policies


def _oracle_states(dim: int, P, rng, count: int = 300):
    """(eta, tie-break seed) pairs: eta in a uniform direction, at a log-uniform
    scale over [1e-3, 1e3] or, given P, at V = eta' P eta log-uniform over [1,
    1e4], outside the gate."""
    for _ in range(count):
        d = rng.normal(size=dim)
        if P is None:
            eta = d * 10.0 ** rng.uniform(-3.0, 3.0)
        else:
            eta = d * math.sqrt(10.0 ** rng.uniform(0.0, 4.0) / (d @ P @ d))
        yield eta, int(rng.integers(2**31 - 1))


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed", "random-3x3"])
def test_select_matches_the_full_scan_oracle(online_policies, name):
    # the early exit scores the forms with one product per block, the oracle
    # with two chained products over every form: rounding of the test values
    # differs, so the identity of the decisions is checked, not assumed
    policy, P = online_policies[name]
    online = getattr(policy, "policy", policy)
    reasons = set()
    for k, (eta, seed) in enumerate(_oracle_states(online.forms.shape[1], P, np.random.default_rng(41))):
        dec, ties = select_with_ties(policy, eta, seed, k)
        assert (dec.horizon, dec.metric, ties) == full_scan_select(online, eta, seed, k), k
        assert dec.evaluated in {hi for _, hi in online.blocks}
        reasons.add(dec.reason)
    assert "certified" in reasons


def _keep_every_form(forms, corners):
    return np.ones(len(forms), dtype=bool)


@pytest.fixture(scope="module")
def unpruned_policies():
    """The `OnlinePolicy` of each of `online_policies`, built without the prune: one form per horizon."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triggers, "_admissible_somewhere", _keep_every_form)
        policies = {name: prepare(preset_config(name)).policy for name in ("online-unperturbed", "online-perturbed")}
        policies["random-3x3"] = _random_plant_policy()
    return {name: getattr(policy, "policy", policy) for name, policy in policies.items()}


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed", "random-3x3"])
def test_pruned_select_matches_the_unpruned_full_scan(online_policies, unpruned_policies, name):
    # the prune drops only forms that no state admits: a full scan of every
    # horizon's form picks the same horizon, metric and ties, and the
    # unpruned select the same reason and margin
    policy, P = online_policies[name]
    online, full = getattr(policy, "policy", policy), unpruned_policies[name]
    assert len(online.forms) == KEPT_FORMS[name] and len(full.forms) == full.codes.shape[1]
    reasons = set()
    for k, (eta, seed) in enumerate(_oracle_states(online.forms.shape[1], P, np.random.default_rng(43))):
        dec, ties = select_with_ties(policy, eta, seed, k)
        assert (dec.horizon, dec.metric, ties) == full_scan_select(full, eta, seed, k), k
        unpruned = full.select(eta, seed, k)
        assert (dec.reason, dec.margin) == (unpruned.reason, unpruned.margin), k
        assert dec.evaluated <= unpruned.evaluated
        reasons.add(dec.reason)
    assert reasons == ({"certified", "forced-fallback"} if name == "online-perturbed" else {"certified"})


@pytest.fixture(scope="module")
def pruned_forms(unpruned_policies):
    """The forms, with their corners, that the prune drops from the online-perturbed preset's stack."""
    full = unpruned_policies["online-perturbed"]
    keep = triggers._admissible_somewhere(full.forms, full.corners)
    return full.forms[~keep], full.corners[~keep]


def test_pruned_forms_meet_the_rounding_bound_exactly(pruned_forms):
    # the prune's float verdict, rechecked in Fraction: -F - gamma_{n+1} a I > 0,
    # a = sum |f_ij| < 1 - 2 gamma_n and c <= -(n + 1) eta_min, where the proof needs them
    forms, corners = pruned_forms
    assert len(forms) == 972
    n = forms.shape[1] ** 2
    u = Fraction(np.finfo(float).eps) / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    exact = np.frompyfunc(Fraction, 1, 1)(forms.astype(object))
    a = np.abs(exact).reshape(len(forms), n).sum(axis=1)
    assert (a < 1 - 2 * n * u / (1 - n * u)).all()
    assert definite(-exact, floor=gamma * a).all()
    assert all(Fraction(c) <= -(n + 1) * Fraction(np.finfo(float).smallest_subnormal) for c in corners)


@PROPERTY
@given(st.lists(st.floats(-1.99, 1.99), min_size=4, max_size=4), st.integers(-1100, 511))
@example([0.0, 0.0, 0.0, 0.0], 0)
@example([1.0, -1.0, 0.5, -0.25], -1074)  # subnormal and zero entries
@example([1.99, 1.99, -1.99, 1.99], 511)  # each square just below overflow
def test_no_pruned_form_admits_a_float_state(pruned_forms, direction, exponent):
    # the value select computes, vec(F)' fl(vec(eta eta')) + c, is < 0 from
    # eta = 0 up to squares just below overflow, with no floating-point warning
    forms, corners = pruned_forms
    eta = np.ldexp(np.array(direction), exponent)
    values = forms.reshape(len(forms), -1) @ np.multiply.outer(eta, eta).ravel() + corners
    assert (values < 0.0).all()


def test_no_pruned_form_admits_a_state_whose_square_overflows(pruned_forms):
    # an overflowed eta_i^2 meets F's negative diagonal: -inf or NaN, never >= 0
    forms, corners = pruned_forms
    for eta in ([2.0**600, 1.0, -1.0, 0.0], [2.0**600, -(2.0**600), 2.0**511, 0.0], [np.inf, 0.0, 0.0, 1.0]):
        with np.errstate(over="ignore", invalid="ignore"):
            outer = np.multiply.outer(np.array(eta), np.array(eta)).ravel()
            values = forms.reshape(len(forms), -1) @ outer + corners
        assert not (values >= 0.0).any()


def test_prune_keeps_what_it_cannot_show_never_admissible():
    # negative definite with a negative corner is dropped; a form past the
    # entry-sum bound, an indefinite one and one whose corner is not below
    # -(n + 1) eta_min stay
    eta_min = np.finfo(float).smallest_subnormal
    forms = np.array([-0.1 * np.eye(2), -np.eye(2), np.diag([0.1, -0.1]), -0.1 * np.eye(2), -0.1 * np.eye(2)])
    corners = np.array([-1.0, -1.0, -1.0, -5 * eta_min, -4 * eta_min])
    assert triggers._admissible_somewhere(forms, corners).tolist() == [False, True, True, False, True]
    # and one whose least eigenvalue clears `definite`'s own shift but not the product's rounding bound
    u = np.finfo(float).eps / 2
    near = np.diag([-0.2, -0.2, -0.2, -15 * u])  # tau = 34 u a = 20.4 u > 15 u > definite's 14 u tr(-F) = 8.4 u
    assert definite(-near)
    assert triggers._admissible_somewhere(np.array([-0.2 * np.eye(4), near]), -np.ones(2)).tolist() == [False, True]


def test_sigma_star_form_survives_the_prune(monkeypatch, online_unperturbed):
    # with every other form dropped, select scores sigma* alone and falls back to it
    dp, horizons, cert, _ = online_unperturbed
    monkeypatch.setattr(triggers, "_admissible_somewhere", lambda forms, corners: np.zeros(len(forms), dtype=bool))
    codes = action_codes(horizons)
    policy = OnlinePolicy(cert, transition_table(dp, codes), dp.m, codes, horizons.index((1, 2)))
    assert horizon_list(policy.codes) == [(1, 2)] and policy.blocks == ((0, 1), (1, 1))
    for k, eta in enumerate(np.random.default_rng(5).normal(size=(20, 4))):
        dec = policy.select(eta, 0, k)
        assert dec.horizon == (1, 2) and dec.evaluated == 1 and dec.margin >= 0.0


def test_select_scores_no_empty_block(online_policies):
    # kept <= FORM_CHUNK leaves the split's second block empty: select scores only the first
    for policy, _ in online_policies.values():
        online = getattr(policy, "policy", policy)
        spans = [(lo, hi) for lo, hi, _, _ in online.scored]
        assert all(lo < hi for lo, hi in spans)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == len(online.flat)
    unperturbed = online_policies["online-unperturbed"][0]
    assert unperturbed.blocks == ((0, 39), (39, 39)) and len(unperturbed.scored) == 1


def test_a_forced_fallback_reports_every_kept_form_and_the_margin_bits(monkeypatch):
    # sigma* alone is kept, one block; far outside sigma*'s ellipsoid nothing is admissible
    monkeypatch.setattr(triggers, "_admissible_somewhere", lambda forms, corners: np.zeros(len(forms), dtype=bool))
    dp, codes, phis, star, cert = certify(preset_config("online-perturbed"))
    policy = OnlinePolicy(cert, phis, dp.m, codes, star)
    assert policy.blocks == ((0, 1), (1, 1)) and len(policy.scored) == 1
    fallbacks = 0
    for k, eta in enumerate(np.random.default_rng(7).normal(size=(40, 4)) * 1e3):
        dec = policy.select(eta, 0, k)
        if dec.reason == "forced-fallback":
            outer = (eta[:, None] * eta).ravel()
            assert dec.evaluated == 1 and dec.horizon == horizon_list(codes)[star]
            assert np.float64(dec.margin).tobytes() == (policy.flat[0] @ outer + policy.corners[0]).tobytes()
            fallbacks += 1
    assert fallbacks > 0


def _select_values(online, eta):
    """Every stored form's value at eta, by the block products `select` makes."""
    outer = np.multiply.outer(eta, eta).ravel()
    return np.concatenate([online.flat[lo:hi] @ outer + online.corners[lo:hi] for lo, hi in online.blocks])


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed"])
def test_no_form_is_admitted_below_zero(online_policies, name):
    # bisect to a state where the best form's value, as select computes it,
    # is about -1e-13 |eta|^2: a slack relative to |eta|^2 would admit that
    # form there, with a negative margin
    policy, P = online_policies[name]
    online = getattr(policy, "policy", policy)
    F, corner = online.forms[0], online.corners[0]
    if corner == 0.0:  # unperturbed: F is indefinite; cross from its top to its bottom eigenvector
        V = np.linalg.eigh(F)[1]
        a, b = V[:, -1], V[:, 0]
    else:  # perturbed: F's zero set on a ray, where the ray is outside E(P,1)
        rng = np.random.default_rng(0)
        while True:
            d = rng.normal(size=len(F))
            if d @ F @ d < 0 and corner * (d @ P @ d) > -2.0 * (d @ F @ d):
                break
        t = math.sqrt(corner / -(d @ F @ d))
        a, b = 0.9 * t * d, 1.1 * t * d

    eta = bisect_states(a, b, lambda eta: _select_values(online, eta)[0] >= -1e-13 * (eta @ eta))
    values = _select_values(online, eta)
    assert -1e-11 * (eta @ eta) < values[0] < 0
    assert corner == 0.0 or eta @ P @ eta > 1.0
    dec, ties = select_with_ties(policy, eta, 0, 0)
    if dec.reason == "certified":
        assert dec.margin >= 0
        assert all(values[horizon_list(online.codes).index(s)] >= 0 for s in ties)
    else:
        assert dec.reason == "forced-fallback" and (values < 0).all()


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed", "random-3x3"])
def test_a_certified_margin_has_the_bits_of_the_block_product_at_its_position(online_policies, name):
    # select adds the corners to its block product in place: the margin it reports
    # is, bit for bit, the product-plus-corner value at the chosen position
    policy, P = online_policies[name]
    online = getattr(policy, "policy", policy)
    position = {s: i for i, s in enumerate(horizon_list(online.codes))}
    certified = 0
    for k, (eta, seed) in enumerate(_oracle_states(online.forms.shape[1], P, np.random.default_rng(47))):
        dec = policy.select(eta, seed, k)
        if dec.reason == "certified":
            assert dec.margin.hex() == float(_select_values(online, eta)[position[dec.horizon]]).hex(), k
            certified += 1
    assert certified


@pytest.fixture(scope="module")
def gated_policies(online_policies, prepared_offline_perturbed):
    """The gated policy of each perturbed preset."""
    return {
        "online-perturbed": online_policies["online-perturbed"][0],
        "offline-perturbed": prepared_offline_perturbed[1].policy,
    }


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_the_gate_idles_exactly_where_eta_P_eta_is_at_most_one(gated_policies, name):
    # bisect to the E(P,1) boundary along random rays; at the crossing and a few
    # ulps to either side, the gate idles exactly where eta @ P @ eta <= 1.0
    policy = gated_policies[name]
    P = policy.P
    assert isinstance(policy, GatedPolicy)

    def inside(eta):
        return eta @ P @ eta <= 1.0

    rng = np.random.default_rng(53)
    seen = set()
    for _ in range(40):
        d = rng.normal(size=len(P))
        d /= math.sqrt(d @ P @ d)
        edge = bisect_states(0.5 * d, 2.0 * d, inside)
        states = [edge]
        for target in (0.0 * d, 2.0 * d):
            eta = edge
            for _ in range(3):
                eta = np.nextafter(eta, target)
                states.append(eta)
        for eta in states:
            gated = policy.select(eta, 0, 0).reason == "gate"
            assert gated == inside(eta)
            seen.add(gated)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["online-unperturbed", "online-perturbed", "random-3x3"])
def test_online_policy_stores_horizons_in_metric_order(online_policies, name):
    online = getattr(online_policies[name][0], "policy", online_policies[name][0])
    metrics = online.metrics
    horizons = horizon_list(online.codes)
    assert np.all(np.diff(metrics) <= 0.0)
    assert np.array_equal(metrics, [avg_idle_metric(s, online.m) for s in horizons])
    levels = {}
    for s, value in zip(horizons, metrics):
        levels.setdefault(value, []).append(s)
    rank = {s: i for i, s in enumerate(enumerate_horizons(online.m, 1, max(map(len, horizons))))}
    for members in levels.values():
        assert [rank[s] for s in members] == sorted(rank[s] for s in members)
    # each position's level end, and the first block ends at the first level end at or past FORM_CHUNK
    H = len(metrics)
    for i, end in enumerate(online.level_end):
        assert metrics[end - 1] == metrics[i] and (end == H or metrics[end] < metrics[i])
    level_ends = [i + 1 for i in np.flatnonzero(np.diff(metrics))] + [H]
    split = min(end for end in level_ends if end >= FORM_CHUNK) if H >= FORM_CHUNK else H
    assert online.blocks == ((0, split), (split, H))


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
            P=P, M=P, gamma=0.5, chi={l: 0.1 * l for l in range(1, 7)}, varpi=0.1, C_prime=1.0, mu=1.0,
            sigma_star=star, beta=0.0, T=T,
        )
    else:
        cert = UnperturbedCertificate(P=P, beta=0.0, T=T, sigma_star=star)
    tracemalloc.start()
    try:
        codes = action_codes(horizons)
        phis = transition_table(dp, codes)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        policy = OnlinePolicy(cert, phis, dp.m, codes, horizons.index(star))
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
    assert dec.evaluated == 0 and dec.reason == "gate" and dec.margin is None


def test_online_perturbed_outside_matches_quadratic_test(online_perturbed):
    dp, horizons, cert, policy = online_perturbed
    u_sigma = U_sigma_builder(cert.P, cert.M, cert.gamma)
    U_all = {}
    for s in horizons:
        rho = decay_factor(cert.beta, len(s), cert.T)
        U_all[s] = u_sigma(horizon_transition(dp, s), rho, cert.chi[len(s)] ** 2)
    rng = np.random.default_rng(21)
    for k in range(40):
        eta = rng.normal(size=4)
        # rescale in the P-norm so the state sits outside the idle ellipsoid
        eta *= rng.uniform(1.5, 10.0) / math.sqrt(eta @ cert.P @ eta)
        assert eta @ cert.P @ eta > 1.0
        v = np.concatenate([eta, [1.0]])
        feas = [s for s in horizons if v @ U_all[s] @ v >= 0.0]
        if not feas:
            feas = [(2, 1, 2, 1)]
        dec, ties = select_with_ties(policy, eta, rng_seed=1, step_index=k)
        best = max(avg_idle_metric(s, dp.m) for s in feas)
        assert ties == tuple(s for s in feas if avg_idle_metric(s, dp.m) == best)
        assert dec.horizon in ties
        assert dec.metric == best


def test_offline_table_shape_and_lookup(prepared_offline_unperturbed):
    cfg, prep, _ = prepared_offline_unperturbed
    dp, regions, table, policy = prep.dp, prep.regions, prep.table, prep.policy
    assert isinstance(policy, TablePolicy) and policy is table
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


def test_offline_table_entries_are_certified(prepared_offline_unperturbed):
    # every tabulated horizon must re-pass its own S-procedure feasibility
    _, prep, _ = prepared_offline_unperturbed
    dp, cert, regions, table = prep.dp, prep.cert, prep.regions, prep.table
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
    dp, horizons, cert, regions, table, policy = (
        prep.dp, horizon_list(prep.codes), prep.cert, prep.regions, prep.table, prep.policy
    )
    assert isinstance(policy, GatedPolicy) and policy.policy is table
    lam_hi = max(np.linalg.eigvalsh(cert.P))
    inside = np.ones(4) * (0.5 / math.sqrt(lam_hi * 4.0))
    dec = policy.select(inside, rng_seed=0)
    assert dec.horizon == (0,)
    assert (dec.reason, dec.metric) == ("gate", avg_idle_metric((0,), dp.m))
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
                cert.chi[len(s)], reg.Q,
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
            cert.chi[len(s)], reg.Q,
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
    dp, regions, table = prep.dp, prep.regions, prep.table
    data = table_to_dict(table)
    assert set(data) == {"m", "regions"}
    assert data["m"] == dp.m
    assert len(data["regions"]) == len(regions)
    for entry, ties, value in zip(data["regions"], table.psi, table.metric):
        assert entry["metric"] == value
        assert tuple(horizon_from_text(t) for t in entry["psi"]) == ties


def _pair_verdicts(certified, regions):
    """Every (region, horizon) verdict of the one-pair region tests."""
    _, codes, phis, _, cert = certified
    horizons = horizon_list(codes)
    verdicts = np.zeros((len(regions), len(horizons)), dtype=bool)
    for j, s in enumerate(horizons):
        bbar = decay_factor(cert.beta, len(s), cert.T)
        for r, reg in enumerate(regions):
            if isinstance(cert, UnperturbedCertificate):
                eps = sprocedure_feasible(phis[j], cert.P, bbar, reg.Q)
            else:
                eps = max_eps_feasible(
                    cert.P, cert.gamma1, cert.gamma2, phis[j], bbar, cert.chi[len(s)], reg.Q
                )
            verdicts[r, j] = eps is not None
    return verdicts


def _batched_verdicts(certified, regions):
    """Every (region, horizon) verdict of one `region_multipliers` call on the stacked region forms."""
    _, codes, phis, _, cert = certified
    forms = region_forms(cert, codes, phis)
    verdicts = np.zeros((len(regions), codes.shape[1]), dtype=bool)
    verdicts[:, forms.index] = ~np.isnan(region_multipliers(forms, np.array([reg.Q for reg in regions])))
    return forms, verdicts


# the benchmark's offline presets, with lengths cut to 4 (120 and 108 horizons)
CUT_PRESETS = {
    "offline-unperturbed-cut": ("offline-unperturbed", dict(l_max=4, sigma_star=(1, 2, 1, 2))),
    "offline-perturbed-cut": ("offline-perturbed", dict(l_max=4)),
}


def _certified(case, request):
    """`certify`'s (dp, codes, phis, star, cert) of a fixture's or a cut preset's config, and its regions."""
    if case in CUT_PRESETS:
        name, changes = CUT_PRESETS[case]
        config = dataclasses.replace(preset_config(name), **changes)
    else:
        config = request.getfixturevalue(case)[0]
    return certify(config), make_partition(2 * config.plant.n, config.N)


@pytest.mark.parametrize("case", ["prepared_offline_unperturbed", "prepared_offline_perturbed", *CUT_PRESETS])
def test_batched_region_test_matches_the_pair_tests(case, request):
    # the table builder decides each region for all horizons at once, from
    # batched pencil ends; the one-pair tests solve each generalized pencil
    # on its own, and the perturbed one also reduces U_c to its Schur form
    certified, regions = _certified(case, request)
    forms, batched = _batched_verdicts(certified, regions)
    np.testing.assert_array_equal(batched, _pair_verdicts(certified, regions))
    assert batched.any()
    if case == "prepared_offline_perturbed":
        # u22 fails for the long horizons on every region, before any region work
        pruned = np.setdiff1d(np.arange(certified[1].shape[1]), forms.index)
        assert pruned.size > 0 and not batched[:, pruned].any()


@pytest.mark.parametrize("fixture", ["prepared_offline_unperturbed", "prepared_offline_perturbed"])
def test_batched_region_test_on_capped_cones(fixture, request):
    # make_partition(4, 3) caps the half-angle at pi/2: cos^2 theta is ~4e-33,
    # Q_c is singular to working precision, and the batched pencil must keep
    # the finite ends and drop the ones that are only rounding
    certified, _ = _certified(fixture, request)
    regions = make_partition(4, 3)
    assert math.cos(regions[0].half_angle) ** 2 < 1e-30
    _, batched = _batched_verdicts(certified, regions)
    np.testing.assert_array_equal(batched, _pair_verdicts(certified, regions))


def _random_offline_certificates(count: int):
    """`certify`'s results of the first count seeded random Schur-stabilizable plants that certify
    offline, each with 8 regions."""
    rng = np.random.default_rng(19)
    certified = []
    while len(certified) < count:
        draw = random_schur_stabilizable(rng)
        if draw is None:
            continue
        plant, T = draw
        config = SimConfig(plant=plant, T=T, l_min=1, l_max=5, mode="offline-unperturbed", x0=np.ones(2), N=8)
        try:
            certified.append((certify(config), make_partition(2 * plant.n, config.N)))
        except (ConfigError, InfeasibleError):
            continue
    return certified


def _table_cases(case, request):
    """(`certify` result, regions) pairs of one case of the pruned-table tests."""
    if case == "random-plants":
        return _random_offline_certificates(10)
    certified, regions = _certified(case, request)
    if case in CUT_PRESETS:
        return [(certified, regions)]
    return [(certified, regions)] + [(certified, make_partition(4, N)) for N in (1, 2, 3, 5, 8, 30)]


TABLE_CASES = ["prepared_offline_unperturbed", "prepared_offline_perturbed", *CUT_PRESETS, "random-plants"]


@pytest.mark.parametrize("case", TABLE_CASES)
def test_pruned_table_equals_the_unpruned_table(case, request):
    # the table builder rejects pairs on the cone's axis before any pencil;
    # the oracle sends every pair of every region through the pencil
    for (dp, codes, phis, star, cert), regions in _table_cases(case, request):
        table = TablePolicy(cert, phis, dp.m, regions, codes, star)
        psi, metric = unpruned_table(cert, horizon_list(codes), phis, dp.m, regions)
        assert table.psi == psi
        assert table.metric == metric
        assert len(table.certified) == len(regions)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_stacked_region_call_matches_single_form_calls(case, request):
    # one call on the (R, d, d) stack returns (R, K), each row bit for bit the
    # row of a call on that region's form alone and of the unfiltered pencil
    # pass, NaN at the same pairs
    for (_, codes, phis, _, cert), regions in _table_cases(case, request):
        forms = region_forms(cert, codes, phis)
        stacked = region_multipliers(forms, np.array([reg.Q for reg in regions]))
        single = np.array([region_multipliers(forms, reg.Q) for reg in regions])
        assert stacked.shape == single.shape == (len(regions), len(forms.index))
        np.testing.assert_array_equal(stacked, single)
        np.testing.assert_array_equal(stacked, [unfiltered_region_multipliers(forms, reg.Q) for reg in regions])


def test_table_lookup_miss_falls_back_to_sigma_star(prepared_offline_unperturbed):
    # one narrow cone around e1 leaves e2 uncovered: a miss must take the
    # globally certified fallback, not the entries of the nearest region
    dp, codes, phis, star, cert = certify(prepared_offline_unperturbed[0])
    theta = 0.1
    e1 = np.eye(4)[0]
    Q = np.outer(e1, e1) - math.cos(theta) ** 2 * np.eye(4)
    regions = [ConicRegion(index=0, direction=e1, half_angle=theta, Q=Q)]
    policy = TablePolicy(cert, phis, dp.m, regions, codes, star)
    sigma_star = tuple(cert.sigma_star)
    assert len(policy.psi) == len(policy.metric) == 1 and sigma_star not in policy.psi[0]
    hole = 3.0 * np.eye(4)[1]
    assert region_of(hole, regions) is None
    dec = policy.select(hole, rng_seed=0)
    assert dec.horizon == sigma_star
    assert dec.metric == avg_idle_metric(sigma_star, dp.m)
    assert (dec.reason, dec.region, dec.evaluated) == ("table-miss", None, 0)
    dec = policy.select(2.0 * e1, rng_seed=0)
    assert (dec.reason, dec.region) == ("table", 0)
    assert dec.horizon in policy.psi[0] and dec.metric == policy.metric[0]


def test_tie_break_skips_the_generator_for_a_lone_tie(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lone tie needs no generator")

    monkeypatch.setattr(np.random, "Philox", refuse)
    assert _tie_break(((1, 2),), 3, 4) == (1, 2)
    assert _tie_break(np.array([17]), 0, 0) == 17


def test_tie_break_draws_from_the_keyed_generator():
    rng = np.random.default_rng(5)
    for i in range(200):
        seed, step = (int(v) for v in rng.integers(0, 2**31, size=2))
        ties = tuple(range(10, 12 + i % 6))  # 2 to 7 ties
        expect = np.random.Generator(np.random.Philox(key=[seed, step])).integers(len(ties))
        assert _tie_break(ties, seed, step) == ties[expect]


def _numpy_draw(n: int, seed: int, step: int) -> int:
    return int(np.random.Generator(np.random.Philox(key=[seed, step])).integers(n))


def test_tie_break_matches_numpy_at_negative_and_extreme_seeds():
    # numpy keys a negative seed mod 2**64; the ends of the accepted range included
    rng = np.random.default_rng(34)
    seeds = [-(2**63), 2**63 - 1, -1, *(int(s) for s in rng.integers(-(2**63), 0, size=60))]
    for seed in seeds:
        for step in (0, 1, 99, 2**40):
            for n in (2, 3, 7, 1000):
                assert _tie_break(range(n), seed, step) == _numpy_draw(n, seed, step), (seed, step, n)


def test_tie_break_matches_numpy_for_tie_counts_up_to_a_million():
    rng = np.random.default_rng(35)
    counts = [*range(2, 200), *np.unique(np.geomspace(200, 10**6, 300).astype(int)).tolist(), 10**6]
    for n in counts:
        for _ in range(4):
            seed, step = int(rng.integers(-(2**63), 2**63)), int(rng.integers(0, 10**5))
            assert _tie_break(range(n), seed, step) == _numpy_draw(n, seed, step), (seed, step, n)


# (n, seed, step): draws whose Lemire rejections use up the eight 32-bit words
# of the first counter block and read the second
SECOND_BLOCK = [
    (2**31 + 1, 154, 150),
    (2**31 + 1, 154, 493),
    (2**31 + 1, 154, 518),
    (3 * 2**30 + 7, 154, 87757),
    (3 * 2**30 + 7, 154, 90714),
    (3 * 2**30 + 7, 154, 206285),
]


@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30 + 7, 2**32])
def test_tie_break_matches_numpy_on_rejection_heavy_and_full_ranges(n):
    # 2**31 + 1 rejects nearly half its words; 2**32 takes a whole word unbounded
    rng = np.random.default_rng(n % 1000)
    for _ in range(300):
        seed, step = int(rng.integers(-(2**63), 2**63)), int(rng.integers(0, 10**5))
        assert _tie_break(range(n), seed, step) == _numpy_draw(n, seed, step), (seed, step)


@pytest.mark.parametrize("n, seed, step", SECOND_BLOCK)
def test_tie_break_reads_the_second_counter_block_as_numpy_does(monkeypatch, n, seed, step):
    counters = []
    block = triggers._philox4x64

    def spy(counter, k0, k1):
        counters.append(counter)
        return block(counter, k0, k1)

    monkeypatch.setattr(triggers, "_philox4x64", spy)
    assert _tie_break(range(n), seed, step) == _numpy_draw(n, seed, step)
    assert counters == [1, 2]


def test_tie_break_builds_no_numpy_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a tie-break draw needs no numpy generator")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    draws = {_tie_break(("a", "b", "c"), 154, k) for k in range(40)}
    assert draws == {"a", "b", "c"}
    assert _tie_break(np.array([4, 9]), -7, 3) in (4, 9)
    assert 0 <= _tie_break(range(2**32), 1, 2) < 2**32
