import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from asynctrig import certificates
from asynctrig.certificates import (
    PerturbedOfflineCertificate,
    PerturbedOnlineCertificate,
    UnperturbedCertificate,
    build_U_c,
    certificate_from_dict,
    certificate_to_dict,
    choose_sigma_star,
    conditions,
    decay_factor,
    perturbed_forms,
    reverify_certificate,
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
    ultimate_bound,
    young_gain,
)
from asynctrig.errors import ConfigError, InfeasibleError
from asynctrig.horizons import enumerate_horizons, rotation_classes
from asynctrig.matrix_core import definite, spectral_radius, sym_eig_bounds, symmetrize
from asynctrig.partition import region_multipliers
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    transition_table,
)
from asynctrig.presets import PRESET_NAMES, preset_config
from asynctrig.simulation import certify
from helpers import (
    M_REF,
    P_REF,
    SINGULAR_GRAM,
    U_c_oracle,
    U_sigma_builder,
    action_codes,
    assembled_prune,
    benchmark_plant,
    full_scan_sigma_star,
    horizon_transition,
    online_pair_holds,
    random_schur_stabilizable,
    regioned_U_c,
    scan_perturbed_offline,
    scan_perturbed_online,
    wide_config,
)

NO_DISTURBANCE = dict(varpi=0.0, C_prime=0.0)


def _phi_star_unperturbed():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    return horizon_transition(dp, (1, 2))


def test_choose_sigma_star_picks_smallest_radius():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    horizons = enumerate_horizons(2, 1, 2)
    codes = action_codes(horizons)
    star = horizons[choose_sigma_star(transition_table(dp, codes), codes)]
    best = min(spectral_radius(horizon_transition(dp, s)) for s in horizons)
    assert spectral_radius(horizon_transition(dp, star)) == pytest.approx(best)


def test_choose_sigma_star_first_wins_on_exact_tie():
    # the same transition listed twice: the earlier horizon is the fallback
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    idle, best = horizon_transition(dp, (0,)), horizon_transition(dp, (1, 2))
    assert spectral_radius(best) < spectral_radius(idle)
    assert choose_sigma_star(np.array([idle, best, best]), action_codes([(0,), (1, 2), (2, 1)])) == 1
    assert choose_sigma_star(np.array([best, best, idle]), action_codes([(2, 1), (1, 2), (0,)])) == 0


def test_choose_sigma_star_rejects_empty_set():
    with pytest.raises(InfeasibleError, match="empty"):
        choose_sigma_star(np.empty((0, 4, 4)), action_codes([]))


def test_choose_sigma_star_rejects_overflowed_products():
    # e^300 per period: the three-step products of this unstable plant overflow
    dp = DiscretePlant.from_plant(PlantModel(A=[[300.0]], B=[[1.0]], K=[[-1.0]], blocks=(1,)), 1.0)
    codes = action_codes(enumerate_horizons(1, 1, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        phis = transition_table(dp, codes)
    assert np.isfinite(phis[:6]).all() and not np.isfinite(phis[6:]).all()
    with pytest.raises(ValueError, match="must be finite"):
        choose_sigma_star(phis, codes)


def test_choose_sigma_star_matches_the_full_scan_on_the_wide_horizons_plant():
    config = wide_config(15)
    dp = DiscretePlant.from_plant(config.plant, config.T)
    horizons = enumerate_horizons(dp.m, 1, 7)
    codes = action_codes(horizons)
    phis = transition_table(dp, codes)
    assert horizons[choose_sigma_star(phis, codes)] == full_scan_sigma_star(horizons, phis)


def test_choose_sigma_star_matches_the_full_scan_on_random_plants():
    rng = np.random.default_rng(15)
    plants = {2: 0, 3: 0}
    while min(plants.values()) < 50:
        n = min(plants, key=plants.get)
        draw = random_schur_stabilizable(rng, n=n)
        if draw is None:
            continue
        dp = DiscretePlant.from_plant(*draw)
        horizons = enumerate_horizons(n, 1, 6 if n == 2 else 5)
        codes = action_codes(horizons)
        phis = transition_table(dp, codes)
        assert horizons[choose_sigma_star(phis, codes)] == full_scan_sigma_star(horizons, phis)
        plants[n] += 1


def test_choose_sigma_star_rechecks_rotations_at_roundoff_level(monkeypatch):
    # XY is nilpotent, so XY and YX have radius 0 and their computed radii are
    # roundoff; Z's exact radius lies between the two.  Z's class sets the
    # least radius, and only the absolute floor brings (2, 1) into the recheck
    rng = np.random.default_rng(0)
    X, Q = rng.normal(size=(2, 6, 6))
    J = np.diag([1.0, 0, 0, 0, 0], 1)
    Y = np.linalg.solve(X, Q @ J @ np.linalg.inv(Q))
    XY, YX = X @ Y, Y @ X
    r_xy, r_yx = (spectral_radius(M) for M in (XY, YX))
    assert r_xy != r_yx and max(r_xy, r_yx) < 1e-6
    pair = [XY, YX] if r_xy > r_yx else [YX, XY]  # the larger radius first: it represents the class
    Z = np.diag([(r_xy + r_yx) / 2, 0, 0, 0, 0, 0])
    horizons, phis = [(0,), (1, 2), (2, 1)], np.array([Z] + pair)
    codes = action_codes(horizons)
    assert full_scan_sigma_star(horizons, phis) == (2, 1)
    assert horizons[choose_sigma_star(phis, codes)] == (2, 1)
    monkeypatch.setattr(certificates, "SIGMA_STAR_ATOL", 0.0)
    assert horizons[choose_sigma_star(phis, codes)] == (0,)


def _class_representatives(dp, l_max):
    horizons = enumerate_horizons(dp.m, 1, l_max)
    codes = action_codes(horizons)
    return transition_table(dp, codes)[rotation_classes(codes)[1]]


def test_power_bounds_enclose_the_computed_radius_of_every_class():
    config = wide_config(15)
    stacks = [_class_representatives(DiscretePlant.from_plant(config.plant, config.T), 7)]
    rng = np.random.default_rng(35)
    while len(stacks) < 51:
        n = 2 + len(stacks) % 2
        draw = random_schur_stabilizable(rng, n=n)
        if draw is not None:
            stacks.append(_class_representatives(DiscretePlant.from_plant(*draw), 6 if n == 2 else 5))
    for phis in stacks:
        lower, upper = certificates._power_bounds(phis)
        radii = certificates._radii(phis)
        assert (lower <= radii).all() and (radii <= upper).all()
        assert (lower > 0).any()


def test_power_bounds_stay_below_the_exact_radius():
    # diagonal and Jordan-block matrices, whose radii are known exactly: lb = rho
    # for lambda I but for the rounding term, and a nilpotent block has lb = rho = 0
    rng = np.random.default_rng(7)
    mats, rho = [], []
    for lam in (0.5, -0.9, 1.3, 1e-3, 0.0, 7.0):
        for size in (1, 3, 6):
            J = lam * np.eye(6) + np.diag(np.r_[np.ones(size - 1), np.zeros(6 - size)], 1)
            mats.append(J)
            rho.append(abs(lam))
        mats.append(lam * np.eye(6))
        rho.append(abs(lam))
    for _ in range(40):
        eigs = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.0, 2.0, 6)
        mats.append(np.diag(eigs))
        rho.append(np.abs(eigs).max())
    lower, upper = certificates._power_bounds(np.array(mats))
    assert (lower <= np.array(rho)).all() and (np.array(rho) <= upper).all()
    assert lower[np.array(rho) == 0].max() == 0.0


def test_choose_sigma_star_never_drops_an_overflowing_power(monkeypatch):
    # N is nilpotent but its rounded square is inf - inf: its power gives no bound,
    # so its class is solved although the other class's upper bound is far smaller
    N = np.array([[2.0**530, 2.0**530], [-(2.0**530), -(2.0**530)]])
    small = np.diag([0.5, 0.25])
    lower, upper = certificates._power_bounds(np.array([N, 1e20 * np.eye(2), small]))
    assert lower[:2].tolist() == [0.0, 0.0] and upper[:2].tolist() == [math.inf, math.inf]
    assert lower[2] > 0.0 and upper[2] < 1.0
    radii, solved = certificates._radii, []

    def spy(phis):
        solved.extend(phis)
        return radii(phis)

    monkeypatch.setattr(certificates, "_radii", spy)
    choose_sigma_star(np.array([small, N]), action_codes([(1,), (2,)]))
    assert any(np.array_equal(Phi, N) for Phi in solved)


def test_choose_sigma_star_solves_only_the_classes_that_can_win(monkeypatch):
    # 21 844 horizons in 3 360 rotation classes; the power bounds keep a few hundred
    config = wide_config(15)
    dp = DiscretePlant.from_plant(config.plant, config.T)
    horizons = enumerate_horizons(dp.m, 1, 7)
    codes = action_codes(horizons)
    phis = transition_table(dp, codes)
    radii, solved = certificates._radii, []

    def spy(stack):
        solved.append(len(stack))
        return radii(stack)

    monkeypatch.setattr(certificates, "_radii", spy)
    assert horizons[choose_sigma_star(phis, codes)] == full_scan_sigma_star(horizons, phis)
    assert sum(solved) < 400, solved


def test_unperturbed_certificate_decay_margin():
    Phi = _phi_star_unperturbed()
    cert = synthesize_unperturbed(Phi, 0.0, (1, 2), 0.3)
    lo, _ = sym_eig_bounds(cert.P)
    assert lo > 0
    G = symmetrize(Phi.T @ cert.P @ Phi) - cert.P
    _, hi = sym_eig_bounds(G)
    assert hi <= -1e-9
    # unit right-hand side makes the margin exactly 1
    assert hi == pytest.approx(-1.0, rel=1e-9)


def test_unperturbed_rejects_noncontractive_fallback():
    with pytest.raises(InfeasibleError, match="spectral radius"):
        synthesize_unperturbed(np.diag([1.0, 0.5]), 0.0, (1,), 1.0)
    # decay demand beyond the horizon's contraction
    Phi = _phi_star_unperturbed()  # sr ~ 0.991
    with pytest.raises(InfeasibleError):
        synthesize_unperturbed(Phi, 1.0, (1, 2), 0.3)


def test_online_pair_conditions_known_values():
    # P = M = I, chi = 1 and Phi* = 0; beta = 0 and T = 1 make bbar = 1 exactly, so
    # L1 = (gamma - 1) I and L2 = [[I, I], [I, (gamma - 1) I]]: gamma 2 holds, 0.5 fails
    I = np.eye(2)

    def cert(gamma):
        return PerturbedOnlineCertificate(
            P=I, M=I, gamma=gamma, chi={1: 1.0}, varpi=0.0, C_prime=0.0, mu=0.0, sigma_star=(1,), beta=0.0, T=1.0
        )

    assert online_pair_holds(cert(2.0), np.zeros((2, 2)), 1e-9)
    assert not online_pair_holds(cert(0.5), np.zeros((2, 2)), 1e-9)


def test_perturbed_online_scalar_toy():
    # Phi = 0 forces LMI1 to (bbar - gamma)P <= 0, so gamma must beat bbar
    Phi = np.zeros((1, 1))
    cert = synthesize_perturbed_online(Phi, 0.0, 1.5, (1,), 1.0, {1: 1.0}, **NO_DISTURBANCE)
    assert reverify_certificate(cert, Phi)
    with pytest.raises(InfeasibleError):
        synthesize_perturbed_online(Phi, 0.0, 0.5, (1,), 1.0, {1: 1.0}, **NO_DISTURBANCE)


def test_perturbed_online_self_verification_random():
    rng = np.random.default_rng(77)
    beta = math.log(2.0)  # bbar = 0.5 over a unit horizon
    for _ in range(50):
        Phi = rng.normal(size=(4, 4))
        Phi *= rng.uniform(0.1, 0.6) / spectral_radius(Phi)
        chi = float(rng.uniform(0.05, 5.0))
        cert = synthesize_perturbed_online(Phi, beta, 1.0, (1,), 1.0, {1: chi}, **NO_DISTURBANCE)
        assert reverify_certificate(cert, Phi)


def test_young_gain_known_values_and_rejects_an_indefinite_M():
    I = np.eye(2)
    assert young_gain(I, I) == 2.0  # P M^-1 P + P = 2 I
    assert young_gain(np.diag([1.0, 2.0]), np.diag([4.0, 1.0])) == 6.0  # diag(1/4 + 1, 4 + 2)
    for M in (np.zeros((2, 2)), np.diag([1.0, -1.0])):
        with pytest.raises(ValueError, match="M must be positive definite"):
            young_gain(I, M)


def test_build_U_sigma_known_values():
    I = np.eye(2)
    U = U_sigma_builder(I, I, 1.0)(np.zeros((2, 2)), 1.0, 0.0)
    assert U.shape == (3, 3)
    assert np.allclose(U[:2, :2], np.zeros((2, 2)))
    assert U[2, 2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        U_sigma_builder(I, np.zeros((2, 2)), 1.0)


def test_build_U_sigma_matches_summand_recomputation():
    # quadratic form value must equal the two summands computed independently
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    horizons = enumerate_horizons(2, 1, 4)
    _, chi = growth_constants(dp, range(1, 5), varpi)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    beta = math.log(10.0) / (4 * 0.18)
    cert = synthesize_perturbed_online(Phi_star, beta, 0.35, (2, 1, 2, 1), 0.18, chi, **NO_DISTURBANCE)
    rng = np.random.default_rng(4)
    Minv = np.linalg.inv(cert.M)
    lam_bar = max(np.linalg.eigvalsh(symmetrize(cert.P @ Minv @ cert.P) + cert.P))
    for _ in range(100):
        sigma = horizons[rng.integers(len(horizons))]
        Phi = horizon_transition(dp, sigma)
        bbar = decay_factor(beta, len(sigma), 0.18)
        U = U_sigma_builder(cert.P, cert.M, 0.35)(Phi, bbar, chi[len(sigma)] ** 2)
        eta = rng.normal(scale=rng.uniform(0.1, 10.0), size=4)
        v = np.concatenate([eta, [1.0]])
        got = v @ U @ v
        term1 = -eta @ Phi.T @ (cert.P + cert.M) @ Phi @ eta + (bbar - 0.35) * (eta @ cert.P @ eta)
        term2 = 0.35 - chi[len(sigma)] ** 2 * lam_bar
        assert got == pytest.approx(term1 + term2, rel=1e-9, abs=1e-9)


def test_build_U_c_block_layout():
    # P = diag(1, 2, 3, 4), Phi = 0.5 I + e1 e2', gamma1 = 0.1, gamma2 = 0.2,
    # bbar = 1, chi = 4: u11 = 0.9 P - Phi'P Phi, u21 = -P Phi and u22 =
    # 0.05 I - P, and nothing else; the corner gamma1 - gamma2 is not stored
    P = np.diag([1.0, 2.0, 3.0, 4.0])
    Phi = 0.5 * np.eye(4)
    Phi[0, 1] = 1.0
    U = build_U_c(P, 0.1, 0.2, Phi, 1.0, 4.0)
    assert U.shape == (8, 8)
    assert np.allclose(U[:4, :4], 0.9 * P - Phi.T @ P @ Phi)
    assert np.allclose(U[4:, :4], -P @ Phi)
    assert np.allclose(U[4:, 4:], 0.05 * np.eye(4) - P)
    assert np.array_equal(U, U.T)
    # a stack of horizons with their own bbar and chi gives a stack of the same blocks
    stack = build_U_c(P, 0.1, 0.2, np.stack([Phi, np.zeros((4, 4))]), np.array([1.0, 0.5]), np.array([4.0, 2.0]))
    assert stack.shape == (2, 8, 8)
    assert np.array_equal(stack[0], U)
    assert np.allclose(stack[1], build_U_c(P, 0.1, 0.2, np.zeros((4, 4)), 0.5, 2.0))


def test_build_U_c_matches_the_written_out_blocks_on_random_stacks():
    # the stacked np.block assembly against `U_c_oracle`, one horizon at a time;
    # both round the same products, maybe in another order, so the entries
    # agree to 1e-12 of the largest one
    rng = np.random.default_rng(26)
    for nn in (2, 4, 6):
        X = rng.normal(size=(nn, nn))
        P = X @ X.T
        phis = rng.normal(size=(7, nn, nn))
        bbars, chis = rng.uniform(0.1, 1.0, size=7), rng.uniform(0.01, 5.0, size=7)
        gamma1, gamma2 = rng.uniform(0.0, 0.5, size=2)
        stack = build_U_c(P, gamma1, gamma2, phis, bbars, chis)
        for k in range(7):
            want = U_c_oracle(P, gamma1, gamma2, phis[k], bbars[k], chis[k])
            np.testing.assert_allclose(stack[k], want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_perturbed_offline_synthesis_eigencheck():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    _, chi_lin = growth_constants(dp, range(3, 7), varpi)
    Phi_star = horizon_transition(dp, (1, 2, 2))
    cert = synthesize_perturbed_offline(Phi_star, 0.0, 0.3, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    U = build_U_c(cert.P, 0.3, 0.1, Phi_star, 1.0, chi_lin[3])
    lo, _ = sym_eig_bounds(U)
    assert lo > 0
    with pytest.raises(ValueError):
        synthesize_perturbed_offline(Phi_star, 0.0, -0.3, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    with pytest.raises(InfeasibleError):
        # gamma1 >= bbar leaves no decay budget at all
        synthesize_perturbed_offline(Phi_star, 0.0, 1.0, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    # the corner gamma1 - gamma2 depends on no scale: gamma2 > gamma1 is a
    # configuration error, however small the excess, and reverify decides the
    # corner exactly: gamma1 = gamma2 passes, gamma2 one ulp above fails
    for gamma2 in (0.1 + 2e-9, 0.1 + 5e-10):
        with pytest.raises(ValueError, match="gamma2 must not exceed gamma1"):
            synthesize_perturbed_offline(Phi_star, 0.0, 0.1, gamma2, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    equal = synthesize_perturbed_offline(Phi_star, 0.0, 0.1, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    assert reverify_certificate(equal, Phi_star)
    assert not reverify_certificate(dataclasses.replace(equal, gamma2=math.nextafter(0.1, 1.0)), Phi_star)


def _outcome(synthesize, *args, **kwargs):
    """The synthesis result, or None where it raises InfeasibleError or, for
    gamma2 > gamma1, the offline synthesis's ValueError."""
    try:
        return synthesize(*args, **kwargs)
    except InfeasibleError:
        return None
    except ValueError as exc:
        if "gamma2 must not exceed gamma1" not in str(exc):
            raise
        return None


def test_constructed_scales_match_the_scans():
    # the one-alpha online pair and the pencil-rounded offline scale must
    # give bit for bit what the scans found, or fail where they failed
    rng = np.random.default_rng(12)
    seen = dict.fromkeys(["online", "online-infeasible", "offline", "gamma2>gamma1", "budget", "scale"], 0)
    for _ in range(300):
        nn = int(rng.choice([2, 4, 6]))
        Phi = rng.normal(size=(nn, nn))
        Phi *= rng.uniform(0.05, 0.99) / spectral_radius(Phi)
        sigma = (1,) * int(rng.integers(1, 5))
        T, beta = rng.uniform(0.05, 0.3), rng.uniform(0.0, 2.0)
        gamma, chi = rng.uniform(0.01, 2.0), {len(sigma): 10 ** rng.uniform(-3, 3)}
        got = _outcome(synthesize_perturbed_online, Phi, beta, gamma, sigma, T, chi, **NO_DISTURBANCE)
        want = _outcome(scan_perturbed_online, Phi, beta, gamma, sigma, T, chi)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.P, want[0]) and np.array_equal(got.M, want[1])
        seen["online" if want is not None else "online-infeasible"] += 1

        gamma1 = rng.uniform(0.01, 0.6)
        gamma2 = gamma1 * rng.uniform(0.2, 1.3)
        chi_lin = {len(sigma): 10 ** rng.uniform(-3, 5)}
        args = (Phi, beta, gamma1, gamma2, sigma, T, chi_lin)
        got = _outcome(synthesize_perturbed_offline, *args, C_prime=0.0, varpi=0.0)
        want = _outcome(scan_perturbed_offline, *args)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.P, want)
            seen["offline"] += 1
        elif gamma2 > gamma1:
            seen["gamma2>gamma1"] += 1
        elif decay_factor(beta, len(sigma), T) - gamma1 <= spectral_radius(Phi) ** 2:
            seen["budget"] += 1
        else:  # the largest feasible scale lies below the grid's 1e-6
            seen["scale"] += 1
    assert min(seen.values()) >= 10, seen


def _perturbed_multiplier(P, gamma1, gamma2, Phi, bbar, chi_linear, Q_c):
    """The region test of one horizon's reduced perturbed-offline form."""
    return region_multipliers(perturbed_forms(P, gamma1, gamma2, Phi[None], [bbar], [chi_linear]), Q_c)[0]


def test_max_eps_feasible_directional_relaxation():
    # the multiplier relaxes along the cone axis: a wide cone whose axis is
    # the expanding direction of Phi admits eps > 0, while a narrow cone on
    # the contracting axis leaves the e1 deficiency unpaid and admits none
    P = np.eye(2)
    Phi = np.diag([1.01, 0.1])
    Q_axis = np.outer(np.array([1.0, 0.0]), np.array([1.0, 0.0])) - np.cos(np.deg2rad(80.0)) ** 2 * np.eye(2)
    eps = _perturbed_multiplier(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_axis)
    assert eps > 0
    U = regioned_U_c(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_axis, eps)
    lo, _ = sym_eig_bounds(U)
    assert lo >= -1e-9
    Q_off = np.outer(np.array([0.0, 1.0]), np.array([0.0, 1.0])) - np.cos(np.pi / 6) ** 2 * np.eye(2)
    assert np.isnan(_perturbed_multiplier(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_off))


def test_max_eps_feasible_finds_multipliers_outside_any_fixed_range():
    # with P = I and Phi = diag(sqrt(1.5), 0), Q_c = diag(1e-9, -1e-9) and
    # (bbar - gamma1, gamma2/chi) = (2, 2), the assembled matrix is PSD
    # exactly for eps in [1e9, 2e9]: the e1 block needs 0.5 + 1e-9 eps >=
    # 1.5 and the e2 entry needs 2 - 1e-9 eps >= 0
    P = np.eye(2)
    Phi = np.diag([math.sqrt(1.5), 0.0])
    Q_c = np.diag([1e-9, -1e-9])
    eps = _perturbed_multiplier(P, 0.5, 0.2, Phi, 2.5, 0.1, Q_c)
    assert 1e9 <= eps <= 2e9
    lo, _ = sym_eig_bounds(regioned_U_c(P, 0.5, 0.2, Phi, 2.5, 0.1, Q_c, eps))
    assert lo >= -1e-9
    # bbar - gamma1 = 1.2 leaves the two conditions no common multiplier
    assert np.isnan(_perturbed_multiplier(P, 0.5, 0.2, Phi, 1.7, 0.1, Q_c))


def test_perturbed_forms_assemble_only_the_kept_horizons(monkeypatch):
    # the u22 prune is decided before assembly: of the preset's 1 080
    # horizons, U_c is built for the 108 kept, in one call
    _, codes, phis, _, cert = certify(preset_config("offline-perturbed"))
    sizes, build = [], certificates.build_U_c

    def spy(P, gamma1, gamma2, Phi_sigma, *rest):
        sizes.append(len(Phi_sigma))
        return build(P, gamma1, gamma2, Phi_sigma, *rest)

    monkeypatch.setattr(certificates, "build_U_c", spy)
    forms = certificates.region_forms(cert, codes, phis)
    assert len(phis) == 1080 and forms.index.size == 108
    assert sizes == [108]
    assert forms.full.shape == (108, 8, 8) and forms.S.shape == (108, 4, 4)


def _forms_inputs(cert, codes):
    """(bbars, chis) of each horizon of an `action_codes` array, as `region_forms` reads them."""
    lengths = (codes >= 0).sum(axis=0).tolist()
    return [decay_factor(cert.beta, l, cert.T) for l in lengths], [cert.chi[l] for l in lengths]


@pytest.mark.parametrize("l_max, count", [(6, 1080), (4, 108)])  # the preset and the benchmark's cut
def test_perturbed_forms_prune_equals_the_assembled_u22_test(l_max, count):
    # both keep exactly the 108 horizons of lengths 3 and 4
    config = dataclasses.replace(preset_config("offline-perturbed"), l_max=l_max)
    _, codes, phis, _, cert = certify(config)
    args = (cert.P, cert.gamma1, cert.gamma2, phis, *_forms_inputs(cert, codes))
    kept = assembled_prune(*args)
    assert len(phis) == count
    np.testing.assert_array_equal(kept, np.flatnonzero((codes >= 0).sum(axis=0) <= 4))
    np.testing.assert_array_equal(perturbed_forms(*args).index, kept)


@pytest.mark.parametrize("seed", range(6))
def test_perturbed_forms_prune_equals_the_assembled_u22_test_on_random_certificates(seed):
    # gamma2/chi spread over lambda_max(P) e^{+-1}, none within 1e-6 relative of it
    rng = np.random.default_rng(seed)
    d, K = 2 * (2 + seed % 3), 200  # collective dimension 2n, n = 2..4
    F = rng.standard_normal((d, d))
    P = F @ F.T + 0.1 * np.eye(d)
    phis = rng.standard_normal((K, d, d))
    offsets = rng.uniform(-1.0, 1.0, K)
    offsets = offsets[np.abs(offsets) > 1e-6]
    gamma2 = 0.1
    chis = gamma2 / (np.linalg.eigvalsh(P)[-1] * np.exp(offsets))
    bbars = rng.uniform(0.5, 1.0, len(chis))
    for gamma1 in (0.3, gamma2, 0.05):  # gamma1 < gamma2 prunes every horizon
        args = (P, gamma1, gamma2, phis[: len(chis)], bbars, chis)
        kept = assembled_prune(*args)
        assert kept.size == 0 if gamma1 < gamma2 else 0 < kept.size < len(chis)
        np.testing.assert_array_equal(perturbed_forms(*args).index, kept)


def test_ultimate_bound_known_values_and_monotonicity():
    assert ultimate_bound(np.eye(2), 0.0, 1.0) == pytest.approx(1.0)
    assert ultimate_bound(np.diag([1.0, 4.0]), 0.0, 1.0) == pytest.approx(4.0)
    assert ultimate_bound(np.diag([2.0, 4.0]), 1.0, 0.5) == pytest.approx(4.0)  # 4 (1/2 + 1/2)^2
    with pytest.raises(ValueError):
        ultimate_bound(np.diag([1.0, 0.0]), 1.0, 1.0)
    P = np.diag([0.5, 3.0])
    base = ultimate_bound(P, 1.0, 0.5)
    more_noise = ultimate_bound(P, 1.0, 0.7)
    more_drift = ultimate_bound(P, 1.5, 0.5)
    assert more_noise > base and more_drift > base


def _perturbed_certificates():
    """Online (sigma* = (2,1,2,1), T = 0.18) and offline (sigma* = (1,2,2), T = 0.205) certificates."""
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    _, chi = growth_constants(dp, range(1, 5), varpi)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    beta = math.log(10.0) / (4 * 0.18)
    on = synthesize_perturbed_online(Phi_star, beta, 0.35, (2, 1, 2, 1), 0.18, chi, varpi=varpi, C_prime=2.0)

    dp2 = DiscretePlant.from_plant(plant, 0.205)
    varpi2 = disturbance_step_bound(plant, 0.205)
    _, chi_lin2 = growth_constants(dp2, range(3, 7), varpi2)
    Phi2 = horizon_transition(dp2, (1, 2, 2))
    off = synthesize_perturbed_offline(Phi2, 0.0, 0.3, 0.1, (1, 2, 2), 0.205, chi_lin2, C_prime=2.0, varpi=varpi2)
    return on, Phi_star, off, Phi2


def test_serialization_round_trip_reverifies():
    Phi = _phi_star_unperturbed()
    cert = synthesize_unperturbed(Phi, 0.0, (1, 2), 0.3)
    back = certificate_from_dict(certificate_to_dict(cert))
    assert np.allclose(back.P, cert.P)
    assert back.sigma_star == (1, 2)
    assert reverify_certificate(back, Phi)
    for text in ("\u0661\u0662", "1\u00b2"):  # Arabic-Indic digits, a superscript two
        with pytest.raises(ConfigError, match=f"invalid horizon string {text!r}"):
            certificate_from_dict({**certificate_to_dict(cert), "sigma_star": text})
    tampered = certificate_from_dict({**certificate_to_dict(cert), "P": (2 * np.eye(4)).tolist()})
    assert not reverify_certificate(tampered, Phi)
    # A zero pair passes the perturbed inequalities themselves; only positive
    # definiteness of P (and M) rejects it.
    on, Phi_on, off, Phi_off = _perturbed_certificates()
    zero = np.zeros((4, 4)).tolist()
    zero_on = certificate_from_dict({**certificate_to_dict(on), "P": zero, "M": zero})
    zero_off = certificate_from_dict({**certificate_to_dict(off), "P": zero})
    assert online_pair_holds(zero_on, Phi_on, 1e-9)
    assert not reverify_certificate(zero_on, Phi_on)
    assert not reverify_certificate(zero_off, Phi_off)
    # The inequalities are homogeneous, so a non-certificate scaled down far
    # enough slips under an absolute tolerance: the recorded pair of
    # criterion 5 (rejected as it stands) must stay rejected when scaled.
    assert not online_pair_holds(dataclasses.replace(on, P=P_REF, M=M_REF), Phi_on, 1e-6)
    assert not online_pair_holds(dataclasses.replace(on, P=1e-9 * P_REF, M=1e-9 * M_REF), Phi_on, 1e-6)
    tiny = certificate_from_dict({**certificate_to_dict(on), "P": 1e-11 * P_REF, "M": 1e-11 * M_REF})
    assert not reverify_certificate(tiny, Phi_on)
    # the offline kind: P = I fails its inequality, and so must 1e-11 * I
    assert not reverify_certificate(certificate_from_dict({**certificate_to_dict(off), "P": np.eye(4)}), Phi_off)
    tiny_off = certificate_from_dict({**certificate_to_dict(off), "P": 1e-11 * np.eye(4)})
    assert not reverify_certificate(tiny_off, Phi_off)
    # control: real certificates scaled down stay certificates, with the mu of the scaled P
    small = certificate_from_dict(
        {**certificate_to_dict(on), "P": 1e-3 * on.P, "M": 1e-3 * on.M, "mu": ultimate_bound(1e-3 * on.P, 2.0, on.varpi)}
    )
    assert reverify_certificate(small, Phi_on)
    small_off = certificate_from_dict(
        {**certificate_to_dict(off), "P": 1e-3 * off.P, "mu": ultimate_bound(1e-3 * off.P, 2.0, off.varpi)}
    )
    assert reverify_certificate(small_off, Phi_off)


def test_serialization_round_trip_perturbed_kinds():
    on, Phi_star, off, Phi2 = _perturbed_certificates()
    back = certificate_from_dict(certificate_to_dict(on))
    assert np.allclose(back.M, on.M)
    assert back.chi == on.chi and back.mu == on.mu
    assert reverify_certificate(back, Phi_star)

    back2 = certificate_from_dict(certificate_to_dict(off))
    assert np.allclose(back2.P, off.P)
    assert back2.chi == off.chi and back2.mu == off.mu
    assert reverify_certificate(back2, Phi2)


def test_perturbed_certificates_store_each_number_once():
    on, _, off, _ = _perturbed_certificates()
    assert [f.name for f in dataclasses.fields(on)] == [
        "P", "M", "gamma", "chi", "varpi", "C_prime", "mu", "sigma_star", "beta", "T",
    ]
    assert [f.name for f in dataclasses.fields(off)] == [
        "P", "gamma1", "gamma2", "chi", "varpi", "C_prime", "mu", "sigma_star", "beta", "T",
    ]
    # one linear length -> aggregate map in both kinds
    assert set(on.chi) == {1, 2, 3, 4} and set(off.chi) == {3, 4, 5, 6}
    for cert in (on, off):
        C, _ = growth_constants(DiscretePlant.from_plant(benchmark_plant(perturbed=True), cert.T), [], cert.varpi)
        assert cert.chi == {l: cert.varpi * sum(C**q for q in range(l)) for l in cert.chi}


def _loaded_preset_certificate(name):
    """A perturbed preset's certificate as certificate.json holds it, and its Phi*."""
    _, _, phis, star, cert = certify(preset_config(name))
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    return data, phis[star]


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_reverify_catches_a_tampered_chi(name):
    data, Phi_star = _loaded_preset_certificate(name)
    assert reverify_certificate(certificate_from_dict(data), Phi_star)
    key = str(len(data["sigma_star"]))
    tampered = {**data, "chi": {**data["chi"], key: 1e6 * data["chi"][key]}}
    assert not reverify_certificate(certificate_from_dict(tampered), Phi_star)


@pytest.mark.parametrize("name", ["online-perturbed", "offline-perturbed"])
def test_reverify_recomputes_mu(name):
    data, Phi_star = _loaded_preset_certificate(name)
    cert = certificate_from_dict(data)
    assert cert.mu == ultimate_bound(cert.P, cert.C_prime, cert.varpi)
    for mu in (np.nextafter(cert.mu, 0.0), 0.5 * cert.mu, 2.0 * cert.mu):
        assert not reverify_certificate(certificate_from_dict({**data, "mu": mu}), Phi_star)


def _resynthesize(cert, Phi_star):
    """The synthesis call of cert's kind, on the numbers cert stores."""
    if isinstance(cert, UnperturbedCertificate):
        return synthesize_unperturbed(Phi_star, cert.beta, cert.sigma_star, cert.T)
    disturbance = dict(varpi=cert.varpi, C_prime=cert.C_prime)
    if isinstance(cert, PerturbedOnlineCertificate):
        return synthesize_perturbed_online(Phi_star, cert.beta, cert.gamma, cert.sigma_star, cert.T, cert.chi,
                                           **disturbance)
    return synthesize_perturbed_offline(Phi_star, cert.beta, cert.gamma1, cert.gamma2, cert.sigma_star, cert.T,
                                        cert.chi, **disturbance)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_synthesis_is_accepted_by_reverify(name, monkeypatch):
    # one acceptance check for all kinds: a certificate reverify rejects is never returned
    _, _, phis, star, cert = certify(preset_config(name))
    Phi_star = phis[star]
    assert reverify_certificate(_resynthesize(cert, Phi_star), Phi_star)
    checked = []
    monkeypatch.setattr(certificates, "reverify_certificate", lambda cert, Phi: checked.append(cert) or False)
    with pytest.raises(InfeasibleError, match="fails reverify_certificate"):
        _resynthesize(cert, Phi_star)
    assert len(checked) == 1 and type(checked[0]) is type(cert)


def test_certificate_codec_is_field_driven():
    on, _, off, _ = _perturbed_certificates()
    unperturbed = synthesize_unperturbed(_phi_star_unperturbed(), 0.0, (1, 2), 0.3)
    for cert in (unperturbed, on, off):
        names = [f.name for f in dataclasses.fields(cert)]
        data = certificate_to_dict(cert)
        assert list(data) == ["kind", *names]
        assert certificate_to_dict(certificate_from_dict(json.loads(json.dumps(data)))) == data
        for name in names:
            with pytest.raises(KeyError) as missing:
                certificate_from_dict({k: v for k, v in data.items() if k != name})
            assert missing.value.args == (name,)
        with pytest.raises(ValueError, match="^unknown certificate kind 'bogus'$"):
            certificate_from_dict({**data, "kind": "bogus"})
    with pytest.raises(ValueError, match="^unknown certificate kind None$"):
        certificate_from_dict({})
    with pytest.raises(TypeError, match="not a certificate"):
        certificate_to_dict(object())


def test_decay_factor():
    assert decay_factor(0.0, 5, 0.3) == 1.0
    assert decay_factor(2.0, 3, 0.5) == pytest.approx(math.exp(-3.0))


def test_an_indefinite_P_fails_on_its_own_condition():
    # P = diag(-1, 1) passes the unperturbed decay at Phi* = diag(2, 0.1) and
    # beta = 0: bbar P - Phi*'P Phi* = diag(3, 0.99).  Only the P entry rejects it
    cert = UnperturbedCertificate(P=np.diag([-1.0, 1.0]), beta=0.0, T=1.0, sigma_star=(1,))
    Phi_star = np.diag([2.0, 0.1])
    held = {name: sym_eig_bounds(S)[0] > floor for name, (S, floor) in conditions(cert, Phi_star).items()}
    assert held == {"P": False, "decay": True}
    assert not reverify_certificate(cert, Phi_star)


def _as_fractions(value):
    """value with each float, and each float entry of an array or map, as its exact Fraction."""
    if isinstance(value, np.ndarray):
        return np.vectorize(Fraction, otypes=[object])(value)
    if isinstance(value, dict):
        return {k: Fraction(v) for k, v in value.items()}
    return Fraction(value) if isinstance(value, float) else value


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_conditions_keep_fraction_entries_exact(name):
    _, _, phis, star, cert = certify(preset_config(name))
    Phi_star = phis[star]
    exact = dataclasses.replace(cert, **{f.name: _as_fractions(getattr(cert, f.name)) for f in dataclasses.fields(cert)})
    floats = conditions(cert, Phi_star)
    fractions = conditions(exact, _as_fractions(Phi_star))
    assert list(fractions) == list(floats)
    for key, (S, floor) in fractions.items():
        assert S.dtype == object and all(type(v) is Fraction for v in S.flat), key
        want, want_floor = floats[key]
        assert floor == want_floor
        # the float matrices round every product; the exact ones only bbar, a float in both
        np.testing.assert_allclose(S.astype(float), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def _offline_toy(gamma2_over_chi):
    """Offline cert with P = I, Phi* = 0, bbar = 1, gamma1 = 0.3 and gamma2 = 0.1:
    U_c = blockdiag(0.7 I, (gamma2/chi - 1) I), least eigenvalue gamma2/chi - 1."""
    return PerturbedOfflineCertificate(
        P=np.eye(2), gamma1=0.3, gamma2=0.1, chi={1: 0.1 / gamma2_over_chi}, varpi=0.0, C_prime=0.0,
        mu=ultimate_bound(np.eye(2), 0.0, 0.0), sigma_star=(1,), beta=0.0, T=1.0,
    )


def _online_toy(gamma):
    """Online cert with P = M = I, Phi* = 0, bbar = 1 and chi = 0.1: L1 = (gamma - 1) I,
    and L2 = [[I, I], [I, (100 gamma - 1) I]] is positive definite."""
    return PerturbedOnlineCertificate(
        P=np.eye(2), M=np.eye(2), gamma=gamma, chi={1: 0.1}, varpi=0.0, C_prime=0.0,
        mu=ultimate_bound(np.eye(2), 0.0, 0.0), sigma_star=(1,), beta=0.0, T=1.0,
    )


@pytest.mark.parametrize(
    "build, entry", [(_offline_toy, "U_c"), (_online_toy, "L1")], ids=["offline-U_c", "online-L1"]
)
def test_reverify_rejects_a_condition_just_below_zero(build, entry):
    # lambda_min = -1e-10 is on the wrong side of the inequality, however
    # small: the entry is decided as computed, with no allowance below 0
    Phi_star = np.zeros((2, 2))
    below, above = build(1.0 - 1e-10), build(1.0 + 1e-10)
    for cert, sign in ((below, -1.0), (above, 1.0)):
        S, _ = conditions(cert, Phi_star)[entry]
        assert sym_eig_bounds(S)[0] == pytest.approx(sign * 1e-10, rel=1e-5)
    assert not reverify_certificate(below, Phi_star)
    assert reverify_certificate(above, Phi_star)


def test_reverify_rejects_an_exactly_singular_P_that_eigvalsh_reads_as_positive():
    # Phi* = 0 and bbar - gamma1 = 1/2 make U_c = blockdiag(P/2, (gamma2/chi) I - P),
    # singular with P; eigvalsh reads both P and U_c just above 0, and an
    # eigenvalue verdict accepted the certificate
    def toy(P):
        return PerturbedOfflineCertificate(
            P=P, gamma1=0.5, gamma2=0.1, chi={1: 0.1 / 32}, varpi=0.0, C_prime=0.0,
            mu=ultimate_bound(P, 0.0, 0.0), sigma_star=(1,), beta=0.0, T=1.0,
        )

    Phi_star = np.zeros((4, 4))
    cert = toy(SINGULAR_GRAM)
    readings = {name: np.linalg.eigvalsh(S)[0] for name, (S, _) in conditions(cert, Phi_star).items()}
    assert all(0.0 < value < 1e-14 for value in readings.values()), readings
    assert not reverify_certificate(cert, Phi_star)
    assert not any(definite(_as_fractions(S), floor) for S, floor in conditions(cert, Phi_star).values())
    assert reverify_certificate(toy(SINGULAR_GRAM + 1e-6 * np.eye(4)), Phi_star)


def test_every_preset_certificate_is_checked_at_a_nonnegative_floor():
    # no conditions entry of any kind admits a negative least eigenvalue
    for name in PRESET_NAMES:
        _, _, phis, star, cert = certify(preset_config(name))
        floors = {key: floor for key, (_, floor) in conditions(cert, phis[star]).items()}
        assert min(floors.values()) >= 0.0, (name, floors)
        assert reverify_certificate(cert, phis[star])
