import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from asynctrig import certificates
from asynctrig.certificates import (
    PerturbedOnlineCertificate,
    UnperturbedCertificate,
    build_U_c,
    certificate_from_dict,
    certificate_to_dict,
    choose_sigma_star,
    decay_factor,
    perturbed_forms,
    reverify_certificate,
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
    ultimate_bound,
    verify_lmi_pair,
    young_gain,
)
from asynctrig.errors import InfeasibleError
from asynctrig.horizons import enumerate_horizons
from asynctrig.matrix_core import spectral_radius, sym_eig_bounds, symmetrize
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
    U_sigma_builder,
    benchmark_plant,
    full_scan_sigma_star,
    horizon_transition,
    random_schur_stabilizable,
    regioned_U_c,
    scan_perturbed_offline,
    scan_perturbed_online,
)

NO_DISTURBANCE = dict(varpi=0.0, C_prime=0.0)


def _phi_star_unperturbed():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    return horizon_transition(dp, (1, 2))


def test_choose_sigma_star_picks_smallest_radius():
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    horizons = enumerate_horizons(2, 1, 2)
    star = choose_sigma_star(horizons, transition_table(dp, horizons))
    best = min(spectral_radius(horizon_transition(dp, s)) for s in horizons)
    assert spectral_radius(horizon_transition(dp, star)) == pytest.approx(best)


def test_choose_sigma_star_first_wins_on_exact_tie():
    # the same transition listed twice: the earlier horizon is the fallback
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.3)
    idle, best = horizon_transition(dp, (0,)), horizon_transition(dp, (1, 2))
    assert spectral_radius(best) < spectral_radius(idle)
    assert choose_sigma_star([(0,), (1, 2), (2, 1)], np.array([idle, best, best])) == (1, 2)
    assert choose_sigma_star([(2, 1), (1, 2), (0,)], np.array([best, best, idle])) == (2, 1)


def test_choose_sigma_star_rejects_empty_set():
    with pytest.raises(InfeasibleError, match="empty"):
        choose_sigma_star([], np.empty((0, 4, 4)))


def test_choose_sigma_star_rejects_overflowed_products():
    # e^300 per period: the three-step products of this unstable plant overflow
    dp = DiscretePlant.from_plant(PlantModel(A=[[300.0]], B=[[1.0]], K=[[-1.0]], blocks=(1,)), 1.0)
    horizons = enumerate_horizons(1, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        phis = transition_table(dp, horizons)
    assert np.isfinite(phis[:6]).all() and not np.isfinite(phis[6:]).all()
    with pytest.raises(ValueError, match="must be finite"):
        choose_sigma_star(horizons, phis)


def test_choose_sigma_star_matches_the_full_scan_on_the_wide_horizons_plant():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.wide_config(15)
    dp = DiscretePlant.from_plant(config.plant, config.T)
    horizons = enumerate_horizons(dp.m, 1, 7)
    phis = transition_table(dp, horizons)
    assert choose_sigma_star(horizons, phis) == full_scan_sigma_star(horizons, phis)


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
        phis = transition_table(dp, horizons)
        assert choose_sigma_star(horizons, phis) == full_scan_sigma_star(horizons, phis)
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
    assert full_scan_sigma_star(horizons, phis) == (2, 1)
    assert choose_sigma_star(horizons, phis) == (2, 1)
    monkeypatch.setattr(certificates, "SIGMA_STAR_ATOL", 0.0)
    assert choose_sigma_star(horizons, phis) == (0,)


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


def test_verify_lmi_pair_known_values():
    I = np.eye(2)
    assert verify_lmi_pair(I, I, 2.0, 1.0, np.zeros((2, 2)), 1.0)
    assert not verify_lmi_pair(I, I, 0.5, 1.0, np.zeros((2, 2)), 1.0)


def test_perturbed_online_scalar_toy():
    # Phi = 0 forces LMI1 to (bbar - gamma)P <= 0, so gamma must beat bbar
    Phi = np.zeros((1, 1))
    cert = synthesize_perturbed_online(Phi, 0.0, 1.5, (1,), 1.0, {1: 1.0}, **NO_DISTURBANCE)
    assert verify_lmi_pair(cert.P, cert.M, 1.5, 1.0, Phi, 1.0)
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
        assert verify_lmi_pair(cert.P, cert.M, 1.0, chi**2, Phi, 0.5)


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
    _, chi = growth_constants(dp, horizons, varpi)
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


def test_perturbed_offline_synthesis_eigencheck():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    horizons = enumerate_horizons(2, 3, 6)
    _, chi_lin = growth_constants(dp, horizons, varpi)
    Phi_star = horizon_transition(dp, (1, 2, 2))
    cert = synthesize_perturbed_offline(Phi_star, 0.0, 0.3, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    U = build_U_c(cert.P, 0.3, 0.1, Phi_star, 1.0, chi_lin[3])
    lo, _ = sym_eig_bounds(U)
    assert lo >= -1e-9
    with pytest.raises(ValueError):
        synthesize_perturbed_offline(Phi_star, 0.0, -0.3, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    with pytest.raises(InfeasibleError):
        # gamma1 >= bbar leaves no decay budget at all
        synthesize_perturbed_offline(Phi_star, 0.0, 1.0, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    # the corner gamma1 - gamma2 depends on no scale: gamma2 > gamma1 is a configuration error
    with pytest.raises(ValueError, match="gamma2 must not exceed gamma1"):
        synthesize_perturbed_offline(Phi_star, 0.0, 0.1, 0.1 + 2e-9, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    equal = synthesize_perturbed_offline(Phi_star, 0.0, 0.1, 0.1, (1, 2, 2), 0.205, chi_lin, C_prime=0.0, varpi=0.0)
    assert reverify_certificate(equal, Phi_star)


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
    horizons = enumerate_horizons(2, 1, 4)
    _, chi = growth_constants(dp, horizons, varpi)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    beta = math.log(10.0) / (4 * 0.18)
    on = synthesize_perturbed_online(Phi_star, beta, 0.35, (2, 1, 2, 1), 0.18, chi, varpi=varpi, C_prime=2.0)

    dp2 = DiscretePlant.from_plant(plant, 0.205)
    varpi2 = disturbance_step_bound(plant, 0.205)
    hs2 = enumerate_horizons(2, 3, 6)
    _, chi_lin2 = growth_constants(dp2, hs2, varpi2)
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
    tampered = certificate_from_dict({**certificate_to_dict(cert), "P": (2 * np.eye(4)).tolist()})
    assert not reverify_certificate(tampered, Phi)
    # A zero pair passes the perturbed inequalities themselves; only positive
    # definiteness of P (and M) rejects it.
    on, Phi_on, off, Phi_off = _perturbed_certificates()
    chi2_on = on.chi[4] ** 2
    zero = np.zeros((4, 4)).tolist()
    assert verify_lmi_pair(zero, zero, on.gamma, chi2_on, Phi_on, decay_factor(on.beta, 4, on.T))
    zero_on = certificate_from_dict({**certificate_to_dict(on), "P": zero, "M": zero})
    zero_off = certificate_from_dict({**certificate_to_dict(off), "P": zero})
    assert not reverify_certificate(zero_on, Phi_on)
    assert not reverify_certificate(zero_off, Phi_off)
    # The inequalities are homogeneous, so a non-certificate scaled down far
    # enough slips under an absolute tolerance: the recorded pair of
    # criterion 5 (rejected as it stands) must stay rejected when scaled.
    bbar_on = decay_factor(on.beta, 4, on.T)
    assert not verify_lmi_pair(P_REF, M_REF, on.gamma, chi2_on, Phi_on, bbar_on, tol=1e-6)
    assert not verify_lmi_pair(1e-9 * P_REF, 1e-9 * M_REF, on.gamma, chi2_on, Phi_on, bbar_on, tol=1e-6)
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
    _, horizons, _, phis, cert = certify(preset_config(name))
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    return data, phis[horizons.index(cert.sigma_star)]


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
    _, horizons, _, phis, cert = certify(preset_config(name))
    Phi_star = phis[horizons.index(cert.sigma_star)]
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
