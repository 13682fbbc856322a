import math

import numpy as np
import pytest

from asynctrig.certificates import (
    build_U_c,
    build_U_sigma,
    certificate_from_dict,
    certificate_to_dict,
    choose_sigma_star,
    decay_factor,
    max_eps_feasible,
    reverify_certificate,
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
    ultimate_bound,
    verify_lmi_pair,
)
from asynctrig.errors import InfeasibleError
from asynctrig.horizons import enumerate_horizons
from asynctrig.matrix_core import spectral_radius, sym_eig_bounds, symmetrize
from asynctrig.plant import (
    DiscretePlant,
    PlantModel,
    disturbance_step_bound,
    growth_constants,
    horizon_transition,
    transition_table,
)
from helpers import M_REF, P_REF, benchmark_plant


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


def test_unperturbed_certificate_decay_margin():
    Phi = _phi_star_unperturbed()
    cert = synthesize_unperturbed(Phi, 0.0, 0.6, sigma_star=(1, 2), T=0.3)
    lo, _ = sym_eig_bounds(cert.P)
    assert lo > 0
    G = symmetrize(Phi.T @ cert.P @ Phi) - cert.P
    _, hi = sym_eig_bounds(G)
    assert hi <= -1e-9
    # unit right-hand side makes the margin exactly 1
    assert hi == pytest.approx(-1.0, rel=1e-9)


def test_unperturbed_rejects_noncontractive_fallback():
    with pytest.raises(InfeasibleError, match="spectral radius"):
        synthesize_unperturbed(np.diag([1.0, 0.5]), 0.0, 1.0)
    # decay demand beyond the horizon's contraction
    Phi = _phi_star_unperturbed()  # sr ~ 0.991
    with pytest.raises(InfeasibleError):
        synthesize_unperturbed(Phi, 1.0, 0.6)


def test_verify_lmi_pair_known_values():
    I = np.eye(2)
    assert verify_lmi_pair(I, I, 2.0, 1.0, np.zeros((2, 2)), 1.0)
    assert not verify_lmi_pair(I, I, 0.5, 1.0, np.zeros((2, 2)), 1.0)


def test_perturbed_online_scalar_toy():
    # Phi = 0 forces LMI1 to (bbar - gamma)P <= 0, so gamma must beat bbar
    Phi = np.zeros((1, 1))
    cert = synthesize_perturbed_online(Phi, 0.0, 1.0, 1.0, 1.5, sigma_star=(1,), T=1.0)
    assert verify_lmi_pair(cert.P, cert.M, 1.5, 1.0, Phi, 1.0)
    with pytest.raises(InfeasibleError):
        synthesize_perturbed_online(Phi, 0.0, 1.0, 1.0, 0.5)


def test_perturbed_online_self_verification_random():
    rng = np.random.default_rng(77)
    beta = math.log(2.0)  # bbar = 0.5 over a unit horizon
    for _ in range(50):
        Phi = rng.normal(size=(4, 4))
        Phi *= rng.uniform(0.1, 0.6) / spectral_radius(Phi)
        chi = float(rng.uniform(0.05, 5.0))
        cert = synthesize_perturbed_online(Phi, beta, 1.0, chi, 1.0, sigma_star=(1,), T=1.0)
        assert verify_lmi_pair(cert.P, cert.M, 1.0, chi, Phi, 0.5)


def test_build_U_sigma_known_values():
    I = np.eye(2)
    U = build_U_sigma(I, I, 1.0, np.zeros((2, 2)), 1.0, 0.0)
    assert U.shape == (3, 3)
    assert np.allclose(U[:2, :2], np.zeros((2, 2)))
    assert U[2, 2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        build_U_sigma(I, np.zeros((2, 2)), 1.0, I, 1.0, 1.0)


def test_build_U_sigma_matches_summand_recomputation():
    # quadratic form value must equal the two summands computed independently
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    horizons = enumerate_horizons(2, 1, 4)
    C, chi_sq, _ = growth_constants(dp, horizons, varpi)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    beta = math.log(10.0) / (4 * 0.18)
    cert = synthesize_perturbed_online(
        Phi_star, beta, 4 * 0.18, chi_sq[4], 0.35, sigma_star=(2, 1, 2, 1), T=0.18, chi_squared=chi_sq
    )
    rng = np.random.default_rng(4)
    Minv = np.linalg.inv(cert.M)
    lam_bar = max(np.linalg.eigvalsh(symmetrize(cert.P @ Minv @ cert.P) + cert.P))
    for _ in range(100):
        sigma = horizons[rng.integers(len(horizons))]
        Phi = horizon_transition(dp, sigma)
        bbar = decay_factor(beta, len(sigma), 0.18)
        U = build_U_sigma(cert.P, cert.M, 0.35, Phi, bbar, chi_sq[len(sigma)])
        eta = rng.normal(scale=rng.uniform(0.1, 10.0), size=4)
        v = np.concatenate([eta, [1.0]])
        got = v @ U @ v
        term1 = -eta @ Phi.T @ (cert.P + cert.M) @ Phi @ eta + (bbar - 0.35) * (eta @ cert.P @ eta)
        term2 = 0.35 - chi_sq[len(sigma)] * lam_bar
        assert got == pytest.approx(term1 + term2, rel=1e-9, abs=1e-9)


def test_build_U_c_block_layout():
    # Phi = 0, P = I, gamma1=0.1, gamma2=0.2, bbar=1, chi=1: blocks are
    # 0.9 I and 0.2 I - I; the corner scalar follows -gamma2+gamma1
    n4 = 4
    U = build_U_c(np.eye(n4), 0.1, 0.2, np.zeros((n4, n4)), 1.0, 1.0, np.zeros((n4, n4)), 1e-9)
    assert U.shape == (9, 9)
    assert np.allclose(U[:4, :4], 0.9 * np.eye(4))
    assert np.allclose(U[4:8, 4:8], 0.2 * np.eye(4) - np.eye(4))
    assert np.allclose(U[4:8, :4], np.zeros((4, 4)))
    assert U[8, 8] == pytest.approx(-0.2 + 0.1)
    assert np.allclose(U[8, :8], 0.0)
    assert np.array_equal(U, U.T)


def test_build_U_c_zero_multiplier_is_unregioned():
    rng = np.random.default_rng(9)
    P = np.eye(4)
    Phi = rng.normal(size=(4, 4))
    Q = rng.normal(size=(4, 4))
    U0 = build_U_c(P, 0.3, 0.1, Phi, 1.0, 2.0, Q, 0.0)
    U1 = build_U_c(P, 0.3, 0.1, Phi, 1.0, 2.0, np.zeros((4, 4)), 5.0)
    assert np.allclose(U0, U1)


def test_perturbed_offline_synthesis_eigencheck():
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.205)
    varpi = disturbance_step_bound(plant, 0.205)
    horizons = enumerate_horizons(2, 3, 6)
    _, _, chi_lin = growth_constants(dp, horizons, varpi)
    Phi_star = horizon_transition(dp, (1, 2, 2))
    cert = synthesize_perturbed_offline(
        Phi_star, 0.0, 3 * 0.205, chi_lin[3], 0.3, 0.1, sigma_star=(1, 2, 2), T=0.205
    )
    U = build_U_c(cert.P, 0.3, 0.1, Phi_star, 1.0, chi_lin[3], np.zeros((4, 4)), 1.0)
    lo, _ = sym_eig_bounds(U)
    assert lo >= -1e-9
    with pytest.raises(ValueError):
        synthesize_perturbed_offline(Phi_star, 0.0, 0.615, chi_lin[3], -0.3, 0.1)
    with pytest.raises(InfeasibleError):
        # gamma1 >= bbar leaves no decay budget at all
        synthesize_perturbed_offline(Phi_star, 0.0, 0.615, chi_lin[3], 1.0, 0.1)


def test_max_eps_feasible_directional_relaxation():
    # the multiplier relaxes along the cone axis: a wide cone whose axis is
    # the expanding direction of Phi admits eps > 0, while a narrow cone on
    # the contracting axis leaves the e1 deficiency unpaid and admits none
    P = np.eye(2)
    Phi = np.diag([1.01, 0.1])
    Q_axis = np.outer(np.array([1.0, 0.0]), np.array([1.0, 0.0])) - np.cos(np.deg2rad(80.0)) ** 2 * np.eye(2)
    eps = max_eps_feasible(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_axis)
    assert eps is not None and eps > 0
    U = build_U_c(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_axis, eps)
    lo, _ = sym_eig_bounds(U)
    assert lo >= -1e-9
    Q_off = np.outer(np.array([0.0, 1.0]), np.array([0.0, 1.0])) - np.cos(np.pi / 6) ** 2 * np.eye(2)
    assert max_eps_feasible(P, 0.3, 0.1, Phi, 1.0, 0.001, Q_off) is None


def test_max_eps_feasible_finds_multipliers_outside_any_fixed_range():
    # with P = I and Phi = diag(sqrt(1.5), 0), Q_c = diag(1e-9, -1e-9) and
    # (bbar - gamma1, gamma2/chi) = (2, 2), the assembled matrix is PSD
    # exactly for eps in [1e9, 2e9]: the e1 block needs 0.5 + 1e-9 eps >=
    # 1.5 and the e2 entry needs 2 - 1e-9 eps >= 0
    P = np.eye(2)
    Phi = np.diag([math.sqrt(1.5), 0.0])
    Q_c = np.diag([1e-9, -1e-9])
    eps = max_eps_feasible(P, 0.5, 0.2, Phi, 2.5, 0.1, Q_c)
    assert eps is not None and 1e9 <= eps <= 2e9
    lo, _ = sym_eig_bounds(build_U_c(P, 0.5, 0.2, Phi, 2.5, 0.1, Q_c, eps))
    assert lo >= -1e-9
    # bbar - gamma1 = 1.2 leaves the two conditions no common multiplier
    assert max_eps_feasible(P, 0.5, 0.2, Phi, 1.7, 0.1, Q_c) is None


def test_ultimate_bound_known_values_and_monotonicity():
    mu, psi = ultimate_bound(np.eye(2), 0.0, 1.0)
    assert mu == pytest.approx(1.0) and psi == pytest.approx(1.0)
    mu, psi = ultimate_bound(np.diag([1.0, 4.0]), 0.0, 1.0)
    assert mu == pytest.approx(4.0) and psi == pytest.approx(4.0)
    with pytest.raises(ValueError):
        ultimate_bound(np.diag([1.0, 0.0]), 1.0, 1.0)
    P = np.diag([0.5, 3.0])
    base, _ = ultimate_bound(P, 1.0, 0.5)
    more_noise, _ = ultimate_bound(P, 1.0, 0.7)
    more_drift, _ = ultimate_bound(P, 1.5, 0.5)
    assert more_noise > base and more_drift > base


def _perturbed_certificates():
    """Online (sigma* = (2,1,2,1), T = 0.18) and offline (sigma* = (1,2,2), T = 0.205) certificates."""
    plant = benchmark_plant(perturbed=True)
    dp = DiscretePlant.from_plant(plant, 0.18)
    varpi = disturbance_step_bound(plant, 0.18)
    horizons = enumerate_horizons(2, 1, 4)
    C, chi_sq, chi_lin = growth_constants(dp, horizons, varpi)
    Phi_star = horizon_transition(dp, (2, 1, 2, 1))
    beta = math.log(10.0) / (4 * 0.18)
    on = synthesize_perturbed_online(
        Phi_star, beta, 4 * 0.18, chi_sq[4], 0.35,
        C=C, varpi=varpi, C_prime=2.0, sigma_star=(2, 1, 2, 1), T=0.18, chi_squared=chi_sq,
    )

    dp2 = DiscretePlant.from_plant(plant, 0.205)
    varpi2 = disturbance_step_bound(plant, 0.205)
    hs2 = enumerate_horizons(2, 3, 6)
    _, _, chi_lin2 = growth_constants(dp2, hs2, varpi2)
    Phi2 = horizon_transition(dp2, (1, 2, 2))
    off = synthesize_perturbed_offline(
        Phi2, 0.0, 0.615, chi_lin2[3], 0.3, 0.1,
        sigma_star=(1, 2, 2), T=0.205, chi_linear_map=chi_lin2, C_prime=2.0, varpi=varpi2,
    )
    return on, Phi_star, off, Phi2


def test_serialization_round_trip_reverifies():
    Phi = _phi_star_unperturbed()
    cert = synthesize_unperturbed(Phi, 0.0, 0.6, sigma_star=(1, 2), T=0.3)
    back = certificate_from_dict(certificate_to_dict(cert))
    assert np.allclose(back.P, cert.P)
    assert back.sigma_star == (1, 2)
    assert reverify_certificate(back, Phi)
    tampered = certificate_from_dict({**certificate_to_dict(cert), "P": (2 * np.eye(4)).tolist()})
    assert not reverify_certificate(tampered, Phi)
    # A zero pair passes the perturbed inequalities themselves; only positive
    # definiteness of P (and M) rejects it.
    on, Phi_on, off, Phi_off = _perturbed_certificates()
    zero = np.zeros((4, 4)).tolist()
    assert verify_lmi_pair(zero, zero, on.gamma, on.chi, Phi_on, decay_factor(on.beta, 4, on.T))
    zero_on = certificate_from_dict({**certificate_to_dict(on), "P": zero, "M": zero})
    zero_off = certificate_from_dict({**certificate_to_dict(off), "P": zero})
    assert not reverify_certificate(zero_on, Phi_on)
    assert not reverify_certificate(zero_off, Phi_off)
    # The inequalities are homogeneous, so a non-certificate scaled down far
    # enough slips under an absolute tolerance: the recorded pair of
    # criterion 5 (rejected as it stands) must stay rejected when scaled.
    bbar_on = decay_factor(on.beta, 4, on.T)
    assert not verify_lmi_pair(P_REF, M_REF, on.gamma, on.chi, Phi_on, bbar_on, tol=1e-6)
    assert not verify_lmi_pair(1e-9 * P_REF, 1e-9 * M_REF, on.gamma, on.chi, Phi_on, bbar_on, tol=1e-6)
    tiny = certificate_from_dict({**certificate_to_dict(on), "P": 1e-11 * P_REF, "M": 1e-11 * M_REF})
    assert not reverify_certificate(tiny, Phi_on)
    # the offline kind: P = I fails its inequality, and so must 1e-11 * I
    assert not reverify_certificate(certificate_from_dict({**certificate_to_dict(off), "P": np.eye(4)}), Phi_off)
    tiny_off = certificate_from_dict({**certificate_to_dict(off), "P": 1e-11 * np.eye(4)})
    assert not reverify_certificate(tiny_off, Phi_off)
    # control: real certificates scaled down stay certificates
    small = certificate_from_dict({**certificate_to_dict(on), "P": 1e-3 * on.P, "M": 1e-3 * on.M})
    assert reverify_certificate(small, Phi_on)
    small_off = certificate_from_dict({**certificate_to_dict(off), "P": 1e-3 * off.P})
    assert reverify_certificate(small_off, Phi_off)


def test_serialization_round_trip_perturbed_kinds():
    on, Phi_star, off, Phi2 = _perturbed_certificates()
    back = certificate_from_dict(certificate_to_dict(on))
    assert np.allclose(back.M, on.M)
    assert back.chi_squared == on.chi_squared
    assert reverify_certificate(back, Phi_star)

    back2 = certificate_from_dict(certificate_to_dict(off))
    assert np.allclose(back2.P, off.P)
    assert back2.chi_linear_map == off.chi_linear_map
    assert reverify_certificate(back2, Phi2)


def test_decay_factor():
    assert decay_factor(0.0, 5, 0.3) == 1.0
    assert decay_factor(2.0, 3, 0.5) == pytest.approx(math.exp(-3.0))
