"""Lyapunov/LMI certificates behind the four triggering mechanisms.

The unperturbed certificate is a quadratic V(eta) = eta' P eta contracting by
e^{-beta |sigma| T} along the fallback horizon.  The perturbed variants add a
slack matrix M and rate constants (gamma, or gamma1 >= gamma2) plus the
disturbance aggregate chi, and yield an ultimate-bound ellipsoid E(P, mu).
A perturbed certificate stores each number once: its matrices, the numbers
they were built from (chi as one length -> aggregate map, varpi, C') and mu;
the online kind squares chi(l) where it reads it, and everything else is
computed where it is read.

No semidefinite-programming solver is used: all matrices here are small
(<= 8x8), so certificates are built from a weighted discrete Lyapunov solve
and a scale that is constructed, not searched: the online pair passes by
construction at one fixed alpha, and the offline matrix is affine in the
scale, so its largest feasible scale is an eigenvalue of one pencil.  Every
result must then pass `reverify_certificate`, the one feasibility
authority.  The region tests are exact: one quadratic constraint makes the
S-procedure lossless, and the perturbed one reduces exactly to the same
2n x 2n form as the unperturbed.

Each inequality on a horizon's transition Phi is one `matrix_core.decay_form`
S = sym(Phi' A Phi) - w P: A = P, w = bbar for the unperturbed decay;
A = P + M, w = gamma - bbar for the first perturbed-online inequality; and
u11 = -S at A = P, w = bbar - gamma1 in the perturbed-offline matrix.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigvals

from .errors import InfeasibleError
from .matrix_core import (
    PSD_TOL,
    decay_form,
    is_psd,
    solve_discrete_lyapunov,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
)
from .horizons import action_codes, horizon_from_text, horizon_to_text, rotation_classes
from .partition import RegionForms, decay_forms

# M = ALPHA P for the online pair: a small alpha leaves the first inequality
# most room and gives the second the slack the online trigger needs
ALPHA = 2.0**-6
# choose_sigma_star re-solves, member by member, each rotation class whose radius
# is within SIGMA_STAR_RTOL of the least, or SIGMA_STAR_ATOL where that is larger
# (so the floor governs below radius 1).  Rotations of the plants in the tests
# differ by at most ~1e-13 relative; the floor covers radii at roundoff level,
# where a double zero eigenvalue alone spreads rotations by up to ~1e-7
SIGMA_STAR_RTOL = 1e-6
SIGMA_STAR_ATOL = 1e-6


@dataclass(frozen=True)
class UnperturbedCertificate:
    P: np.ndarray
    beta: float
    T: float
    sigma_star: tuple


@dataclass(frozen=True)
class PerturbedOnlineCertificate:
    P: np.ndarray
    M: np.ndarray
    gamma: float
    chi: dict  # length -> disturbance aggregate, from `growth_constants`
    varpi: float
    C_prime: float
    mu: float
    sigma_star: tuple
    beta: float
    T: float


@dataclass(frozen=True)
class PerturbedOfflineCertificate:
    P: np.ndarray
    gamma1: float
    gamma2: float
    chi: dict  # length -> disturbance aggregate, from `growth_constants`
    varpi: float
    C_prime: float
    mu: float
    sigma_star: tuple
    beta: float
    T: float


def decay_factor(beta: float, length: int, T: float) -> float:
    """e^{-beta l T}, the required contraction over a length-l horizon."""
    return math.exp(-beta * length * T)


def per_length(f, lengths) -> np.ndarray:
    """f(l) for every entry of lengths, with one call per distinct length."""
    distinct, inverse = np.unique(lengths, return_inverse=True)
    return np.array([f(l) for l in distinct.tolist()])[inverse]


def _radii(phis) -> np.ndarray:
    return np.abs(np.linalg.eigvals(phis)).max(axis=1)


def choose_sigma_star(horizons, phis, codes=None) -> tuple:
    """Horizon of smallest spectral radius in its transition table (first wins).

    phis must be the transition table of horizons, stacked in the same order;
    codes, when given, is their `action_codes` array.  A rotation of a horizon
    multiplies the same step matrices in rotated order: where sigma gives XY,
    its rotation gives YX, and XY and YX have the same eigenvalues.  So every
    horizon of a rotation class has the same spectral radius in exact
    arithmetic, and one eigensolve per class (its first member) finds the
    least.  Roundoff can still order the members of a class, so every member
    of each class whose radius is within SIGMA_STAR_RTOL of the least, or
    SIGMA_STAR_ATOL where that is larger, is solved again, and the first of
    them with the smallest radius is returned: the horizon one eigensolve per
    horizon picks.
    """
    if len(horizons) == 0:
        raise InfeasibleError("empty horizon set")
    if not np.isfinite(phis).all():
        raise ValueError("matrix entries must be finite")
    cls, first = rotation_classes(action_codes(horizons) if codes is None else codes)
    radii = _radii(phis[first])
    least = radii.min()
    near = np.flatnonzero(radii <= least + max(SIGMA_STAR_RTOL * least, SIGMA_STAR_ATOL))
    members = np.flatnonzero(np.isin(cls, near))
    return tuple(horizons[members[np.argmin(_radii(phis[members]))]])


def synthesize_unperturbed(Phi_star, beta: float, sigma_star: tuple, T: float) -> UnperturbedCertificate:
    """P > 0 with Phi*' P Phi* - e^{-beta |sigma*| T} P < 0.

    Solved exactly: P is the weighted discrete Lyapunov solution with unit
    right-hand side, which makes the strict-inequality margin exactly
    lambda_min(I) = 1 before scaling.
    """
    sigma_star = tuple(sigma_star)
    rho = decay_factor(beta, len(sigma_star), T)
    sr = spectral_radius(Phi_star)
    if sr >= math.sqrt(rho):
        raise InfeasibleError(
            f"fallback horizon is not contractive enough: spectral radius "
            f"{sr:.12g} >= required bound {math.sqrt(rho):.12g}"
        )
    nn = np.asarray(Phi_star).shape[0]
    P = solve_discrete_lyapunov(Phi_star, rho, np.eye(nn))
    return _accepted(UnperturbedCertificate(P=P, beta=beta, T=T, sigma_star=sigma_star), Phi_star)


def _scaled_tol(P, tol: float) -> float:
    """tol * min(1, lambda_max(P)): the inequalities are homogeneous in the
    certificate, so an absolute tolerance would accept any non-certificate
    scaled down far enough."""
    return tol * min(1.0, max(0.0, sym_eig_bounds(P)[1]))


def verify_lmi_pair(P, M, gamma: float, chi: float, Phi, bbar: float, tol: float = PSD_TOL) -> bool:
    """Check the two perturbed-online matrix inequalities at tolerance tol.

    First: Phi'(P+M)Phi - (gamma - bbar) P <= 0, a `decay_form`.  Second:
    [[M, P], [P, (gamma/chi) I - P]] >= 0, where chi is the squared
    aggregate chi(|sigma*|)^2.  Eigenvalues are compared against
    tol * min(1, lambda_max(P)).
    """
    P = symmetrize(P)
    M = symmetrize(M)
    nn = P.shape[0]
    L1 = decay_form(Phi, P, gamma - bbar, P + M)
    L2 = np.block([[M, P], [P, (gamma / chi) * np.eye(nn) - P]])
    tol = _scaled_tol(P, tol)
    return is_psd(-L1, tol) and is_psd(L2, tol)


def synthesize_perturbed_online(
    Phi_star,
    beta: float,
    gamma: float,
    sigma_star: tuple,
    T: float,
    chi: dict,
    *,
    varpi: float,
    C_prime: float,
) -> PerturbedOnlineCertificate:
    """(P, M) satisfying both perturbed-online inequalities, by construction.

    M = ALPHA P turns the first inequality into sr(Phi*)^2 < rho_max =
    (gamma - bbar)/(1 + ALPHA), and P = s P1, with P1 the weighted Lyapunov
    solution at the rate rho between the two, gives it the margin (1 +
    ALPHA) s (I + (rho_max - rho) P1) > 0 at any s.  The second reduces to
    gamma/chi2 >= s (1 + 1/ALPHA) lambda_max(P1), with chi2 =
    chi[|sigma*|]^2, so s takes it with a 10% margin.  A larger alpha
    only shrinks rho_max, so no other alpha succeeds where this one fails.
    `reverify_certificate` is the authority.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    sigma_star = tuple(sigma_star)
    chi2 = chi[len(sigma_star)] ** 2
    bbar = decay_factor(beta, len(sigma_star), T)
    sr2 = spectral_radius(Phi_star) ** 2
    rho_max = (gamma - bbar) / (1.0 + ALPHA)
    if sr2 >= rho_max:
        raise InfeasibleError(
            f"no alpha >= 2^-6 satisfies the first inequality: "
            f"sr^2={sr2:.6g}, gamma={gamma}, bbar={bbar:.6g}"
        )
    nn = np.asarray(Phi_star).shape[0]
    P1 = solve_discrete_lyapunov(Phi_star, min(0.5 * (sr2 + rho_max), 1.0), np.eye(nn))
    _, lmax1 = sym_eig_bounds(P1)
    P = 0.9 * (gamma / chi2) / ((1.0 + 1.0 / ALPHA) * lmax1) * P1
    M = ALPHA * P
    cert = PerturbedOnlineCertificate(
        P=P,
        M=M,
        gamma=gamma,
        chi=dict(chi),
        varpi=varpi,
        C_prime=C_prime,
        mu=ultimate_bound(P, C_prime, varpi),
        sigma_star=sigma_star,
        beta=beta,
        T=T,
    )
    return _accepted(cert, Phi_star)


def young_gain(P, M) -> float:
    """lambda_bar = lambda_max(P M^{-1} P + P), for M > 0: Young's inequality bounds the
    disturbance's share of V+ by lambda_bar chi, so the online test's corner is gamma - chi lambda_bar."""
    P = symmetrize(P)
    M = symmetrize(M)
    lo, _ = sym_eig_bounds(M)
    if lo <= 0:
        raise ValueError(f"M must be positive definite, lambda_min={lo:.3g}")
    return sym_eig_bounds(symmetrize(P @ np.linalg.solve(M, P)) + P)[1]


def build_U_c(P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float) -> np.ndarray:
    """Unregioned feasibility matrix for the perturbed-offline trigger.

    Symmetric 4n x 4n blocks: u11 = (bbar - gamma1) P - Phi'P Phi, the
    negated `decay_form` at w = bbar - gamma1, u21 = -P Phi and u22 =
    (gamma2/chi) I - P, with chi the linear aggregate chi(|sigma|).  It is
    affine in P.  The paper's matrix also has the decoupled corner u33 =
    gamma1 - gamma2, which depends on neither P nor the horizon nor the
    region, so the callers check gamma2 <= gamma1 + tol once, as a scalar.
    The region term enters only through `perturbed_forms`.  Stacked
    horizons (..., 2n, 2n), with bbar and chi_linear of shape (...), give a
    stack.
    """
    P = symmetrize(P)
    nn = P.shape[0]
    chi = np.asarray(chi_linear, dtype=float)[..., None, None]
    U = np.zeros(Phi_sigma.shape[:-2] + (2 * nn, 2 * nn))
    U[..., :nn, :nn] = -decay_form(Phi_sigma, P, np.asarray(bbar, dtype=float) - gamma1)
    off = -P @ Phi_sigma
    U[..., nn:, :nn] = off
    U[..., :nn, nn:] = np.swapaxes(off, -1, -2)
    U[..., nn:, nn:] = (gamma2 / chi) * np.eye(nn) - P
    return U


def synthesize_perturbed_offline(
    Phi_star,
    beta: float,
    gamma1: float,
    gamma2: float,
    sigma_star: tuple,
    T: float,
    chi: dict,
    *,
    C_prime: float,
    varpi: float,
) -> PerturbedOfflineCertificate:
    """P for the perturbed-offline mechanism: Lyapunov ansatz, exact scale.

    The paper's corner u33 = gamma1 - gamma2 depends on neither P nor the
    horizon, so gamma2 > gamma1 + PSD_TOL is a ValueError, checked once.
    P1 solves the weighted Lyapunov equation at the midpoint rate between
    sr(Phi*)^2 and bbar - gamma1.  The unregioned matrix at chi[|sigma*|]
    is affine in the scale, U(s P1) = B0 + s B1, so lambda_min(U) >=
    -PSD_TOL holds on an interval of s.  It holds at s = 0, where only u22
    = (gamma2/chi) I is nonzero, so the interval is [0, s_max], and s_max
    is the least positive finite eigenvalue of the pencil (B0 + PSD_TOL I,
    -B1).  The scale taken is the largest point of a log grid over [1e-6,
    1e6] not above s_max, which keeps P on a fixed set of scales.
    `reverify_certificate` of the result, at its scaled tolerance, is the
    authority.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError(f"gamma1 and gamma2 must be positive, got {gamma1}, {gamma2}")
    if gamma2 > gamma1 + PSD_TOL:
        raise ValueError(f"gamma2 must not exceed gamma1, got gamma1={gamma1}, gamma2={gamma2}")
    sigma_star = tuple(sigma_star)
    chi_linear = chi[len(sigma_star)]
    bbar = decay_factor(beta, len(sigma_star), T)
    sr2 = spectral_radius(Phi_star) ** 2
    target = bbar - gamma1
    if target <= sr2:
        raise InfeasibleError(
            f"need sr(Phi*)^2 < bbar - gamma1: sr^2={sr2:.6g}, bound={target:.6g}"
        )
    rho = 0.5 * (sr2 + target)
    nn = np.asarray(Phi_star).shape[0]
    P1 = solve_discrete_lyapunov(Phi_star, min(rho, 1.0), np.eye(nn))
    B0 = build_U_c(np.zeros((nn, nn)), gamma1, gamma2, Phi_star, bbar, chi_linear)
    B1 = build_U_c(P1, gamma1, gamma2, Phi_star, bbar, chi_linear) - B0
    ends = eigvals(B0 + PSD_TOL * np.eye(B0.shape[0]), -B1)
    ends = ends.real[np.isfinite(ends) & (ends.real > 0)]
    s_max = ends.min() if ends.size else math.inf
    scales = np.logspace(6, -6, 121)
    scales = scales[scales <= s_max]
    if not scales.size:
        raise InfeasibleError(f"no scaling in [1e-6, 1e6] makes the assembled matrix PSD: s_max={s_max:.6g}")
    P = scales[0] * P1
    cert = PerturbedOfflineCertificate(
        P=P,
        gamma1=gamma1,
        gamma2=gamma2,
        chi=dict(chi),
        varpi=varpi,
        C_prime=C_prime,
        mu=ultimate_bound(P, C_prime, varpi),
        sigma_star=sigma_star,
        beta=beta,
        T=T,
    )
    return _accepted(cert, Phi_star)


def perturbed_forms(P, gamma1: float, gamma2: float, phis, bbars, chis, tol: float = PSD_TOL) -> RegionForms:
    """The perturbed-offline region test, reduced exactly to 2n x 2n forms.

    A region certifies a horizon when U_c + tol I + eps blockdiag(Q_c, 0) is
    PSD for some eps > 0, with U_c from `build_U_c`, and the paper's corner
    gamma1 - gamma2 + tol >= 0; the returned sign -1 (on full = -U_c) is
    the one place that states the region term's sign.  With u.. the blocks
    of U_c + tol I, that holds iff gamma1 - gamma2 + tol >= 0, u22 > 0 (its
    singular boundary is dropped) and the Schur complement C = u11 - u21'
    u22^{-1} u21 satisfies C + eps Q_c >= 0.  The first two do not depend
    on the region, so they prune horizons once; the third is
    lambda_max(tol I - C - eps Q_c) <= tol, the form S = tol I - C.
    """
    nn = np.asarray(P).shape[0]
    U0 = build_U_c(P, gamma1, gamma2, phis, bbars, chis)
    u22 = U0[:, nn:, nn:] + tol * np.eye(nn)
    keep = (np.linalg.eigvalsh(u22)[:, 0] > 0) & (gamma1 - gamma2 + tol >= 0)
    index = np.flatnonzero(keep)
    u11, u21 = U0[index, :nn, :nn], U0[index, nn:, :nn]
    G = np.swapaxes(u21, 1, 2) @ np.linalg.solve(u22[index], u21)
    S = 0.5 * (G + np.swapaxes(G, 1, 2)) - u11  # tol I - C: the two tol I cancel
    return RegionForms(index, S, -U0[index], -1.0, tol)


def region_forms(cert, horizons, phis) -> RegionForms:
    """The offline region test of an unperturbed or perturbed-offline
    certificate; phis is the transition table stacked in horizon order."""
    lengths = np.fromiter(map(len, horizons), int, len(horizons))
    bbars = per_length(lambda l: decay_factor(cert.beta, l, cert.T), lengths)
    if isinstance(cert, UnperturbedCertificate):
        return decay_forms(cert.P, phis, bbars)
    chis = per_length(cert.chi.__getitem__, lengths)
    return perturbed_forms(cert.P, cert.gamma1, cert.gamma2, phis, bbars, chis)


def ultimate_bound(P, C_prime: float, varpi: float) -> float:
    """mu = lambda_max(P)(C'/lambda_min(P) + varpi)^2: E(P, mu) is the
    attracting ellipsoid, and the ball of squared radius mu/lambda_min(P)
    is the smallest one containing it."""
    lo, hi = sym_eig_bounds(P)
    if lo <= 0:
        raise ValueError(f"P must be positive definite, lambda_min={lo:.3g}")
    return float(hi * (C_prime / lo + varpi) ** 2)


# ---------------------------------------------------------------------------
# serialization: JSON-safe dicts holding "kind" and then every field in
# declaration order, each converted by its declared type

CERTIFICATE_KINDS = {
    "unperturbed": UnperturbedCertificate,
    "perturbed-online": PerturbedOnlineCertificate,
    "perturbed-offline": PerturbedOfflineCertificate,
}

# field type -> (to JSON, from JSON): matrices as row-major nested lists, the
# fallback horizon as its digit string, length-keyed maps with string keys
_FIELD_CODECS = {
    np.ndarray: (np.ndarray.tolist, lambda v: np.array(v, dtype=float)),
    float: (lambda v: v, float),
    tuple: (horizon_to_text, horizon_from_text),
    dict: (
        lambda d: {str(k): v for k, v in d.items()},
        lambda d: {int(k): float(v) for k, v in d.items()},
    ),
}


def certificate_to_dict(cert) -> dict:
    kind = {cls: k for k, cls in CERTIFICATE_KINDS.items()}.get(type(cert))
    if kind is None:
        raise TypeError(f"not a certificate: {type(cert)!r}")
    return {"kind": kind, **{f.name: _FIELD_CODECS[f.type][0](getattr(cert, f.name)) for f in fields(cert)}}


def certificate_from_dict(data: dict):
    cls = CERTIFICATE_KINDS.get(data.get("kind"))
    if cls is None:
        raise ValueError(f"unknown certificate kind {data.get('kind')!r}")
    return cls(**{f.name: _FIELD_CODECS[f.type][1](data[f.name]) for f in fields(cls)})


def _accepted(cert, Phi_star):
    """cert, once `reverify_certificate` holds for it: every synthesis ends here."""
    if not reverify_certificate(cert, Phi_star):
        raise InfeasibleError(f"the constructed {type(cert).__name__} fails reverify_certificate")
    return cert


def _positive_definite(*mats) -> bool:
    return all(sym_eig_bounds(S)[0] > 0 for S in mats)


def reverify_certificate(cert, Phi_star) -> bool:
    """Re-check the certificate's defining inequalities from scratch at PSD_TOL
    (scaled by min(1, lambda_max(P)) for the perturbed kinds).

    Every kind also requires its Lyapunov matrix P (and M for the online
    perturbed kind) to be positive definite: the inequalities alone accept
    P = M = 0, for which V = eta' P eta and the bound mu mean nothing.  A
    perturbed kind reads chi at |sigma*| from its map, and its stored mu
    must equal `ultimate_bound` of its P, C' and varpi.
    """
    if not isinstance(cert, tuple(CERTIFICATE_KINDS.values())):
        raise TypeError(f"not a certificate: {type(cert)!r}")
    bbar = decay_factor(cert.beta, len(cert.sigma_star), cert.T)
    if isinstance(cert, UnperturbedCertificate):
        _, hi = sym_eig_bounds(decay_form(Phi_star, cert.P, bbar))
        return hi <= -PSD_TOL and _positive_definite(cert.P)
    chi = cert.chi[len(cert.sigma_star)]
    if isinstance(cert, PerturbedOnlineCertificate):
        holds = verify_lmi_pair(cert.P, cert.M, cert.gamma, chi**2, Phi_star, bbar) and _positive_definite(cert.M)
    else:
        U = build_U_c(cert.P, cert.gamma1, cert.gamma2, Phi_star, bbar, chi)
        holds = cert.gamma2 <= cert.gamma1 + PSD_TOL and is_psd(U, _scaled_tol(cert.P, PSD_TOL))
    return holds and _positive_definite(cert.P) and cert.mu == ultimate_bound(cert.P, cert.C_prime, cert.varpi)
