"""Lyapunov/LMI certificates behind the four triggering mechanisms.

The unperturbed certificate is a quadratic V(eta) = eta' P eta contracting by
e^{-beta |sigma| T} along the fallback horizon.  The perturbed variants add a
slack matrix M and rate constants (gamma, or gamma1 >= gamma2) plus the
disturbance aggregates chi, and yield an ultimate-bound ellipsoid E(P, mu).

No semidefinite-programming solver is used: all matrices here are small
(<= 9x9), so certificates are built from a weighted discrete Lyapunov solve
plus structured scalar searches, and every result is re-checked by direct
eigenvalue bounds, which are the feasibility authority.  The region tests
are exact: one quadratic constraint makes the S-procedure lossless, and the
perturbed one reduces exactly to the same 2n x 2n form as the unperturbed.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError
from .matrix_core import (
    is_psd,
    solve_discrete_lyapunov,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
)
from .horizons import horizon_from_text, horizon_to_text
from .partition import RegionForms, decay_forms, pair_multiplier

# scan order matters: taking the smallest feasible alpha maximizes the slack
# of the second LMI, which the online trigger needs
ALPHA_GRID = [2.0**k for k in range(-6, 7)]

SCALE_GRID_POINTS = 121  # log grid over [1e-6, 1e6] for the offline scaling


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
    chi: float  # squared aggregate at the fallback horizon's length
    C: float
    varpi: float
    C_prime: float
    mu: float
    psi: float
    sigma_star: tuple
    beta: float
    T: float
    chi_squared: dict  # length -> squared aggregate, for the trigger


@dataclass(frozen=True)
class PerturbedOfflineCertificate:
    P: np.ndarray
    gamma1: float
    gamma2: float
    chi_linear: float  # unsquared aggregate at the fallback horizon's length
    mu: float
    sigma_star: tuple
    beta: float
    T: float
    chi_linear_map: dict  # length -> unsquared aggregate
    C_prime: float
    varpi: float


def decay_factor(beta: float, length: int, T: float) -> float:
    """e^{-beta l T}, the required contraction over a length-l horizon."""
    return math.exp(-beta * length * T)


def choose_sigma_star(horizons, phis) -> tuple:
    """Horizon of smallest spectral radius in a stacked transition table (first wins)."""
    if len(horizons) == 0:
        raise InfeasibleError("empty horizon set")
    if not np.isfinite(phis).all():
        raise ValueError("matrix entries must be finite")
    radii = np.abs(np.linalg.eigvals(phis)).max(axis=1)
    return tuple(horizons[int(np.argmin(radii))])


def synthesize_unperturbed(
    Phi_star, beta: float, horizon_seconds: float, *, sigma_star=(), T: float = 0.0
) -> UnperturbedCertificate:
    """P > 0 with Phi*' P Phi* - e^{-beta |sigma*| T} P < 0.

    Solved exactly: P is the weighted discrete Lyapunov solution with unit
    right-hand side, which makes the strict-inequality margin exactly
    lambda_min(I) = 1 before scaling.
    """
    rho = math.exp(-beta * horizon_seconds)
    sr = spectral_radius(Phi_star)
    if sr >= math.sqrt(rho):
        raise InfeasibleError(
            f"fallback horizon is not contractive enough: spectral radius "
            f"{sr:.12g} >= required bound {math.sqrt(rho):.12g}"
        )
    nn = np.asarray(Phi_star).shape[0]
    P = solve_discrete_lyapunov(Phi_star, rho, np.eye(nn))
    lo, _ = sym_eig_bounds(rho * P - symmetrize(Phi_star.T @ P @ Phi_star))
    if lo < 1e-9:
        raise InfeasibleError(f"decay margin {lo:.3g} below 1e-9")
    sigma_star = tuple(sigma_star)
    if sigma_star and not T:
        T = horizon_seconds / len(sigma_star)
    return UnperturbedCertificate(P=P, beta=beta, T=T, sigma_star=sigma_star)


def _scaled_tol(P, tol: float) -> float:
    """tol * min(1, lambda_max(P)): the inequalities are homogeneous in the
    certificate, so an absolute tolerance would accept any non-certificate
    scaled down far enough."""
    return tol * min(1.0, max(0.0, sym_eig_bounds(P)[1]))


def verify_lmi_pair(P, M, gamma: float, chi: float, Phi, bbar: float, tol: float = 1e-9) -> bool:
    """Check the two perturbed-online matrix inequalities at tolerance tol.

    First: Phi'(P+M)Phi + (bbar - gamma) P <= 0.  Second:
    [[M, P], [P, (gamma/chi) I - P]] >= 0.  Eigenvalues are compared against
    tol * min(1, lambda_max(P)).
    """
    P = symmetrize(P)
    M = symmetrize(M)
    nn = P.shape[0]
    L1 = symmetrize(Phi.T @ (P + M) @ Phi) + (bbar - gamma) * P
    L2 = np.block([[M, P], [P, (gamma / chi) * np.eye(nn) - P]])
    tol = _scaled_tol(P, tol)
    return is_psd(-L1, tol) and is_psd(L2, tol)


def synthesize_perturbed_online(
    Phi_star,
    beta: float,
    horizon_seconds: float,
    chi: float,
    gamma: float,
    *,
    C: float = 0.0,
    varpi: float = 0.0,
    C_prime: float = 0.0,
    sigma_star=(),
    T: float = 0.0,
    chi_squared: Optional[dict] = None,
) -> PerturbedOnlineCertificate:
    """Find (P, M) satisfying both perturbed-online inequalities.

    Structured search with M = alpha P: the first inequality is
    scale-invariant and reduces to sr(Phi*)^2 < (gamma - bbar)/(1 + alpha);
    the second reduces to gamma/chi >= s (1 + 1/alpha) lambda_max(P1), so the
    scale s is set with a 10% margin.  alpha is scanned ascending and the
    first feasible value wins.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    bbar = math.exp(-beta * horizon_seconds)
    sr2 = spectral_radius(Phi_star) ** 2
    nn = np.asarray(Phi_star).shape[0]
    for alpha in ALPHA_GRID:
        rho_max = (gamma - bbar) / (1.0 + alpha)
        if sr2 >= rho_max:
            continue
        rho = 0.5 * (sr2 + rho_max)
        P1 = solve_discrete_lyapunov(Phi_star, min(rho, 1.0), np.eye(nn))
        _, lmax1 = sym_eig_bounds(P1)
        s = 0.9 * (gamma / chi) / ((1.0 + 1.0 / alpha) * lmax1)
        P = s * P1
        M = alpha * P
        if verify_lmi_pair(P, M, gamma, chi, Phi_star, bbar):
            mu, psi = ultimate_bound(P, C_prime, varpi)
            sigma_star = tuple(sigma_star)
            if sigma_star and not T:
                T = horizon_seconds / len(sigma_star)
            return PerturbedOnlineCertificate(
                P=P,
                M=M,
                gamma=gamma,
                chi=chi,
                C=C,
                varpi=varpi,
                C_prime=C_prime,
                mu=mu,
                psi=psi,
                sigma_star=sigma_star,
                beta=beta,
                T=T,
                chi_squared=dict(chi_squared or {len(sigma_star) or 1: chi}),
            )
    raise InfeasibleError(
        f"no alpha in [2^-6, 2^6] satisfies the first inequality: "
        f"sr^2={sr2:.6g}, gamma={gamma}, bbar={bbar:.6g}"
    )


def U_sigma_builder(P, M, gamma: float):
    """build(Phi_sigma, bbar_sigma, chi_sigma_squared) -> U_sigma, for one horizon or a stack
    (..., 2n, 2n) with bbar and chi of shape (...); M > 0 and lambda_max(P M^{-1} P + P) are done once."""
    P = symmetrize(P)
    M = symmetrize(M)
    lo, _ = sym_eig_bounds(M)
    if lo <= 0:
        raise ValueError(f"M must be positive definite, lambda_min={lo:.3g}")
    nn = P.shape[0]
    _, lam_bar = sym_eig_bounds(symmetrize(P @ np.linalg.solve(M, P)) + P)

    def build(Phi_sigma, bbar_sigma, chi_sigma_squared) -> np.ndarray:
        bbar = np.asarray(bbar_sigma, dtype=float)[..., None, None]
        G = np.swapaxes(Phi_sigma, -1, -2) @ (P + M) @ Phi_sigma
        U = np.zeros(G.shape[:-2] + (nn + 1, nn + 1))
        U[..., :nn, :nn] = -(0.5 * (G + np.swapaxes(G, -1, -2))) + (bbar - gamma) * P
        U[..., nn, nn] = gamma - np.asarray(chi_sigma_squared, dtype=float) * lam_bar
        return U

    return build


def build_U_sigma(P, M, gamma: float, Phi_sigma, bbar_sigma: float, chi_sigma_squared: float) -> np.ndarray:
    """Feasibility matrix for one horizon in the perturbed-online trigger.

    Block diagonal: the 2n x 2n block -Phi'(P+M)Phi + (bbar - gamma) P and
    the scalar gamma - chi lambda_max(P M^{-1} P + P) in the last entry.  The
    horizon is admissible at eta iff (eta; 1)' U (eta; 1) >= 0.
    """
    return U_sigma_builder(P, M, gamma)(Phi_sigma, bbar_sigma, chi_sigma_squared)


def build_U_c(
    P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c, eps_c: float
) -> np.ndarray:
    """Region-wise feasibility matrix for the perturbed-offline trigger.

    Symmetric (4n+1)x(4n+1) blocks: u11 = eps Q_c - Phi'P Phi + (bbar -
    gamma1) P, u21 = -P Phi, u22 = (gamma2/chi) I - P, u33 = -gamma2 +
    gamma1, u31 = u32 = 0.  A horizon belongs to the region's admissible set
    iff this matrix is PSD for some multiplier eps_c > 0.  Stacked horizons
    (..., 2n, 2n), with bbar and chi_linear of shape (...), give a stack.
    """
    P = symmetrize(P)
    nn = P.shape[0]
    bbar = np.asarray(bbar, dtype=float)[..., None, None]
    chi = np.asarray(chi_linear, dtype=float)[..., None, None]
    G = np.swapaxes(Phi_sigma, -1, -2) @ P @ Phi_sigma
    U = np.zeros(Phi_sigma.shape[:-2] + (2 * nn + 1, 2 * nn + 1))
    U[..., :nn, :nn] = eps_c * symmetrize(Q_c) - 0.5 * (G + np.swapaxes(G, -1, -2)) + (bbar - gamma1) * P
    off = -P @ Phi_sigma
    U[..., nn : 2 * nn, :nn] = off
    U[..., :nn, nn : 2 * nn] = np.swapaxes(off, -1, -2)
    U[..., nn : 2 * nn, nn : 2 * nn] = (gamma2 / chi) * np.eye(nn) - P
    U[..., 2 * nn, 2 * nn] = -gamma2 + gamma1
    return U


def synthesize_perturbed_offline(
    Phi_star,
    beta: float,
    horizon_seconds: float,
    chi_linear: float,
    gamma1: float,
    gamma2: float,
    *,
    sigma_star=(),
    T: float = 0.0,
    chi_linear_map: Optional[dict] = None,
    C_prime: float = 0.0,
    varpi: float = 0.0,
) -> PerturbedOfflineCertificate:
    """P for the perturbed-offline mechanism via Lyapunov ansatz and scaling.

    P1 solves the weighted Lyapunov equation at the midpoint rate between
    sr(Phi*)^2 and bbar - gamma1; the scale s is then searched over a
    descending log grid and the first (largest) value whose assembled
    unregioned feasibility matrix has lambda_min >= -1e-9 wins.  The
    assembled eigenvalue check is the authority, not the ansatz.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError(f"gamma1 and gamma2 must be positive, got {gamma1}, {gamma2}")
    bbar = math.exp(-beta * horizon_seconds)
    sr2 = spectral_radius(Phi_star) ** 2
    target = bbar - gamma1
    if target <= sr2:
        raise InfeasibleError(
            f"need sr(Phi*)^2 < bbar - gamma1: sr^2={sr2:.6g}, bound={target:.6g}"
        )
    rho = 0.5 * (sr2 + target)
    nn = np.asarray(Phi_star).shape[0]
    P1 = solve_discrete_lyapunov(Phi_star, min(rho, 1.0), np.eye(nn))
    Q_zero = np.zeros((nn, nn))
    for s in np.logspace(6, -6, SCALE_GRID_POINTS):
        P = s * P1
        U = build_U_c(P, gamma1, gamma2, Phi_star, bbar, chi_linear, Q_zero, 1.0)
        lo, _ = sym_eig_bounds(U)
        if lo >= -1e-9:
            mu, _ = ultimate_bound(P, C_prime, varpi)
            sigma_star = tuple(sigma_star)
            if sigma_star and not T:
                T = horizon_seconds / len(sigma_star)
            return PerturbedOfflineCertificate(
                P=P,
                gamma1=gamma1,
                gamma2=gamma2,
                chi_linear=chi_linear,
                mu=mu,
                sigma_star=sigma_star,
                beta=beta,
                T=T,
                chi_linear_map=dict(chi_linear_map or {len(sigma_star) or 1: chi_linear}),
                C_prime=C_prime,
                varpi=varpi,
            )
    raise InfeasibleError("no scaling in [1e-6, 1e6] makes the assembled matrix PSD")


def perturbed_forms(P, gamma1: float, gamma2: float, phis, bbars, chis, tol: float = 1e-9) -> RegionForms:
    """The perturbed-offline region test, reduced exactly to 2n x 2n forms.

    lambda_min(U_c(eps)) >= -tol says U = U_c(0) + tol I plus eps
    blockdiag(Q_c, 0, 0) is PSD, which holds iff u33 >= 0, u22 > 0 (its
    singular boundary is dropped) and the Schur complement
    C = u11 - u21' u22^{-1} u21 satisfies C + eps Q_c >= 0.  The first two
    do not depend on the region, so they prune horizons once; the third is
    lambda_max(tol I - C - eps Q_c) <= tol, the form S = tol I - C with
    sign -1 (U_c adds +eps Q_c).
    """
    nn = np.asarray(P).shape[0]
    U0 = build_U_c(P, gamma1, gamma2, phis, bbars, chis, np.zeros((nn, nn)), 0.0)
    u22 = U0[:, nn : 2 * nn, nn : 2 * nn] + tol * np.eye(nn)
    keep = (np.linalg.eigvalsh(u22)[:, 0] > 0) & (U0[:, 2 * nn, 2 * nn] + tol >= 0)
    index = np.flatnonzero(keep)
    u11, u21 = U0[index, :nn, :nn], U0[index, nn : 2 * nn, :nn]
    G = np.swapaxes(u21, 1, 2) @ np.linalg.solve(u22[index], u21)
    S = 0.5 * (G + np.swapaxes(G, 1, 2)) - u11  # tol I - C: the two tol I cancel
    return RegionForms(index, S, -U0[index], -1.0, tol)


def max_eps_feasible(
    P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c, tol: float = 1e-9
):
    """Multiplier eps_c > 0 with lambda_min(U_c(eps_c)) >= -tol, or None.

    Exact, as U_c(eps) = U_c(0) + eps blockdiag(Q_c, 0, 0): the lossless
    single-constraint test on the Schur-reduced form of `perturbed_forms`,
    with the assembled matrix as the authority.
    """
    forms = perturbed_forms(P, gamma1, gamma2, np.asarray(Phi_sigma, dtype=float)[None], [bbar], [chi_linear], tol)
    return pair_multiplier(forms, Q_c)


def region_forms(cert, horizons, phis) -> RegionForms:
    """The offline region test of an unperturbed or perturbed-offline
    certificate; phis is the transition table stacked in horizon order."""
    bbars = [decay_factor(cert.beta, len(s), cert.T) for s in horizons]
    if isinstance(cert, UnperturbedCertificate):
        return decay_forms(cert.P, phis, bbars)
    chis = [cert.chi_linear_map[len(s)] for s in horizons]
    return perturbed_forms(cert.P, cert.gamma1, cert.gamma2, phis, bbars, chis)


def ultimate_bound(P, C_prime: float, varpi: float):
    """(mu, psi): mu = lambda_max(P)(C'/lambda_min(P) + varpi)^2, psi = mu/lambda_min(P).

    E(P, mu) is the attracting ellipsoid; the ball of squared radius psi is
    the smallest one containing it.
    """
    lo, hi = sym_eig_bounds(P)
    if lo <= 0:
        raise ValueError(f"P must be positive definite, lambda_min={lo:.3g}")
    mu = hi * (C_prime / lo + varpi) ** 2
    return float(mu), float(mu / lo)


# ---------------------------------------------------------------------------
# serialization: JSON-safe dicts, matrices as row-major nested lists


def certificate_to_dict(cert) -> dict:
    if isinstance(cert, UnperturbedCertificate):
        return {
            "kind": "unperturbed",
            "P": cert.P.tolist(),
            "beta": cert.beta,
            "T": cert.T,
            "sigma_star": horizon_to_text(cert.sigma_star),
        }
    if isinstance(cert, PerturbedOnlineCertificate):
        return {
            "kind": "perturbed-online",
            "P": cert.P.tolist(),
            "M": cert.M.tolist(),
            "gamma": cert.gamma,
            "chi": cert.chi,
            "C": cert.C,
            "varpi": cert.varpi,
            "C_prime": cert.C_prime,
            "mu": cert.mu,
            "psi": cert.psi,
            "sigma_star": horizon_to_text(cert.sigma_star),
            "beta": cert.beta,
            "T": cert.T,
            "chi_squared": {str(k): v for k, v in cert.chi_squared.items()},
        }
    if isinstance(cert, PerturbedOfflineCertificate):
        return {
            "kind": "perturbed-offline",
            "P": cert.P.tolist(),
            "gamma1": cert.gamma1,
            "gamma2": cert.gamma2,
            "chi_linear": cert.chi_linear,
            "mu": cert.mu,
            "sigma_star": horizon_to_text(cert.sigma_star),
            "beta": cert.beta,
            "T": cert.T,
            "chi_linear_map": {str(k): v for k, v in cert.chi_linear_map.items()},
            "C_prime": cert.C_prime,
            "varpi": cert.varpi,
        }
    raise TypeError(f"not a certificate: {type(cert)!r}")


def certificate_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "unperturbed":
        return UnperturbedCertificate(
            P=np.array(data["P"], dtype=float),
            beta=float(data["beta"]),
            T=float(data["T"]),
            sigma_star=horizon_from_text(data["sigma_star"]),
        )
    if kind == "perturbed-online":
        return PerturbedOnlineCertificate(
            P=np.array(data["P"], dtype=float),
            M=np.array(data["M"], dtype=float),
            gamma=float(data["gamma"]),
            chi=float(data["chi"]),
            C=float(data["C"]),
            varpi=float(data["varpi"]),
            C_prime=float(data["C_prime"]),
            mu=float(data["mu"]),
            psi=float(data["psi"]),
            sigma_star=horizon_from_text(data["sigma_star"]),
            beta=float(data["beta"]),
            T=float(data["T"]),
            chi_squared={int(k): float(v) for k, v in data["chi_squared"].items()},
        )
    if kind == "perturbed-offline":
        return PerturbedOfflineCertificate(
            P=np.array(data["P"], dtype=float),
            gamma1=float(data["gamma1"]),
            gamma2=float(data["gamma2"]),
            chi_linear=float(data["chi_linear"]),
            mu=float(data["mu"]),
            sigma_star=horizon_from_text(data["sigma_star"]),
            beta=float(data["beta"]),
            T=float(data["T"]),
            chi_linear_map={int(k): float(v) for k, v in data["chi_linear_map"].items()},
            C_prime=float(data["C_prime"]),
            varpi=float(data["varpi"]),
        )
    raise ValueError(f"unknown certificate kind {kind!r}")


def _positive_definite(*mats) -> bool:
    return all(sym_eig_bounds(S)[0] > 0 for S in mats)


def reverify_certificate(cert, Phi_star) -> bool:
    """Re-check the certificate's defining inequalities from scratch at 1e-9
    (scaled by min(1, lambda_max(P)) for the perturbed kinds).

    Every kind also requires its Lyapunov matrix P (and M for the online
    perturbed kind) to be positive definite: the inequalities alone accept
    P = M = 0, for which V = eta' P eta and the bound mu mean nothing.
    """
    if isinstance(cert, UnperturbedCertificate):
        rho = decay_factor(cert.beta, len(cert.sigma_star), cert.T)
        G = symmetrize(Phi_star.T @ cert.P @ Phi_star) - rho * cert.P
        _, hi = sym_eig_bounds(G)
        return hi <= -1e-9 and _positive_definite(cert.P)
    if isinstance(cert, PerturbedOnlineCertificate):
        bbar = decay_factor(cert.beta, len(cert.sigma_star), cert.T)
        pair_ok = verify_lmi_pair(cert.P, cert.M, cert.gamma, cert.chi, Phi_star, bbar)
        return pair_ok and _positive_definite(cert.P, cert.M)
    if isinstance(cert, PerturbedOfflineCertificate):
        bbar = decay_factor(cert.beta, len(cert.sigma_star), cert.T)
        nn = cert.P.shape[0]
        U = build_U_c(
            cert.P,
            cert.gamma1,
            cert.gamma2,
            Phi_star,
            bbar,
            cert.chi_linear,
            np.zeros((nn, nn)),
            1.0,
        )
        return is_psd(U, _scaled_tol(cert.P, 1e-9)) and _positive_definite(cert.P)
    raise TypeError(f"not a certificate: {type(cert)!r}")
