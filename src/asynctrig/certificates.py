"""Lyapunov/LMI certificates behind the four triggering mechanisms.

The unperturbed certificate is a quadratic V(eta) = eta' P eta contracting by
e^{-beta |sigma| T} along the fallback horizon.  The perturbed variants add a
slack matrix M and rate constants (gamma, or gamma1 >= gamma2) plus the
disturbance aggregates chi, and yield an ultimate-bound ellipsoid E(P, mu).

No semidefinite-programming solver is used: all matrices here are small
(<= 9x9), so certificates are built from a weighted discrete Lyapunov solve
plus structured scalar searches, and every result is re-checked by direct
eigenvalue bounds, which are the feasibility authority.
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


def choose_sigma_star(phis: dict) -> tuple:
    """Most contractive horizon of a transition table (smallest spectral radius, first wins)."""
    best = None
    best_sr = math.inf
    for sigma, Phi in phis.items():
        sr = spectral_radius(Phi)
        if sr < best_sr:
            best_sr = sr
            best = tuple(sigma)
    if best is None:
        raise InfeasibleError("empty horizon set")
    return best


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


def build_U_sigma(P, M, gamma: float, Phi_sigma, bbar_sigma: float, chi_sigma_squared: float) -> np.ndarray:
    """Feasibility matrix for one horizon in the perturbed-online trigger.

    Block diagonal: the 2n x 2n block -Phi'(P+M)Phi + (bbar - gamma) P and
    the scalar gamma - chi lambda_max(P M^{-1} P + P) in the last entry.  The
    horizon is admissible at eta iff (eta; 1)' U (eta; 1) >= 0.
    """
    P = symmetrize(P)
    M = symmetrize(M)
    lo, _ = sym_eig_bounds(M)
    if lo <= 0:
        raise ValueError(f"M must be positive definite, lambda_min={lo:.3g}")
    nn = P.shape[0]
    _, lam_bar = sym_eig_bounds(symmetrize(P @ np.linalg.solve(M, P)) + P)
    U = np.zeros((nn + 1, nn + 1))
    U[:nn, :nn] = -symmetrize(Phi_sigma.T @ (P + M) @ Phi_sigma) + (bbar_sigma - gamma) * P
    U[nn, nn] = gamma - chi_sigma_squared * lam_bar
    return U


def build_U_c(
    P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c, eps_c: float
) -> np.ndarray:
    """Region-wise feasibility matrix for the perturbed-offline trigger.

    Symmetric (4n+1)x(4n+1) blocks: u11 = eps Q_c - Phi'P Phi + (bbar -
    gamma1) P, u21 = -P Phi, u22 = (gamma2/chi) I - P, u33 = -gamma2 +
    gamma1, u31 = u32 = 0.  A horizon belongs to the region's admissible set
    iff this matrix is PSD for some multiplier eps_c > 0.
    """
    P = symmetrize(P)
    nn = P.shape[0]
    U = np.zeros((2 * nn + 1, 2 * nn + 1))
    U[:nn, :nn] = eps_c * symmetrize(Q_c) - symmetrize(Phi_sigma.T @ P @ Phi_sigma) + (bbar - gamma1) * P
    off = -P @ Phi_sigma
    U[nn : 2 * nn, :nn] = off
    U[:nn, nn : 2 * nn] = off.T
    U[nn : 2 * nn, nn : 2 * nn] = (gamma2 / chi_linear) * np.eye(nn) - P
    U[2 * nn, 2 * nn] = -gamma2 + gamma1
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


def max_eps_feasible(
    P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c, tol: float = 1e-9
):
    """Multiplier eps_c > 0 maximizing lambda_min of the assembled region matrix.

    Coarse log grid over [1e-8, 1e8], then golden-section refinement; the
    horizon is admissible for the region iff the maximum reaches -tol.
    Returns the multiplier, or None.
    """

    def lmin(eps: float) -> float:
        U = build_U_c(P, gamma1, gamma2, Phi_sigma, bbar, chi_linear, Q_c, eps)
        lo, _ = sym_eig_bounds(U)
        return lo

    grid = np.logspace(-8, 8, 17)
    vals = [lmin(e) for e in grid]
    i = int(np.argmax(vals))
    if vals[i] >= -tol:
        return float(grid[i])
    best_eps, best_val = float(grid[i]), vals[i]
    a = math.log(grid[max(0, i - 1)])
    b = math.log(grid[min(len(grid) - 1, i + 1)])
    gr = (math.sqrt(5) - 1) / 2
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = lmin(math.exp(c1)), lmin(math.exp(c2))
    for _ in range(25):
        if f1 > best_val:
            best_eps, best_val = math.exp(c1), f1
        if f2 > best_val:
            best_eps, best_val = math.exp(c2), f2
        if f1 > f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = lmin(math.exp(c1))
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = lmin(math.exp(c2))
    mid = math.exp(0.5 * (a + b))
    vm = lmin(mid)
    if vm > best_val:
        best_eps, best_val = mid, vm
    if best_val >= -tol:
        return float(best_eps)
    return None


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
