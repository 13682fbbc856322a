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
authority, which checks the matrices `conditions` states.  The region forms
of the two offline kinds are stated here too (`decay_forms`,
`perturbed_forms`, and `region_forms`, which picks one).  Every matrix
verdict is decided conservatively by `matrix_core.definite`, exactly on
`Fraction` entries, with no tolerance: a `conditions` matrix minus its floor
is positive definite (the floor is the margin `PSD_MARGIN` for the
unperturbed decay, else 0), and a region entry's matrix is negative
definite; a matrix that is singular, or within rounding of it, fails.  The
region tests are exact: one quadratic
constraint makes the S-procedure lossless, and the perturbed one reduces
exactly to the same 2n x 2n form as the unperturbed.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigvals

from .errors import InfeasibleError
from .matrix_core import (
    PSD_MARGIN,
    decay_form,
    definite,
    solve_discrete_lyapunov,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
)
from .horizons import horizon_from_text, horizon_to_text, rotation_classes
from .partition import RegionForms

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
    table = np.zeros(lengths.max() + 1)
    for l in np.flatnonzero(np.bincount(lengths)).tolist():  # counted, not sorted
        table[l] = f(l)
    return table[lengths]


def _radii(phis) -> np.ndarray:
    return np.abs(np.linalg.eigvals(phis)).max(axis=1)


def _power_bounds(phis):
    """(lower, upper): bounds on the spectral radius rho of each matrix of a (K, d, d) stack.

    Four squarings give Phi^16 and |Phi|^16.  In exact arithmetic
    |tr Phi^16| = |sum_i lambda_i^16| <= d rho^16 and rho^16 <= ||Phi^16||_F.
    Each rounded product fl(XY) is within gamma_d |X||Y| of XY (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), so the computed
    power is within ((1 + gamma_d)^15 - 1) |Phi|^16 ~ 15 d u |Phi|^16 of the
    exact one, entrywise; e = 32 d u |Phi|^16, as computed, also covers the
    rounding of |Phi|^16, of the trace and of the norm.  So lower = ((|tr| -
    tr e)/d)^(1/16) and upper = ((||Phi^16||_F + ||e||_F)(1 + 32 d u))^(1/16);
    the last-bit error of the 16th roots and any subnormal underflow are far
    below the SIGMA_STAR_ATOL floor that `choose_sigma_star` adds to them.  A
    power that overflowed gives lower 0 and upper inf.
    """
    d = phis.shape[-1]
    power, size = phis, np.abs(phis)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            power, size = power @ power, size @ size
        rounding = 16 * d * np.finfo(float).eps  # 32 d u
        err = rounding * size
        trace = np.abs(np.trace(power, axis1=1, axis2=2)) - np.trace(err, axis1=1, axis2=2)
        norm = (np.linalg.norm(power, axis=(1, 2)) + np.linalg.norm(err, axis=(1, 2))) * (1 + rounding)
    lower = np.where(np.isfinite(trace) & (trace > 0), trace / d, 0.0) ** (1 / 16)
    upper = np.where(np.isfinite(norm), norm, np.inf) ** (1 / 16)
    return lower, upper


def choose_sigma_star(phis, codes) -> int:
    """Index of the horizon of smallest spectral radius in its transition table (first wins).

    phis must be the transition table of the horizons of the code
    array codes, stacked in the same order.  A rotation of a horizon
    multiplies the same step matrices in rotated order: where sigma gives XY,
    its rotation gives YX, and XY and YX have the same eigenvalues.  So every
    horizon of a rotation class has the same spectral radius in exact
    arithmetic, and one eigensolve per class (its first member) finds the
    least.  Only the classes that can win are solved: `_power_bounds` gives
    each class a lower bound lb on its radius and U, the least upper bound,
    bounds the least radius, so a class with lb > U + 2 tol, tol =
    max(SIGMA_STAR_RTOL U, SIGMA_STAR_ATOL), lies outside the re-solve
    window below even where roundoff moves either computed radius by up to
    that window.  Roundoff can still order the members of a class, so every
    member of each class whose radius is within SIGMA_STAR_RTOL of the least,
    or SIGMA_STAR_ATOL where that is larger, is solved again, and the first of
    them with the smallest radius is returned: the horizon one eigensolve per
    horizon picks.
    """
    if len(phis) == 0:
        raise InfeasibleError("empty horizon set")
    if not np.isfinite(phis).all():
        raise ValueError("matrix entries must be finite")
    cls, first = rotation_classes(codes)
    lower, upper = _power_bounds(phis[first])
    bound = upper.min()
    kept = np.flatnonzero(~(lower > bound + 2 * max(SIGMA_STAR_RTOL * bound, SIGMA_STAR_ATOL)))
    radii = _radii(phis[first[kept]])
    least = radii.min()
    near = kept[radii <= least + max(SIGMA_STAR_RTOL * least, SIGMA_STAR_ATOL)]
    members = np.flatnonzero(np.isin(cls, near))
    return int(members[np.argmin(_radii(phis[members]))])


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

    Symmetric 4n x 4n blocks: u11 = (bbar - gamma1) P - sym(Phi'P Phi),
    u21 = -P Phi and u22 = (gamma2/chi) I - P, with chi the linear
    aggregate chi(|sigma|).  It is affine in P, and P is taken as given.
    The paper's matrix also has the decoupled corner u33 = gamma1 - gamma2,
    which depends on neither P nor the horizon nor the region:
    `reverify_certificate` decides it on its own.  The region term enters
    only through `perturbed_forms`.  Stacked horizons (..., 2n, 2n), with
    bbar and chi_linear of shape (...), give a stack.
    """
    off = -P @ Phi_sigma
    u22 = gamma2 / np.asarray(chi_linear)[..., None, None] * np.eye(P.shape[0], dtype=int) - P
    u11 = -decay_form(Phi_sigma, P, np.asarray(bbar) - gamma1)
    return np.block([[u11, np.swapaxes(off, -1, -2)], [off, u22]])


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
    horizon, so gamma2 > gamma1 is a ValueError, checked once.  P1 solves
    the weighted Lyapunov equation at the midpoint rate between sr(Phi*)^2
    and bbar - gamma1.  The unregioned matrix at chi[|sigma*|] is affine in
    the scale, U(s P1) = B0 + s B1, so lambda_min(U) >= -PSD_MARGIN holds on
    an interval of s.  It holds at s = 0, where only u22 = (gamma2/chi) I is
    nonzero, so the interval is [0, s_max], and s_max is the least positive
    finite eigenvalue of the pencil (B0 + PSD_MARGIN I, -B1); the margin
    only starts the search, as U(0) is singular.  The scale taken is the
    largest point of a log grid over [1e-6, 1e6] not above s_max, which
    keeps P on a fixed set of scales, and `reverify_certificate`'s U > 0,
    decided by `definite`, is the authority.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError(f"gamma1 and gamma2 must be positive, got {gamma1}, {gamma2}")
    if gamma2 > gamma1:
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
    ends = eigvals(B0 + PSD_MARGIN * np.eye(B0.shape[0]), -B1)
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


def decay_forms(P, phis, bbars) -> RegionForms:
    """The unperturbed region test on a stack of horizons: its forms are
    `decay_form` S_sigma = Phi'P Phi - bbar P, each its own full matrix."""
    S = decay_form(phis, symmetrize(P), bbars)
    return RegionForms(np.arange(len(S)), S, S, 1.0)


def perturbed_forms(P, gamma1: float, gamma2: float, phis, bbars, chis) -> RegionForms:
    """The perturbed-offline region test, reduced exactly to 2n x 2n forms.

    A region certifies a horizon when U_c + eps blockdiag(Q_c, 0) is PSD
    for some eps > 0, with U_c from `build_U_c`, and the paper's corner
    gamma1 - gamma2 >= 0; the returned sign -1 (on full = -U_c) is the one
    place that states the region term's sign.  With u.. the blocks of U_c,
    that holds iff the corner holds, u22 > 0 (its singular boundary is
    dropped) and the Schur complement C = u11 - u21' u22^{-1} u21 satisfies
    C + eps Q_c >= 0.  The first two do not depend on the region, so they
    prune horizons once, before any U_c is assembled: u22 = (gamma2/chi) I -
    P, computed as `build_U_c` computes it, is decided conservatively by
    `definite`, once per distinct chi.  The third is -C - eps Q_c < 0, the
    form S = -C, and the region test rechecks the assembled matrix.
    """
    nn = np.asarray(P).shape[0]
    chis = np.asarray(chis)
    distinct, inverse = np.unique(chis, return_inverse=True)
    u22 = gamma2 / distinct[:, None, None] * np.eye(nn, dtype=int) - P  # as `build_U_c` computes it
    index = np.flatnonzero(definite(u22)[inverse] & (gamma1 >= gamma2))
    U0 = build_U_c(P, gamma1, gamma2, phis[index], np.asarray(bbars)[index], chis[index])
    u11, u21, u22 = U0[:, :nn, :nn], U0[:, nn:, :nn], U0[:, nn:, nn:]
    G = np.swapaxes(u21, 1, 2) @ np.linalg.solve(u22, u21)
    S = 0.5 * (G + np.swapaxes(G, 1, 2)) - u11  # -C
    return RegionForms(index, S, -U0, -1.0)


def region_forms(cert, codes, phis) -> RegionForms:
    """The offline region test of an unperturbed or perturbed-offline certificate
    on the horizons of a code array, with phis their transition table."""
    lengths = (codes >= 0).sum(axis=0)
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


def conditions(cert, Phi_star) -> dict:
    """name -> (matrix, floor): cert's matrix inequalities hold iff each
    matrix minus floor I is positive definite, which `reverify_certificate`
    decides conservatively by `definite` (exactly on `Fraction` entries).  bbar is the
    decay over |sigma*| and chi = chi(|sigma*|) from the certificate's map.
    - every kind: P, floor 0 (the inequalities alone accept P = 0);
    - unperturbed: decay = bbar P - sym(Phi*'P Phi*), floor PSD_MARGIN, a
      margin;
    - perturbed online: M, L1 = (gamma - bbar) P - sym(Phi*'(P+M)Phi*) and
      L2 = [[M, P], [P, (gamma/chi^2) I - P]], each floor 0;
    - perturbed offline: U_c = `build_U_c` at Phi*, floor 0.
    The offline kind's scalar corner gamma1 - gamma2 >= 0 is no matrix:
    `reverify_certificate` decides it exactly.  The matrices use only @, +,
    -, scalar *, /, swapaxes and np.block, and bbar takes P's scalar type,
    so `fractions.Fraction` entries in cert and Phi* stay `Fraction`.
    """
    if not isinstance(cert, tuple(CERTIFICATE_KINDS.values())):
        raise TypeError(f"not a certificate: {type(cert)!r}")
    P = cert.P
    bbar = type(P.flat[0])(decay_factor(cert.beta, len(cert.sigma_star), cert.T))
    if isinstance(cert, UnperturbedCertificate):
        return {"P": (P, 0.0), "decay": (-decay_form(Phi_star, P, bbar), PSD_MARGIN)}
    chi = cert.chi[len(cert.sigma_star)]
    if isinstance(cert, PerturbedOnlineCertificate):
        M, gamma = cert.M, cert.gamma
        L1 = -decay_form(Phi_star, P, gamma - bbar, P + M)
        L2 = np.block([[M, P], [P, gamma / chi**2 * np.eye(P.shape[0], dtype=int) - P]])
        return {"P": (P, 0.0), "M": (M, 0.0), "L1": (L1, 0.0), "L2": (L2, 0.0)}
    return {"P": (P, 0.0), "U_c": (build_U_c(P, cert.gamma1, cert.gamma2, Phi_star, bbar, chi), 0.0)}


def reverify_certificate(cert, Phi_star) -> bool:
    """Every `conditions` entry of cert holds, a perturbed kind's stored mu
    equals `ultimate_bound` of its P, C' and varpi, and the offline kind's
    corner gamma1 - gamma2 is >= 0.  The entries are decided conservatively
    by `definite`, one call per matrix size, so an entry that is singular,
    or within rounding of it, fails, and so does a non-symmetric or
    non-finite one."""
    stacks = {}  # matrix size -> (matrices, floors): one `definite` call per size
    for S, floor in conditions(cert, Phi_star).values():
        matrices, floors = stacks.setdefault(S.shape, ([], []))
        matrices.append(S)
        floors.append(floor)
    if not all(definite(np.array(matrices), np.array(floors)).all() for matrices, floors in stacks.values()):
        return False
    if isinstance(cert, PerturbedOfflineCertificate) and not cert.gamma1 >= cert.gamma2:  # NaN fails too
        return False
    return isinstance(cert, UnperturbedCertificate) or cert.mu == ultimate_bound(cert.P, cert.C_prime, cert.varpi)
