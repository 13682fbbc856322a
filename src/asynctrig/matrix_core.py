"""Dense real matrix kernels used by every other module.

Zero-order-hold integrals, symmetric eigenvalue bounds, spectral
norm/radius, a weighted discrete Lyapunov solver, the per-horizon decay
form, and the batched decision step of the exact single-constraint
S-procedure, which reads lambda_max <= 0 as computed.
All functions are pure; inputs are never mutated.
"""

import numpy as np
from scipy.linalg import expm

from .errors import InfeasibleError

# margins, never allowances: the unperturbed decay must clear PSD_MARGIN and the
# offline perturbed scale search starts at it; the Lyapunov solver's stability check
PSD_MARGIN = 1e-9
SCHUR_MARGIN = 1.0 - 1e-9


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _require_square(A: np.ndarray):
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")


def symmetrize(S) -> np.ndarray:
    """(S + S')/2.  Products like F' P F accumulate ~1e-13 asymmetry."""
    S = _as_matrix(S)
    return 0.5 * (S + S.T)


def zoh_pair(A, B, T: float):
    """Exact zero-order-hold pair (e^{AT}, int_0^T e^{As} B ds).

    Computed jointly from the augmented exponential exp([[A, B], [0, 0]] T):
    the top-left block is A_T and the top-right block is B_T.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    _require_square(A)
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    mu = B.shape[1]
    aug = np.zeros((n + mu, n + mu))
    aug[:n, :n] = A
    aug[:n, n:] = B
    E = expm(aug * float(T))
    return E[:n, :n], E[:n, n:]


def spectral_radius(M) -> float:
    M = _as_matrix(M)
    _require_square(M)
    return float(np.abs(np.linalg.eigvals(M)).max())


def sym_eig_bounds(S):
    """(lambda_min, lambda_max) of a symmetric matrix.

    S must be symmetric within a small tolerance relative to its magnitude;
    it is symmetrized before the eigensolve.
    """
    S = _as_matrix(S)
    _require_square(S)
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > 1e-9 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w = np.linalg.eigvalsh(symmetrize(S))
    return float(w[0]), float(w[-1])


def spectral_norm(M) -> float:
    """Largest singular value, sqrt(lambda_max(M'M))."""
    M = _as_matrix(M)
    return float(np.linalg.norm(M, 2))


def solve_discrete_lyapunov(Phi, rho: float, Q) -> np.ndarray:
    """Solve F' P F - rho P = -Q for symmetric P by vectorization.

    (F' (x) F' - rho I) vec(P) = -vec(Q).  Requires spectral_radius(F) <
    sqrt(rho); the residual is checked against 1e-8 * ||Q||_F.
    """
    Phi = _as_matrix(Phi)
    _require_square(Phi)
    Q = symmetrize(Q)
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    sr = spectral_radius(Phi)
    if sr >= np.sqrt(rho) * SCHUR_MARGIN:
        raise InfeasibleError(
            f"spectral radius {sr:.12g} is not below sqrt(rho)={np.sqrt(rho):.12g}"
        )
    nn = Phi.shape[0]
    lhs = np.kron(Phi.T, Phi.T) - rho * np.eye(nn * nn)
    Pv = np.linalg.solve(lhs, -Q.flatten(order="F"))
    P = symmetrize(Pv.reshape((nn, nn), order="F"))
    resid = np.linalg.norm(Phi.T @ P @ Phi - rho * P + Q, "fro")
    if resid > 1e-8 * np.linalg.norm(Q, "fro"):
        raise InfeasibleError(f"Lyapunov residual {resid:.3g} exceeds tolerance")
    return P


def decay_form(Phi, P, w, A=None) -> np.ndarray:
    """S = sym(Phi' A Phi) - w P, with A = P by default.

    Phi is one transition or a stack (..., d, d), with w of shape (...).
    Every Lyapunov inequality on a horizon's transition is one such form:
    S < 0 is decay at rate w, and the perturbed tests pick their own A and w.
    It uses only @, +, -, * and / 2, so `fractions.Fraction` entries stay
    `Fraction`.
    """
    G = np.swapaxes(Phi, -1, -2) @ (P if A is None else A) @ Phi
    return (G + np.swapaxes(G, -1, -2)) / 2 - np.asarray(w)[..., None, None] * P


def sprocedure_multipliers(S, Q, ends) -> np.ndarray:
    """Per form S[h] of a stack, some eps > 0 with lambda_max(S[h] + eps Q[h]) <= 0, or NaN.

    Q is a stack of one form per row, or a single form that every row shares.
    lambda_max(S + eps Q) is convex in eps, so the feasible eps form an
    interval whose finite ends are real eigenvalues of the pencil
    (S, -Q); ends[h] holds that pencil's eigenvalues for row h.
    One eps below the first positive end, one between each consecutive pair and
    one past the last therefore decide exactly; the real parts of complex
    eigenvalues only add test points, and non-finite ones from a singular Q
    are dropped.  One batched eigvalsh decides every candidate of the stack
    as computed, and the smallest feasible one is returned.
    """
    ends = np.real(ends)
    ends = np.where(np.isfinite(ends) & (ends > 0), ends, np.nan)
    ends.sort(axis=1)  # NaN last
    ends[:, 1:][ends[:, 1:] == ends[:, :-1]] = np.nan  # each end once
    ends.sort(axis=1)
    count = np.count_nonzero(~np.isnan(ends), axis=1)
    rows = np.arange(len(ends))
    last = ends[rows, np.maximum(count - 1, 0)]
    candidates = np.column_stack(
        [np.where(count > 0, ends[:, 0] / 2, 1.0), (ends[:, :-1] + ends[:, 1:]) / 2, 2 * last]
    )
    h, k = np.nonzero(~np.isnan(candidates))
    feasible = np.zeros(candidates.shape, dtype=bool)
    feasible[h, k] = np.linalg.eigvalsh(S[h] + candidates[h, k, None, None] * np.broadcast_to(Q, S.shape)[h])[:, -1] <= 0.0
    first = candidates[rows, feasible.argmax(axis=1)]
    return np.where(feasible.any(axis=1), first, np.nan)
