"""Dense real matrix kernels used by every other module.

Zero-order-hold integrals, symmetric eigenvalue bounds, spectral
norm/radius, a weighted discrete Lyapunov solver, the per-horizon decay
form, `definite`, the one yes/no test of a matrix inequality (exact on
rationals, conservative on floats), and the batched decision step of the
exact single-constraint S-procedure, which it decides.
All functions are pure; inputs are never mutated.
"""

import math
import numbers

import numpy as np
from scipy.linalg import expm

from .errors import InfeasibleError

# margins, never allowances: the unperturbed decay must clear PSD_MARGIN and the
# offline perturbed scale search starts at it; the Lyapunov solver's stability check
PSD_MARGIN = 1e-9
SCHUR_MARGIN = 1.0 - 1e-9
# twice the unit roundoff, and the least subnormal: `definite`'s rounding bound
_EPS = np.finfo(float).eps
_ETA = np.finfo(float).smallest_subnormal


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


def _finite(x) -> bool:
    return isinstance(x, numbers.Rational) or math.isfinite(x)


def definite(A, floor=0.0) -> np.ndarray:
    """Whether A - floor I > 0, for each matrix of a (..., d, d) stack, as a bool array.

    floor is one number or one per matrix.  A matrix that is not exactly
    symmetric, or holds a non-finite entry, is False.  Each matrix is
    factored without pivoting, one column at a time over the whole stack, and
    is positive definite iff every pivot is > 0.  An object array is read
    exactly: every entry, and floor, becomes the `Fraction` it equals, and
    the loop is LDL' with only +, -, * and /, so the verdict is exact.

    A float array is decided conservatively by Cholesky of B = fl(A - s I),
    s >= floor + c with c = 2(d+3) u t + 2d(d+2) eta, t = sum_i max(a_ii -
    floor, 0), u the unit roundoff and eta the least subnormal.  Proof
    (after S. M. Rump, "Verification of positive definiteness", BIT 46,
    2006).  If every pivot of B is > 0, Higham (Accuracy and Stability of
    Numerical Algorithms, Thm 10.3) gives R'R = B + dB with |dB| <=
    g|R'||R| + e 11', g = gamma_{d+1} = (d+1)u/(1 - (d+1)u), where e <= (d +
    max_i r_ii) eta covers the products and quotients that underflow.  By
    Cauchy-Schwarz (|R'||R|)_ij <= |r_i||r_j| for the columns r_i of R, and
    |r_i|^2 <= (b_ii + d eta)/(1 - g), so ||dB||_2 <= (g + d eta)(t_B + d^2
    eta)/(1 - g) + d(d+1) eta with t_B = tr B, and lambda_min(B) >
    -||dB||_2 as R'R > 0.  The subtraction of s rounds only the diagonal,
    each b_ii by at most 2u b_ii, and 0 < b_ii <= (1+u)(a_ii - floor), so
    t_B <= (1+u) t.  So, for d u < 0.01, lambda_min(A - floor I) > c -
    (d+4)(1 + 4du) u t - (d(d+1)+1) eta >= 0: c as computed covers its own
    rounding, as t and c round by a relative (d+3)u at most, the product
    u t by eta/2 at most, and s is rounded up.  A non-finite entry or an
    overflow makes some pivot -inf or NaN, since every entry below the
    diagonal feeds a later pivot, so it is False too; no floating-point
    warning is raised.
    """
    A = np.asarray(A)
    shape, d = A.shape[:-2], A.shape[-1]
    A = A.reshape(-1, d, d).transpose(1, 2, 0)  # (d, d, K): each step is a few long loops over the stack
    floor = np.asarray(floor)
    floor = floor.reshape(-1) if floor.ndim else floor
    with np.errstate(all="ignore"):
        if A.dtype == object:
            # imported here: fractions imports decimal, and only exact callers need it
            from fractions import Fraction

            finite = np.frompyfunc(_finite, 1, 1)(A).astype(bool)
            ok = finite.all(axis=(0, 1))
            A = np.ascontiguousarray(np.frompyfunc(Fraction, 1, 1)(np.where(finite, A, 0)))
            pivots = A.reshape(d * d, -1)[:: d + 1]  # a view of the diagonals, where the pivots end up
            pivots -= np.asarray(np.frompyfunc(Fraction, 1, 1)(floor), dtype=object)
        else:
            A = np.array(A, dtype=float, order="C")
            ok = True
            pivots = A.reshape(d * d, -1)[:: d + 1]
            t = np.maximum(pivots - floor, 0.0).sum(axis=0)
            pivots -= np.nextafter(floor + ((d + 3) * _EPS * t + 2 * d * (d + 2) * _ETA), np.inf)
        ok &= (A == A.transpose(1, 0, 2)).all(axis=(0, 1))
        for k in range(d - 1):
            col = A[k + 1 :, k]
            if A.dtype == object:
                left, right = col / np.where(pivots[k] > 0, pivots[k], 1), col
            else:
                left = right = col / np.sqrt(pivots[k])
            A[k + 1 :, k + 1 :] -= left[:, None] * right[None, :]
        return (ok & (pivots > 0).all(axis=0)).reshape(shape)


def sprocedure_multipliers(S, Q, ends) -> np.ndarray:
    """Per form S[h] of a stack, some eps > 0 with S[h] + eps Q[h] < 0, or NaN.

    Q is a stack of one form per row, or a single form that every row shares.
    lambda_max(S + eps Q) is convex in eps, so the feasible eps form an open
    interval whose finite ends are real eigenvalues of the pencil
    (S, -Q); ends[h] holds that pencil's eigenvalues for row h.
    One eps below the first positive end, one between each consecutive pair and
    one past the last therefore decide exactly; the real parts of complex
    eigenvalues only add test points, and non-finite ones from a singular Q
    are dropped.  One `definite` call decides every candidate of the stack
    conservatively, as -(S + eps Q) > 0, and the smallest feasible one is
    returned; a candidate matrix that overflows is not feasible.
    """
    ends = np.real(ends)
    ends = np.where(np.isfinite(ends) & (ends > 0), ends, np.nan)
    ends.sort(axis=1)  # NaN last
    ends[:, 1:][ends[:, 1:] == ends[:, :-1]] = np.nan  # each end once
    ends.sort(axis=1)
    count = np.count_nonzero(~np.isnan(ends), axis=1)
    rows = np.arange(len(ends))
    last = ends[rows, np.maximum(count - 1, 0)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed candidate or matrix is not definite
        candidates = np.column_stack(
            [np.where(count > 0, ends[:, 0] / 2, 1.0), (ends[:, :-1] + ends[:, 1:]) / 2, 2 * last]
        )
        h, k = np.nonzero(~np.isnan(candidates))
        feasible = np.zeros(candidates.shape, dtype=bool)
        feasible[h, k] = definite(-(S[h] + candidates[h, k, None, None] * np.broadcast_to(Q, S.shape)[h]))
    first = candidates[rows, feasible.argmax(axis=1)]
    return np.where(feasible.any(axis=1), first, np.nan)
