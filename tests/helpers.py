"""Shared builders and independent numeric oracles for the test suite."""

import numpy as np

from asynctrig.plant import PlantModel

# the two-state benchmark plant used across the suite
A2 = np.array([[0.0, 1.0], [-2.0, 3.0]])
B2 = np.array([[0.0], [1.0]])
K2 = np.array([[1.0, -4.0]])


# an externally recorded (P, M) pair for the online-perturbed preset's
# configuration; it is not a certificate for it (see criterion 5)
P_REF = np.array(
    [
        [4.5107, -0.3699, -0.7505, -1.3990],
        [-0.3699, 5.0824, 0.4709, -1.3114],
        [-0.7505, 0.4709, 6.2863, 0.2754],
        [-1.3990, -1.3114, 0.2754, 2.0002],
    ]
)
M_REF = np.array(
    [
        [9.6164, -0.2298, -2.4446, -2.3527],
        [-0.2298, 10.7068, 1.3307, -3.6711],
        [-2.4446, 1.3307, 10.9375, 0.6381],
        [-2.3527, -3.6711, 0.6381, 4.5667],
    ]
)


def benchmark_plant(perturbed: bool = False) -> PlantModel:
    if perturbed:
        return PlantModel(
            A=A2, B=B2, K=K2, blocks=(1, 1), D=np.array([[1.0], [1.0]]), w_max=1.0
        )
    return PlantModel(A=A2, B=B2, K=K2, blocks=(1, 1))


def taylor_expm(M: np.ndarray, terms: int = 200) -> np.ndarray:
    """Scaled Taylor series: squarings bring ||M/2^k|| under 0.5 first."""
    M = np.asarray(M, dtype=float)
    k = 0
    norm = np.linalg.norm(M, np.inf)
    while norm > 0.5:
        norm /= 2.0
        k += 1
    S = M / (2.0**k)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, terms):
        term = term @ S / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def simpson_zoh_B(A: np.ndarray, B: np.ndarray, T: float, panels: int = 10_000) -> np.ndarray:
    """Quadrature oracle for the held-input map: int_0^T e^{As} B ds.

    The same arithmetic as taylor_expm at every node, batched over the nodes
    that share a squaring count, and summed in node order.
    """
    A = np.asarray(A, dtype=float)
    nodes = np.linspace(0.0, T, 2 * panels + 1)
    w = np.ones(nodes.size)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= T / (2 * panels) / 3.0
    M = A[None, :, :] * nodes[:, None, None]
    norm = np.abs(M).sum(axis=2).max(axis=1)  # the inf-norm, as in taylor_expm
    k = np.zeros(nodes.size, dtype=int)
    while (norm > 0.5).any():
        big = norm > 0.5
        norm[big] /= 2.0
        k[big] += 1
    E = np.empty_like(M)
    for kk in np.unique(k):
        idx = np.flatnonzero(k == kk)
        S = M[idx] / (2.0**kk)
        out = np.broadcast_to(np.eye(A.shape[0]), S.shape).copy()
        term = out.copy()
        for j in range(1, 200):
            term = term @ S / j
            out = out + term
        for _ in range(kk):
            out = out @ out
        E[idx] = out
    vals = w[:, None, None] * (E @ np.asarray(B, dtype=float))
    return np.cumsum(vals, axis=0)[-1]  # sequential, node by node


def power_iteration_norm(M: np.ndarray, iters: int = 2000, seed: int = 0) -> float:
    """Largest singular value via power iteration on M'M."""
    rng = np.random.default_rng(seed)
    G = M.T @ M
    v = rng.normal(size=G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def random_schur_stabilizable(rng, t_lo=0.05, t_hi=0.3):
    """Sample (PlantModel, T) whose fully sampled loop is strictly Schur.

    Rejection sampling: random dynamics, then random gains until one
    contracts.  Returns None when the draw admits no gain in 60 tries.
    """
    from asynctrig.plant import DiscretePlant

    A = rng.normal(scale=1.0, size=(2, 2))
    B = rng.normal(scale=1.0, size=(2, 1))
    T = float(rng.uniform(t_lo, t_hi))
    for _ in range(60):
        K = rng.normal(scale=1.5, size=(1, 2))
        plant = PlantModel(A=A, B=B, K=K, blocks=(1, 1))
        dp = DiscretePlant.from_plant(plant, T)
        sr = np.max(np.abs(np.linalg.eigvals(dp.A_T + dp.BK_T)))
        if sr < 0.9:
            return plant, T
    return None
