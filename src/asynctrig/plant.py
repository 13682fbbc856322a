"""Plant descriptions and the switched collective dynamics.

A continuous LTI plant dx/dt = A x + B u (+ D w) is sampled every T seconds
with ZOH state feedback u = K xhat, where xhat is refreshed asynchronously:
at each period at most one sensor block of xhat is overwritten with the true
state.  Stacking eta = (x, previous xhat) makes each period a linear map
A~_(a) selected by the action a (0 = no sensor read).
"""

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .matrix_core import _as_matrix, spectral_norm, zoh_pair


@dataclass(frozen=True)
class PlantModel:
    """Continuous plant (A, B, K) with sensor blocks and optional disturbance."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    blocks: tuple
    D: Optional[np.ndarray] = None
    w_max: float = 0.0

    def __post_init__(self):
        A = _as_matrix(self.A)
        B = _as_matrix(self.B)
        K = _as_matrix(self.K)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError("B row count must match A")
        if K.shape != (B.shape[1], n):
            raise ValueError("K must map states to inputs (m_u x n)")
        if sum(self.blocks) != n or any(b < 1 for b in self.blocks):
            raise ValueError("sensor blocks must be >= 1 and sum to n")
        if self.w_max < 0:
            raise ValueError("w_max must be nonnegative")
        if (self.w_max > 0) != (self.D is not None):
            raise ValueError("D must be present exactly when w_max > 0")
        if self.D is not None:
            D = _as_matrix(self.D)
            if D.shape[0] != n:
                raise ValueError("D row count must match A")
            object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def m_u(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DiscretePlant:
    """ZOH discretization at period T, with the feedback product BK_T cached."""

    T: float
    A_T: np.ndarray
    B_T: np.ndarray
    BK_T: np.ndarray
    m: int
    blocks: tuple

    @classmethod
    def from_plant(cls, plant: PlantModel, T: float) -> "DiscretePlant":
        A_T, B_T = zoh_pair(plant.A, plant.B, T)
        return cls(
            T=float(T),
            A_T=A_T,
            B_T=B_T,
            BK_T=B_T @ plant.K,
            m=plant.m,
            blocks=plant.blocks,
        )

    @property
    def n(self) -> int:
        return self.A_T.shape[0]


def selection_matrices(action: int, blocks: Sequence[int]):
    """Diagonal 0/1 pair (M_sel, N_sel = I - M_sel) for the sampled block.

    action 0 selects nothing (estimate fully held); action i in 1..m selects
    sensor block i.
    """
    blocks = tuple(int(b) for b in blocks)
    m = len(blocks)
    n = sum(blocks)
    if not (0 <= action <= m):
        raise ValueError(f"action {action} exceeds sensor count {m}")
    d = np.zeros(n)
    if action > 0:
        start = sum(blocks[: action - 1])
        d[start : start + blocks[action - 1]] = 1.0
    M_sel = np.diag(d)
    return M_sel, np.eye(n) - M_sel


def step_matrix(dp: DiscretePlant, action: int) -> np.ndarray:
    """One-period collective map A~_(action) on eta = (x, xhat_prev)."""
    M_sel, N_sel = selection_matrices(action, dp.blocks)
    return np.block(
        [
            [dp.A_T + dp.BK_T @ M_sel, dp.BK_T @ N_sel],
            [M_sel, N_sel],
        ]
    )


def horizon_transition(dp: DiscretePlant, sigma) -> np.ndarray:
    """Ordered product Phi_sigma = A~_(sigma[-1]) ... A~_(sigma[0]).

    The first action is applied first, so it sits rightmost in the product.
    """
    sigma = tuple(sigma)
    if len(sigma) == 0:
        raise ValueError("horizon must be nonempty")
    Phi = np.eye(2 * dp.n)
    for a in sigma:
        Phi = step_matrix(dp, a) @ Phi
    return Phi


def _simpson_weights(panels: int, width: float) -> np.ndarray:
    # composite Simpson over 2*panels subintervals: h/3 * [1,4,2,...,4,1]
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (width / (2 * panels) / 3.0)


def disturbance_step_bound(plant: PlantModel, T: float, panels: int = 1000) -> float:
    """Per-period disturbance norm bound w_max * int_0^T ||e^{As} D||_2 ds.

    Composite Simpson with >= 1000 panels; the Richardson error estimate
    against the half-resolution rule is added so the result is a certified
    upper bound.
    """
    if plant.w_max <= 0 or plant.D is None:
        raise ValueError("plant has no disturbance channel")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    panels = max(int(panels), 1000)
    panels += panels % 2  # the half-resolution error estimate needs an even count
    s = np.linspace(0.0, T, 2 * panels + 1)
    f = np.linalg.norm(expm(plant.A[None] * s[:, None, None]) @ plant.D, 2, axis=(1, 2))
    full = float(f @ _simpson_weights(panels, T))
    half = float(f[::2] @ _simpson_weights(panels // 2, T))
    err = abs(full - half) / 15.0
    return plant.w_max * (full + err)


def transition_table(dp: DiscretePlant, horizons) -> np.ndarray:
    """Phi_sigma for every horizon, stacked in order as (H, 2n, 2n): each (position, action)
    pair steps all rows taking that action there at once, as `horizon_transition` does one."""
    steps = [step_matrix(dp, a) for a in range(dp.m + 1)]
    codes = np.array(list(zip_longest(*horizons, fillvalue=-1)), dtype=np.int8)  # (position, horizon)
    phis = np.empty((len(horizons), 2 * dp.n, 2 * dp.n))
    phis[:] = np.eye(2 * dp.n)
    for pos, a in np.ndindex(len(codes), dp.m + 1):
        rows = np.flatnonzero(codes[pos] == a)
        phis[rows] = steps[a] @ phis[rows]
    return phis


def growth_constants(dp: DiscretePlant, horizons, varpi: float):
    """Per-step growth constant C and the disturbance aggregates chi(l).

    C = max_a ||A~_(a)||_2 over the full action alphabet {0..m}.  For each
    horizon length l present, chi_squared(l) = (varpi * sum_{q<l} C^q)^2 and
    the unsquared chi_linear(l) = varpi * sum_{q<l} C^q are both returned:
    the online perturbed feasibility matrix uses the squared form, the
    offline one the linear form.
    """
    C = max(spectral_norm(step_matrix(dp, a)) for a in range(dp.m + 1))
    lengths = sorted({len(tuple(s)) for s in horizons})
    chi_squared = {}
    chi_linear = {}
    for l in lengths:
        acc = varpi * sum(C**q for q in range(l))
        chi_linear[l] = acc
        chi_squared[l] = acc**2
    return C, chi_squared, chi_linear
