"""Plant descriptions and the switched collective dynamics.

A continuous LTI plant dx/dt = A x + B u (+ D w) is sampled every T seconds
with ZOH state feedback u = K xhat, where xhat is refreshed asynchronously:
at each period at most one sensor block of xhat is overwritten with the true
state.  Stacking eta = (x, previous xhat) makes each period a linear map
A~_(a) selected by the action a (0 = no sensor read).
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .matrix_core import _as_matrix, spectral_norm, zoh_pair

# Simpson panels of disturbance_step_bound; even, as its half-resolution error estimate needs
BOUND_PANELS = 1000
# transition_table steps at most this many trie nodes per product, so its temporaries stay small
TABLE_CHUNK = 256


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


def refresh_masks(blocks: Sequence[int]) -> np.ndarray:
    """(m+1, n) booleans: row a marks the estimate entries that action a
    overwrites with the true state, the entries of sensor block a; row 0,
    idle, marks none."""
    blocks = tuple(int(b) for b in blocks)
    return np.repeat(np.arange(1, len(blocks) + 1), blocks) == np.arange(len(blocks) + 1)[:, None]


def step_matrices(dp: DiscretePlant) -> np.ndarray:
    """(m+1, 2n, 2n) stack of the one-period collective maps A~_(a) on
    eta = (x, xhat_prev): with S_a the 0/1 diagonal of `refresh_masks` row a,
    A~_(a) = [[A_T + BK_T S_a, BK_T (I - S_a)], [S_a, I - S_a]]."""
    masks = refresh_masks(dp.blocks)[:, None, :]  # a column mask for every row
    eye = np.eye(dp.n, dtype=bool)
    top = np.concatenate([dp.A_T + np.where(masks, dp.BK_T, 0.0), np.where(masks, 0.0, dp.BK_T)], axis=2)
    return np.concatenate([top, np.concatenate([eye & masks, eye & ~masks], axis=2)], axis=1)


def _simpson_weights(panels: int, width: float) -> np.ndarray:
    # composite Simpson over 2*panels subintervals: h/3 * [1,4,2,...,4,1]
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (width / (2 * panels) / 3.0)


def disturbance_step_bound(plant: PlantModel, T: float) -> float:
    """Per-period disturbance norm bound w_max * int_0^T ||e^{As} D||_2 ds.

    Composite Simpson with BOUND_PANELS panels, plus the Richardson error
    estimate against the half-resolution rule.  That is an estimate, not a
    certified upper bound: a Simpson remainder needs a fourth-derivative
    bound of s -> ||e^{As} D||_2, which is not smooth where singular values
    cross (ROADMAP.md item 5 plans a sound bound).  The node exponentials
    come from a sqrt(N) blocking of the N nodes s_k = k h: with q =
    ceil(sqrt(N)) and k = i q + j, e^{A s_k} = e^{A i q h} e^{A j h}, so 2q
    exponentials and one batched product replace N exponentials.  The extra
    rounded product per node keeps the result within 1e-12 relative of one
    `expm` per node.
    """
    if plant.w_max <= 0 or plant.D is None:
        raise ValueError("plant has no disturbance channel")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    s = np.linspace(0.0, T, 2 * BOUND_PANELS + 1)
    q = math.isqrt(s.size - 1) + 1  # ceil(sqrt(N))
    steps = np.arange(q)[:, None, None]
    coarse, fine = expm(plant.A * (q * s[1]) * steps), expm(plant.A * s[1] * steps)
    nodes = (coarse[:, None] @ fine[None]).reshape(q * q, plant.n, plant.n)[: s.size]
    f = np.linalg.norm(nodes @ plant.D, 2, axis=(1, 2))
    full = float(f @ _simpson_weights(BOUND_PANELS, T))
    half = float(f[::2] @ _simpson_weights(BOUND_PANELS // 2, T))
    err = abs(full - half) / 15.0
    return plant.w_max * (full + err)


def transition_table(dp: DiscretePlant, codes) -> np.ndarray:
    """Phi_sigma = A~_(sigma[-1]) ... A~_(sigma[0]) for every horizon of a code
    array, stacked in order as (H, 2n, 2n), the first action rightmost.

    Horizons that share a prefix share its product, so the table is built on
    the prefix trie, level by level: each node is A~_a @ (its parent node),
    one product per node instead of one per (horizon, position), and each is
    the product the horizon's own left-to-right loop makes, bit for bit.  No
    level is held beside the table: each node lives in the row of one horizon
    through it (one that ends there, if any), and every other horizon that
    ends there copies that row before it moves on to a deeper node.
    """
    steps = step_matrices(dp)
    base = dp.m + 1
    phis = np.empty((codes.shape[1], 2 * dp.n, 2 * dp.n))
    live = np.arange(codes.shape[1])  # the horizons longer than the level; all are nonempty
    node = np.zeros(live.size, dtype=np.intp)  # each live horizon's node one level up; the root is 0
    holder = np.zeros(1, dtype=np.intp)  # the row holding each node of the level above
    for k in range(len(codes)):
        node = node * base + codes[k, live]
        present = np.zeros(holder.size * base, dtype=bool)
        present[node] = True
        nodes = np.flatnonzero(present)  # parent * base + action, one per node of this level
        node = (np.cumsum(present) - 1)[node]
        ends = codes[k + 1, live] < 0 if k + 1 < len(codes) else np.ones(live.size, dtype=bool)
        rows = np.empty(nodes.size, dtype=np.intp)
        rows[node] = live
        rows[node[ends]] = live[ends]
        parents = holder[nodes // base]
        src = phis if k else np.eye(2 * dp.n)[None]  # the root is the identity
        # a node whose row holds its parent is stepped last, once every sibling has read the parent
        order = np.argsort(rows == parents, kind="stable")
        for lo in range(0, order.size, TABLE_CHUNK):
            part = order[lo : lo + TABLE_CHUNK]
            phis[rows[part]] = steps[nodes[part] % base] @ src[parents[part]]
        copies = np.flatnonzero(ends & (live != rows[node]))
        phis[live[copies]] = phis[rows[node[copies]]]
        live, node, holder = live[~ends], node[~ends], rows
    return phis


def growth_constants(dp: DiscretePlant, lengths, varpi: float):
    """(C, chi): the per-step growth constant and the disturbance aggregate map.

    C = max_a ||A~_(a)||_2 over the full action alphabet {0..m}, and chi maps
    each horizon length l in lengths, in order, to varpi * sum_{q<l} C^q.  The
    offline perturbed matrix reads chi(l); the online perturbed inequalities
    read chi(l)^2, squared where they are built.
    """
    C = max(spectral_norm(step) for step in step_matrices(dp))
    return C, {l: varpi * sum(C**q for q in range(l)) for l in lengths}
