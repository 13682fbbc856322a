"""Conic covering of the collective state space.

Each region is the symmetric double cone {x : x'Q_c x >= 0} with
Q_c = v v' - cos^2(theta) I around a unit direction v.  The form is even, so
each cone covers +/-x at once; N overlapping cones with a 5% angular margin
cover the whole space, and membership is a single quadratic form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConstructionError
from .matrix_core import sprocedure_multiplier, symmetrize

COVERAGE_SAMPLES = 100_000
COVERAGE_RNG_SEED = 12345  # construction-time check only, not a run seed
MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class ConicRegion:
    index: int
    direction: np.ndarray
    half_angle: float
    Q: np.ndarray


def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _directions(dim: int, N: int) -> np.ndarray:
    # low-discrepancy points -> inverse normal -> unit sphere, one hemisphere
    bases = [2, 3, 5, 7, 11, 13][:dim]
    vs = []
    i = 1
    while len(vs) < N:
        u = np.array([_halton(i, b) for b in bases])
        i += 1
        g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        nrm = np.linalg.norm(g)
        if nrm < 1e-9:
            continue
        v = g / nrm
        for comp in v:
            if abs(comp) > 1e-12:
                if comp < 0:
                    v = -v
                break
        vs.append(v)
    return np.array(vs)


def _coverage_ok(vs: np.ndarray, cos2: float, nsamp: int = COVERAGE_SAMPLES) -> bool:
    rng = np.random.default_rng(COVERAGE_RNG_SEED)
    U = rng.normal(size=(nsamp, vs.shape[1]))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    dots = (U @ vs.T) ** 2
    return bool((dots.max(axis=1) >= cos2).all())


def make_partition(dim: int, N: int):
    """N conic regions covering R^dim.

    dim 2 uses exact equiangular sectors; higher dimensions take
    deterministic low-discrepancy directions and grow the half-angle until a
    sampled coverage check passes, then add a 5% margin (capped at pi/2,
    where a cone degenerates to the whole space).
    """
    if N < 1 or dim < 2:
        raise ValueError(f"need N >= 1 and dim >= 2, got N={N}, dim={dim}")
    if dim == 2:
        theta = math.pi / (2 * N) * 1.05
        regions = []
        for c in range(N):
            ang = math.pi * c / N
            v = np.array([math.cos(ang), math.sin(ang)])
            Q = np.outer(v, v) - math.cos(min(theta, math.pi / 2)) ** 2 * np.eye(2)
            regions.append(ConicRegion(index=c, direction=v, half_angle=theta, Q=Q))
        return regions
    vs = _directions(dim, N)
    theta = math.pi / (2 * N)
    found = False
    while True:
        capped = min(theta, math.pi / 2)
        if _coverage_ok(vs, math.cos(capped) ** 2):
            theta = capped * 1.05  # coverage margin
            found = True
            break
        if capped >= math.pi / 2:  # degenerate cones cover everything
            break
        theta *= 1.1
    if not found:
        raise ConstructionError(f"no covering found for dim={dim}, N={N}")
    theta = min(theta, math.pi / 2)
    cos2 = math.cos(theta) ** 2
    return [
        ConicRegion(index=c, direction=vs[c], half_angle=theta, Q=np.outer(vs[c], vs[c]) - cos2 * np.eye(dim))
        for c in range(N)
    ]


def region_of(x, regions) -> int:
    """Lowest-index region whose quadratic form is nonnegative at x."""
    x = np.asarray(x, dtype=float)
    for reg in regions:
        if x @ reg.Q @ x >= -MEMBERSHIP_TOL:
            return reg.index
    # unreachable with a verified covering; pick the least-negative form
    return int(np.argmax([x @ reg.Q @ x for reg in regions]))


def sprocedure_feasible(Phi_sigma, P, bbar: float, Q_c, tol: float = 1e-9):
    """Multiplier eps_c > 0 with lambda_max(Phi'P Phi - bbar P + eps Q_c) <= tol, or None.

    Exact: with one quadratic constraint the S-procedure is lossless, and
    `sprocedure_multiplier` finds a multiplier whenever one exists.
    """
    S = symmetrize(Phi_sigma.T @ P @ Phi_sigma) - bbar * np.asarray(P)
    return sprocedure_multiplier(S, Q_c, tol)


def partition_to_dict(regions) -> dict:
    return {
        "dim": int(regions[0].Q.shape[0]),
        "count": len(regions),
        "regions": [
            {
                "index": reg.index,
                "direction": reg.direction.tolist(),
                "half_angle": reg.half_angle,
                "Q": reg.Q.tolist(),
            }
            for reg in regions
        ],
    }


def partition_from_dict(data: dict):
    return [
        ConicRegion(
            index=int(r["index"]),
            direction=np.array(r["direction"], dtype=float),
            half_angle=float(r["half_angle"]),
            Q=np.array(r["Q"], dtype=float),
        )
        for r in data["regions"]
    ]
