"""Conic covering of the collective state space, and the region test.

Each region is the symmetric double cone {x : x'Q_c x >= 0} with
Q_c = v v' - cos^2(theta) I around a unit direction v.  The form is even, so
each cone covers +/-x at once.  The half-angle is grown until it reaches the
exact covering radius of the directions +/-v, then widened by a 5% margin,
so the N overlapping cones cover the whole space and membership is a single
quadratic form, read as computed: x is in the cone iff x'Q_c x >= 0.

A horizon is certified on a region by a multiplier eps > 0 with
S + eps Q_c < 0, for its certificate form S, decided conservatively by
`matrix_core.definite` (no eigenvalue is read to decide it).
`RegionForms` stacks those forms over the horizons once (each certificate
kind builds its own, in `certificates`), and `region_multipliers`, the
package's one region test, decides every (region, horizon) pair of a
partition in one call, after an exact rejection on each cone's axis.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvals
from scipy.special import ndtri

from .matrix_core import definite, sprocedure_multipliers


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


def _primes(count: int) -> list:
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _directions(dim: int, N: int) -> np.ndarray:
    # low-discrepancy points -> inverse normal -> unit sphere, one hemisphere (first nonzero
    # coordinate positive).  Halton points lie in (0, 1), so ndtri is finite, and only the base-2
    # coordinate of point 1 is 1/2: from dim 3 on (the only use) no g is 0, so none is skipped
    bases = _primes(dim)
    g = ndtri([[_halton(i, b) for b in bases] for i in range(1, N + 1)])
    vs = [v / np.linalg.norm(v) for v in g]
    return np.array([-v if v[np.flatnonzero(v)[0]] < 0 else v for v in vs])


def _covering_radius(vs: np.ndarray) -> float:
    """Largest angle from any direction to its nearest +/-v, exactly.

    A facet of the convex hull of +/-v at distance h from the origin has its
    vertices at angle arccos(h) from its normal and every other point
    farther, and every direction passes through some facet; so the deepest
    hole is a facet normal and the radius is arccos of the smallest h.  When
    +/-v do not span R^dim, Qhull refuses them, and a direction orthogonal to
    them all lies pi/2 away.
    """
    # imported here, not at module level: qhull adds ~4 MB to every process,
    # and only the offline modes build a partition
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.vstack([vs, -vs]))
    except QhullError:
        return math.pi / 2
    return math.acos(min(1.0, -hull.equations[:, -1].max()))


def make_partition(dim: int, N: int):
    """N conic regions covering R^dim.

    dim 2 uses exact equiangular sectors; higher dimensions take
    deterministic low-discrepancy directions and grow the half-angle in 10%
    steps until it reaches their exact covering radius.  Either half-angle
    then gets a 5% margin, capped at pi/2, where a cone degenerates to the
    whole space: there cos^2 is taken as exactly 0, so Q = v v' is positive
    semidefinite and holds every state, those orthogonal to v too.
    """
    if N < 1 or dim < 2:
        raise ValueError(f"need N >= 1 and dim >= 2, got N={N}, dim={dim}")
    theta = math.pi / (2 * N)
    if dim == 2:
        vs = np.array([[math.cos(math.pi * c / N), math.sin(math.pi * c / N)] for c in range(N)])
    else:
        vs = _directions(dim, N)
        radius = _covering_radius(vs)
        while theta < radius:  # radius <= pi/2, so this ends
            theta *= 1.1
    theta = min(theta * 1.05, math.pi / 2)  # coverage margin
    cos2 = math.cos(theta) ** 2 if theta < math.pi / 2 else 0.0  # cos(pi/2) is 6.1e-17 in floats
    return [
        ConicRegion(index=c, direction=v, half_angle=theta, Q=np.outer(v, v) - cos2 * np.eye(dim))
        for c, v in enumerate(vs)
    ]


def region_of(x, regions):
    """Lowest-index region whose quadratic form is >= 0 at x as computed, or None.

    None is a miss, which a covering partition leaves only to roundoff at a
    cone boundary; no region's entries are certified there.
    """
    x = np.asarray(x, dtype=float)
    for reg in regions:
        if x.dot(reg.Q).dot(x) >= 0.0:  # same value as x @ Q @ x at half its call cost
            return reg.index
    return None


class RegionForms(NamedTuple):
    """One certificate's region test, stacked over horizons.

    Horizon index[k] is certified on the region with form Q_c by eps > 0
    iff S[k] + eps sign Q_c < 0, decided conservatively by
    `matrix_core.definite`.  full[k] is the unreduced
    matrix of the same test, with sign Q_c entering its leading block, and
    is the authority.  Horizons missing from index fail on every region.
    `certificates.decay_forms` and `certificates.perturbed_forms` build them.
    """

    index: np.ndarray
    S: np.ndarray
    full: np.ndarray
    sign: float


def region_multipliers(forms: RegionForms, Q_c) -> np.ndarray:
    """A multiplier per (region, stacked horizon), NaN where none certifies.

    Q_c is one form (d, d), giving shape (K,) over the K stacked horizons,
    or a stack (R, d, d), giving (R, K).  An exact axis rejection comes
    first: for the unit top eigenvector v of sign Q_c (the axis for sign +1,
    orthogonal to it for -1), v' sign Q_c v >= 0 gives lambda_max(S + eps
    sign Q_c) >= v'Sv at every eps > 0, so v'Sv > 0 rules the pair out.
    One product with vec(v v') decides every pair.  It rejects only past
    v'Sv's rounding, d eps_mach ||S||_F, and only where v' sign Q_c v is
    above its own, d eps_mach ||Q_c||_F: at the pi/2 cap the top eigenvalue
    of -Q_c is rounding alone.  The survivors, each with its region's form,
    get their pencil ends as the reciprocals of one batched eigvals of
    M = -S^{-1} sign Q_c, accurate at the cap, where Q_c^{-1} would swamp
    the finite ends; an eigenvalue of M below d eps_mach ||M||_F is zero, an
    end at infinity.  Where some S is exactly singular, that solve fails, and
    the survivors take their ends from each pair's generalized pencil (S,
    -sign Q_c) instead.  The certified pairs are rechecked on their full
    matrices, sign Q_c in the leading block: full + eps E < 0, decided
    conservatively by one `definite` call, so a full matrix that is singular,
    or within rounding of it, fails.
    """
    Q = forms.sign * np.asarray(Q_c, dtype=float)
    Qs = Q.reshape((-1,) + Q.shape[-2:])
    R, d, K = len(Qs), Q.shape[-1], len(forms.S)
    rounding = d * np.finfo(float).eps
    v = np.linalg.eigh(Qs)[1][:, :, -1]
    axis = np.einsum("ri,rij,rj->r", v, Qs, v) > rounding * np.linalg.norm(Qs, axis=(1, 2))
    vSv = (v[:, :, None] * v[:, None, :]).reshape(R, d * d) @ forms.S.reshape(K, d * d).T
    r, k = np.nonzero(~axis[:, None] | (vSv <= rounding * np.linalg.norm(forms.S, axis=(1, 2))))
    S, Qp = forms.S[k], Qs[r]
    try:
        M = -np.linalg.solve(S, Qp)
    except np.linalg.LinAlgError:  # some S is singular: each pair's generalized pencil instead
        ends = np.array([eigvals(s, -q) for s, q in zip(S, Qp)])
    else:
        mu = np.linalg.eigvals(M)
        zero = np.abs(mu) <= rounding * np.linalg.norm(M, axis=(1, 2))[:, None]
        ends = np.divide(1.0, mu, out=np.full_like(mu, np.nan), where=~zero)
    eps = sprocedure_multipliers(S, Qp, ends)
    c = np.flatnonzero(~np.isnan(eps))
    E = np.zeros((len(c),) + forms.full.shape[1:])
    E[:, :d, :d] = Qp[c]
    eps[c[~definite(-(forms.full[k[c]] + eps[c, None, None] * E))]] = np.nan
    out = np.full((R, K), np.nan)
    out[r, k] = eps
    return out.reshape(Q.shape[:-2] + (K,))


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
