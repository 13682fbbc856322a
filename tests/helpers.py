"""Shared builders and independent numeric oracles for the test suite."""

import csv
import importlib.util
import math
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.linalg import eigvals, expm
from scipy.special import ndtri

from asynctrig import partition, svgplots, triggers
from asynctrig.certificates import (
    PerturbedOnlineCertificate,
    build_U_c,
    conditions,
    decay_factor,
    decay_forms,
    perturbed_forms,
    region_forms,
    young_gain,
)
from asynctrig.errors import InfeasibleError
from asynctrig.horizons import avg_idle_metric, horizon_at, horizon_to_text
from asynctrig.matrix_core import (
    solve_discrete_lyapunov,
    spectral_radius,
    sprocedure_multipliers,
    sym_eig_bounds,
    symmetrize,
    zoh_pair,
)
from asynctrig.plant import (
    BOUND_PANELS,
    DiscretePlant,
    PlantModel,
    _simpson_weights,
    step_matrices,
)
from asynctrig.simulation import PERTURBED_MODES, SimTrace, default_sine_disturbance

ROOT = Path(__file__).resolve().parent.parent


def action_codes(horizons) -> np.ndarray:
    """The code array of a list of horizon tuples, built from the tuples themselves:
    the oracle of `horizon_codes`, and the codes of any hand-picked horizon list."""
    lengths = np.fromiter(map(len, horizons), np.intp, len(horizons))
    flat = np.fromiter(chain.from_iterable(horizons), np.int8, int(lengths.sum()))
    codes = np.full((len(horizons), lengths.max(initial=0)), -1, dtype=np.int8)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat  # row by row, as chain lists them
    return np.ascontiguousarray(codes.T)


def horizon_list(codes) -> list:
    """Every horizon of a code array, as tuples, in its order."""
    return [horizon_at(codes, i) for i in range(codes.shape[1])]


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file: perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wide_config(steps: int):
    """The wide-horizons benchmark case: a 3-state, 3-sensor plant and horizon lengths 1..7."""
    return perfbench_module("workloads").wide_config(steps)


# the two-state benchmark plant used across the suite
A2 = np.array([[0.0, 1.0], [-2.0, 3.0]])
B2 = np.array([[0.0], [1.0]])
K2 = np.array([[1.0, -4.0]])


# X X' for an integer X of rank 3: exactly singular, so no strict matrix
# inequality on it holds, yet eigvalsh reads its least eigenvalue as +1.8e-15
_GRAM_FACTOR = np.array([[-2.0, 1.0, 2.0], [-2.0, -1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 3.0, 2.0]])
SINGULAR_GRAM = _GRAM_FACTOR @ _GRAM_FACTOR.T


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


def random_schur_stabilizable(rng, t_lo=0.05, t_hi=0.3, n=2):
    """Sample (PlantModel, T) whose fully sampled loop is strictly Schur.

    Rejection sampling: random n-state dynamics with one sensor per state,
    then random gains until one contracts.  Returns None when the draw
    admits no gain in 60 tries.  The ZOH pair is computed once per draw, as
    only K changes between tries; A_T + B_T K is the loop matrix
    `DiscretePlant.from_plant` would give, bit for bit.
    """
    A = rng.normal(scale=1.0, size=(n, n))
    B = rng.normal(scale=1.0, size=(n, 1))
    T = float(rng.uniform(t_lo, t_hi))
    A_T, B_T = zoh_pair(A, B, T)
    for _ in range(60):
        K = rng.normal(scale=1.5, size=(1, n))
        if np.max(np.abs(np.linalg.eigvals(A_T + B_T @ K))) < 0.9:
            return PlantModel(A=A, B=B, K=K, blocks=(1,) * n), T
    return None


# ---------------------------------------------------------------------------
# per-element writer oracles: one repr(float(...)) per value, csv.writer rows
# and one f-string per polyline point; the package's writers must match them
# byte for byte


def _fmt(v) -> str:
    return repr(float(v))


def oracle_write_trace_csv(trace, path: str):
    n = trace.X.shape[1]
    m_u = trace.U.shape[1]
    header = (
        ["step", "t"]
        + [f"x_{i+1}" for i in range(n)]
        + [f"xhat_{i+1}" for i in range(n)]
        + [f"u_{j+1}" for j in range(m_u)]
        + ["action", "V"]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for k in range(trace.actions.size):
            row = (
                [str(k), _fmt(trace.times[k])]
                + [_fmt(v) for v in trace.X[k]]
                + [_fmt(v) for v in trace.XHAT[k]]
                + [_fmt(v) for v in trace.U[k]]
                + [str(int(trace.actions[k])), _fmt(trace.V[k])]
            )
            w.writerow(row)


def oracle_write_decision_csv(trace, path: str):
    header = [
        "step", "tau", "mode", "horizon", "metric", "evaluated", "inside_ellipsoid", "reason", "region", "margin",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for step, tau, mode, horizon, metric, evaluated, inside, reason, region, margin in trace.decision_rows:
            w.writerow(
                [str(step), _fmt(tau), mode, horizon, _fmt(metric), str(evaluated), str(inside), reason,
                 "" if region is None else str(region), "" if margin is None else _fmt(margin)]
            )


def oracle_poly(xs, ys, ax, sx, ay, sy, stroke, ident, dash=None):
    pts = " ".join(f"{ax + sx * float(x)!r},{ay + sy * float(y)!r}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline id="{ident}" fill="none" stroke="{stroke}" stroke-width="1.5"{extra} points="{pts}"/>'


def _oracle_frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi, ax, sx, ay, sy):
    W, H, ML, MR, MT, MB = svgplots.W, svgplots.H, svgplots.ML, svgplots.MR, svgplots.MT, svgplots.MB
    parts = [
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>',
        f'<text x="{W//2}" y="18" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ML}" y1="{H-MB}" x2="{W-MR}" y2="{H-MB}" stroke="#000000"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H-MB}" stroke="#000000"/>',
        f'<text x="{(ML+W-MR)//2}" y="{H-8}" text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{(MT+H-MB)//2}" text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(MT+H-MB)//2})">{ylabel}</text>',
    ]
    for k in range(6):
        xv = xlo + (xhi - xlo) * k / 5
        yv = ylo + (yhi - ylo) * k / 5
        parts += [
            f'<line x1="{ax + sx * xv!r}" y1="{H-MB}" x2="{ax + sx * xv!r}" y2="{H-MB+4}" stroke="#000000"/>',
            f'<text x="{ax + sx * xv!r}" y="{H-MB+16}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{xv:.4g}</text>',
            f'<line x1="{ML-4}" y1="{ay + sy * yv!r}" x2="{ML}" y2="{ay + sy * yv!r}" stroke="#000000"/>',
            f'<text x="{ML-6}" y="{ay + sy * yv!r}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{yv:.4g}</text>',
        ]
    return parts


def _oracle_affine(lo, hi, p0, p1):
    if not hi > lo:
        hi = lo + 1.0
    s = (p1 - p0) / (hi - lo)
    return p0 - s * lo, s


def _oracle_document(desc, body):
    W, H = svgplots.W, svgplots.H
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">\n'
        f"<desc>{desc}</desc>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _oracle_legend(labels_colors, dashed_flags=None):
    x, y = svgplots.W - svgplots.MR - 120, svgplots.MT + 14
    parts = []
    for k, (label, color) in enumerate(labels_colors):
        dash = ' stroke-dasharray="5,3"' if dashed_flags and dashed_flags[k] else ""
        parts.append(f'<line x1="{x}" y1="{y + 14*k}" x2="{x+24}" y2="{y + 14*k}" stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{x+30}" y="{y + 14*k + 4}" font-family="sans-serif" font-size="11">{label}</text>')
    return parts


def _oracle_desc(xname, yname, ax, sx, ay, sy):
    return f"px = {ax!r} + {sx!r} * {xname}; py = {ay!r} + {sy!r} * {yname}"


def oracle_svgs(trace, mu: float = 0.0) -> list:
    """The states, lyapunov and schedule documents, with every polyline point
    formatted on its own by `oracle_poly` and every tick coordinate at each use.
    Only the layout constants come from `svgplots`; every helper is the oracle's own."""
    ML, MR, MT, MB, W, H, COLORS = (
        svgplots.ML, svgplots.MR, svgplots.MT, svgplots.MB, svgplots.W, svgplots.H, svgplots.COLORS
    )
    affine, legend, document, desc = _oracle_affine, _oracle_legend, _oracle_document, _oracle_desc
    ts = trace.times
    t0, t1 = float(ts[0]), float(ts[-1])
    ax, sx = affine(t0, t1, ML, W - MR)

    vals = np.concatenate([trace.X.ravel(), trace.XHAT.ravel()])
    ylo, yhi = float(vals.min()), float(vals.max())
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    ay, sy = affine(ylo, yhi, H - MB, MT)
    body = _oracle_frame("state and held estimate", "t", "value", t0, t1, ylo, yhi, ax, sx, ay, sy)
    labels = []
    for i in range(trace.X.shape[1]):
        c = COLORS[i % len(COLORS)]
        body.append(oracle_poly(ts, trace.X[:, i], ax, sx, ay, sy, c, f"x_{i+1}"))
        body.append(oracle_poly(ts, trace.XHAT[:, i], ax, sx, ay, sy, c, f"xhat_{i+1}", dash="5,3"))
        labels += [(f"x_{i+1}", c), (f"xhat_{i+1}", c)]
    body += legend(labels, [False, True] * trace.X.shape[1])
    states = document(desc("t", "value", ax, sx, ay, sy), body)

    logv = np.log10(np.maximum(trace.V, 1e-300))
    ylo, yhi = float(logv.min()), float(logv.max())
    if mu > 0:
        ylo, yhi = min(ylo, math.log10(mu)), max(yhi, math.log10(mu))
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    ay, sy = affine(ylo, yhi, H - MB, MT)
    body = _oracle_frame("certificate value (log scale)", "t", "log10 V", t0, t1, ylo, yhi, ax, sx, ay, sy)
    body.append(oracle_poly(ts, logv, ax, sx, ay, sy, COLORS[0], "logV"))
    labels = [("log10 V", COLORS[0])]
    if mu > 0:
        yv = math.log10(mu)
        body.append(oracle_poly([t0, t1], [yv, yv], ax, sx, ay, sy, COLORS[1], "log_mu", dash="5,3"))
        labels.append(("log10 mu", COLORS[1]))
    body += legend(labels, [False, True][: len(labels)])
    lyapunov = document(desc("t", "log10(V)", ax, sx, ay, sy), body)

    acts = [int(a) for a in trace.actions]
    steps = len(acts)
    top = max(max(acts), 1) + 0.5
    ax, sx = affine(0.0, float(steps), ML, W - MR)
    ay, sy = affine(-0.5, top, H - MB, MT)
    body = _oracle_frame("sensor schedule", "step", "action", 0.0, float(steps), -0.5, top, ax, sx, ay, sy)
    xs = [v for k in range(steps) for v in (k, k + 1)]
    ys = [a for a in acts for _ in range(2)]
    body.append(oracle_poly(xs, ys, ax, sx, ay, sy, COLORS[2], "action"))
    body += legend([("action (0 = idle)", COLORS[2])])
    schedule = document(desc("step", "action", ax, sx, ay, sy), body)
    return [states, lyapunov, schedule]


def special_value_traces():
    """Hand-made traces that stress float formatting: signed zero, the least
    subnormal, a huge value and nan; integer schedule points; one step only."""
    tiny, huge, nan = 5e-324, 1e300, float("nan")
    wide = SimTrace(
        times=np.array([0.0, -0.0, tiny, 0.1 + 0.2]),
        X=np.array([[-0.0, huge], [tiny, -tiny], [nan, 1.0], [1 / 3, -huge]]),
        XHAT=np.array([[0.0, -0.0], [huge, nan], [2.5, tiny], [-1e-300, 7.0]]),
        U=np.array([[nan], [-0.0], [huge], [tiny]]),
        actions=np.array([0, 2, 1, 2], dtype=int),
        V=np.array([tiny, 1.0, huge, 0.5]),
        boundaries=[0, 2],
        boundary_V=[tiny, huge, 0.5],
        decisions=[],
        decision_rows=[
            (0, -0.0, "online-perturbed", "02", tiny, 0, 1, "gate", None, None),
            (2, np.float64(huge), "offline-perturbed", "12", np.float64(nan), 0, 0, "table", 14, None),
            (3, 0.1 + 0.2, "online-unperturbed", "0", 1 / 3, 12, 0, "certified", None, -0.0),
            (5, 0.5, "online-perturbed", "2121", 0.5, 1092, 0, "forced-fallback", None, np.float64(-huge)),
            (9, 0.9, "offline-unperturbed", "12", 0.5, 0, 0, "table-miss", None, None),
        ],
    )
    one_step = SimTrace(
        times=np.array([0.0]),
        X=np.array([[1.0, -2.0]]),
        XHAT=np.array([[1.0, -2.0]]),
        U=np.array([[7.0]]),
        actions=np.array([2], dtype=int),
        V=np.array([3.5]),
        boundaries=[0],
        boundary_V=[3.5],
        decisions=[],
        decision_rows=[(0, 0.0, "offline-unperturbed", "2", 0.5, 0, 0, "table", 0, None)],
    )
    return [wide, one_step]


# ---------------------------------------------------------------------------
# one-at-a-time oracles: the per-horizon transition product, the per-node
# disturbance bound, the fully sampled stability threshold, the region test
# one region at a time with no axis rejection, and the region test one
# (horizon, region) pair at a time, which solves each pencil as a
# generalized eigenproblem where the package solves all of them in one batch


def horizon_transition(dp, sigma) -> np.ndarray:
    """Ordered product Phi_sigma = A~_(sigma[-1]) ... A~_(sigma[0]).

    The first action is applied first, so it sits rightmost in the product.
    """
    sigma = tuple(sigma)
    if len(sigma) == 0:
        raise ValueError("horizon must be nonempty")
    Phi, steps = np.eye(2 * dp.n), step_matrices(dp)
    for a in sigma:
        Phi = steps[a] @ Phi
    return Phi


def per_node_disturbance_bound(plant: PlantModel, T: float) -> float:
    """`disturbance_step_bound` with one `expm` per Simpson node: the same
    weights, Richardson term and 2-norm, each node's exponential taken directly."""
    s = np.linspace(0.0, T, 2 * BOUND_PANELS + 1)
    f = np.linalg.norm(expm(plant.A[None] * s[:, None, None]) @ plant.D, 2, axis=(1, 2))
    full = float(f @ _simpson_weights(BOUND_PANELS, T))
    half = float(f[::2] @ _simpson_weights(BOUND_PANELS // 2, T))
    return plant.w_max * (full + abs(full - half) / 15.0)


def stepwise_simulate(config, prepared) -> SimTrace:
    """`simulation.simulate` one period at a time, without its metrics.

    Each step concatenates the collective state and takes its V, samples
    with the two selection matmuls of the step matrix's lower block row, and adds the 201-node quadrature of that
    step's disturbance alone.
    """
    plant, dp, P, integ = config.plant, prepared.dp, prepared.cert.P, prepared.integrator
    perturbed = config.mode in PERTURBED_MODES
    w = (config.disturbance or default_sine_disturbance(plant)) if perturbed else None
    n = plant.n
    sel = [(G[n:, :n], G[n:, n:]) for G in step_matrices(dp)]
    x, xh = config.x0[:n].copy(), config.x0[n:].copy()
    eta = np.concatenate([x, xh])
    t, steps = 0.0, 0
    rows_t, rows_x, rows_xh, rows_u, rows_a, rows_V = [], [], [], [], [], []
    boundaries, boundary_V, decisions, decision_rows = [], [float(eta @ P @ eta)], [], []
    while steps < config.total_steps:
        dec = prepared.policy.select(eta, config.seed, steps)
        boundaries.append(steps)
        decisions.append(dec)
        decision_rows.append((steps, t, config.mode, horizon_to_text(dec.horizon), dec.metric, dec.evaluated,
                              int(dec.reason == "gate"), dec.reason, dec.region, dec.margin))
        for a in dec.horizon:
            eta = np.concatenate([x, xh])
            rows_t.append(t)
            rows_x.append(x)
            rows_V.append(float(eta @ P @ eta))
            M_sel, N_sel = sel[a]
            xh = M_sel @ x + N_sel @ xh
            u = plant.K @ xh
            x = dp.A_T @ x + dp.B_T @ u
            if perturbed:
                x = x + integ.weights @ np.einsum("kij,kj->ki", integ.EAD, w(t + integ.nodes))
            rows_xh.append(xh)
            rows_u.append(u)
            rows_a.append(a)
            t += config.T
            steps += 1
        eta = np.concatenate([x, xh])
        boundary_V.append(float(eta @ P @ eta))
    return SimTrace(np.array(rows_t), np.array(rows_x), np.array(rows_xh), np.array(rows_u),
                    np.array(rows_a, dtype=int), np.array(rows_V), boundaries, boundary_V, decisions, decision_rows)


def full_scan_sigma_star(horizons, phis) -> tuple:
    """Horizon of smallest spectral radius, one eigensolve per horizon (first wins)."""
    if len(horizons) == 0:
        raise InfeasibleError("empty horizon set")
    if not np.isfinite(phis).all():
        raise ValueError("matrix entries must be finite")
    radii = np.abs(np.linalg.eigvals(phis)).max(axis=1)
    return tuple(horizons[int(np.argmin(radii))])


def schur_threshold(plant: PlantModel, t_range=(1e-3, 1.0), tol: float = 1e-9) -> float:
    """Largest sampling period keeping the fully sampled loop Schur-stable.

    Full sampling means the estimate is refreshed entirely every period, so
    the closed-loop block is A_T + B_T K and the threshold is where its
    spectral radius crosses 1.  Bisection; if the loop never destabilizes on
    the range, the upper end is returned.
    """
    def radius(T: float) -> float:
        dp = DiscretePlant.from_plant(plant, T)
        return spectral_radius(dp.A_T + dp.BK_T)

    lo, hi = float(t_range[0]), float(t_range[1])
    if radius(lo) >= 1.0:
        raise ValueError(f"closed loop already unstable at T={lo}")
    if radius(hi) < 1.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radius(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sprocedure_multiplier(S, Q):
    """Some eps > 0 with lambda_max(S + eps Q) <= 0, or None when none exists.

    One pair of `sprocedure_multipliers`, for any Q (singular too): the
    pencil ends come from the generalized eigenproblem, and `sym_eig_bounds`
    rechecks the eps found.
    """
    S, Q = symmetrize(S), symmetrize(Q)
    ends = eigvals(S, -Q)
    eps = sprocedure_multipliers(S[None], Q, ends[None])[0]
    if np.isnan(eps) or sym_eig_bounds(S + eps * Q)[1] > 0.0:
        return None
    return float(eps)


def pair_multiplier(forms, Q_c):
    """Multiplier certifying a one-horizon stack on the form Q_c, or None.

    Any symmetric Q_c will do, and S may be singular.  The eps found
    is rechecked on the full matrix, with sign Q_c in its leading block.
    """
    if not forms.index.size:
        return None
    Q_c = np.asarray(Q_c, dtype=float)
    eps = sprocedure_multiplier(forms.S[0], forms.sign * Q_c)
    if eps is None:
        return None
    d = Q_c.shape[0]
    E = np.zeros(forms.full.shape[1:])
    E[:d, :d] = forms.sign * Q_c
    return eps if sym_eig_bounds(forms.full[0] + eps * E)[1] <= 0.0 else None


def unfiltered_region_multipliers(forms, Q_c) -> np.ndarray:
    """`partition.region_multipliers` on one region form without the axis
    rejection: every stacked horizon goes through the pencil and the recheck."""
    Q = forms.sign * np.asarray(Q_c, dtype=float)
    M = -np.linalg.solve(forms.S, Q)
    mu = np.linalg.eigvals(M)
    zero = np.abs(mu) <= len(Q) * np.finfo(float).eps * np.linalg.norm(M, axis=(1, 2))[:, None]
    ends = np.divide(1.0, mu, out=np.full_like(mu, np.nan), where=~zero)
    eps = sprocedure_multipliers(forms.S, Q, ends)
    k = np.flatnonzero(~np.isnan(eps))
    E = np.zeros(forms.full.shape[1:])
    E[: len(Q), : len(Q)] = Q
    eps[k[np.linalg.eigvalsh(forms.full[k] + eps[k, None, None] * E)[:, -1] > 0.0]] = np.nan
    return eps


def unpruned_table(cert, horizons, phis, m: int, regions):
    """(psi, metric) of `TablePolicy`, built one region at a time by
    `unfiltered_region_multipliers`, sigma* alone where nothing qualifies;
    sigma* is looked up in the horizons and each metric is `avg_idle_metric`'s."""
    horizons = [tuple(s) for s in horizons]
    fallback = [horizons.index(tuple(cert.sigma_star))]
    metrics = [avg_idle_metric(s, m) for s in horizons]
    forms = region_forms(cert, action_codes(horizons), phis)
    psi, values = [], []
    for reg in regions:
        feas = forms.index[~np.isnan(unfiltered_region_multipliers(forms, reg.Q))].tolist() or fallback
        best = max(metrics[i] for i in feas)
        psi.append(tuple(horizons[i] for i in feas if metrics[i] == best))
        values.append(best)
    return tuple(psi), tuple(values)


def guarded_directions(dim: int, N: int) -> np.ndarray:
    """`partition._directions` with guards no Halton point reaches: the
    coordinates clipped to [1e-12, 1 - 1e-12], a point whose normal vector
    has norm below 1e-9 skipped for the next index, and the sign set by the
    first coordinate above 1e-12 in magnitude."""
    bases = partition._primes(dim)
    vs = []
    i = 1
    while len(vs) < N:
        u = np.array([partition._halton(i, b) for b in bases])
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


def assembled_prune(P, gamma1: float, gamma2: float, phis, bbars, chis) -> np.ndarray:
    """The horizons `perturbed_forms` keeps, decided on every assembled U_c:
    its u22 block's least eigenvalue above 0, and gamma1 >= gamma2."""
    u22 = build_U_c(P, gamma1, gamma2, phis, np.asarray(bbars), np.asarray(chis))[:, len(P):, len(P):]
    return np.flatnonzero((np.linalg.eigvalsh(u22)[:, 0] > 0) & (gamma1 >= gamma2))


def sprocedure_feasible(Phi_sigma, P, bbar: float, Q_c):
    """Multiplier eps_c > 0 with lambda_max(Phi'P Phi - bbar P + eps Q_c) <= 0, or None."""
    return pair_multiplier(decay_forms(P, np.asarray(Phi_sigma, dtype=float)[None], [bbar]), Q_c)


def max_eps_feasible(P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c):
    """Multiplier eps_c > 0 with lambda_min(U_c(eps_c)) >= 0, or None.

    The one-pair test on the Schur-reduced form of `perturbed_forms`, with
    the assembled matrix as the authority.
    """
    forms = perturbed_forms(P, gamma1, gamma2, np.asarray(Phi_sigma, dtype=float)[None], [bbar], [chi_linear])
    return pair_multiplier(forms, Q_c)


def U_sigma_builder(P, M, gamma: float):
    """build(Phi_sigma, bbar_sigma, chi_sigma_squared) -> U_sigma, for one horizon or a stack
    (..., 2n, 2n) with bbar and chi of shape (...).

    The online perturbed test as one (2n+1)x(2n+1) matrix, written out: the
    quadratic block (bbar - gamma) P - Phi'(P + M)Phi and the corner gamma -
    chi lambda_bar, with lambda_bar (and the M > 0 check) from `young_gain`.
    """
    P = symmetrize(P)
    M = symmetrize(M)
    lam_bar = young_gain(P, M)
    nn = P.shape[0]

    def build(Phi_sigma, bbar_sigma, chi_sigma_squared) -> np.ndarray:
        bbar = np.asarray(bbar_sigma, dtype=float)[..., None, None]
        G = np.swapaxes(Phi_sigma, -1, -2) @ (P + M) @ Phi_sigma
        U = np.zeros(G.shape[:-2] + (nn + 1, nn + 1))
        U[..., :nn, :nn] = -(0.5 * (G + np.swapaxes(G, -1, -2))) + (bbar - gamma) * P
        U[..., nn, nn] = gamma - np.asarray(chi_sigma_squared, dtype=float) * lam_bar
        return U

    return build


def U_c_oracle(P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float) -> np.ndarray:
    """The unregioned 4n x 4n perturbed-offline matrix of one horizon, written out
    block by block: u11 = (bbar - gamma1) P - sym(Phi'P Phi), u21 = -P Phi,
    u12 = u21' and u22 = (gamma2/chi) I - P; the corner gamma1 - gamma2 is
    the caller's to check."""
    P = np.asarray(P, dtype=float)
    Phi = np.asarray(Phi_sigma, dtype=float)
    nn = P.shape[0]
    U = np.empty((2 * nn, 2 * nn))
    U[:nn, :nn] = (bbar - gamma1) * P - symmetrize(Phi.T @ P @ Phi)
    U[nn:, :nn] = -P @ Phi
    U[:nn, nn:] = U[nn:, :nn].T
    U[nn:, nn:] = (gamma2 / chi_linear) * np.eye(nn) - P
    return U


def regioned_U_c(P, gamma1: float, gamma2: float, Phi_sigma, bbar: float, chi_linear: float, Q_c, eps: float):
    """`U_c_oracle` with the region term eps Q_c added to u11, the sign
    `perturbed_forms` tests; the corner gamma1 - gamma2 is the caller's to check."""
    U = U_c_oracle(P, gamma1, gamma2, Phi_sigma, bbar, chi_linear)
    nn = np.asarray(P).shape[0]
    U[:nn, :nn] += eps * symmetrize(Q_c)
    return U


# ---------------------------------------------------------------------------
# the online select as a full scan, and the tie set a select drew from


def full_scan_select(policy, eta, rng_seed: int, step_index: int = 0):
    """(horizon, metric, tie horizons) of an `OnlinePolicy` scoring every stored form.

    Two chained products over the whole stack, the positions whose value is
    >= 0, then the best metric over them by a plain max and the positions
    attaining it; an empty admissible set falls back to sigma*.
    """
    eta = np.asarray(eta, dtype=float)
    H, d, _ = policy.forms.shape
    values = (policy.forms.reshape(H * d, d) @ eta).reshape(H, d) @ eta + policy.corners
    feas = [i for i in range(H) if values[i] >= 0.0] or [policy.fallback_index]
    best = max(policy.metrics[i] for i in feas)
    ties = [i for i in feas if policy.metrics[i] == best]
    chosen = policy.horizon(triggers._tie_break(ties, rng_seed, step_index))
    return chosen, float(best), tuple(policy.horizon(i) for i in ties)


def bisect_states(a, b, holds):
    """A state on the segment from a, where holds(a) is true, to b, where
    holds(b) is false, at which holds is false and which is within rounding
    of the crossing: 200 halvings outlast any float interval."""
    assert holds(a) and not holds(b)
    for _ in range(200):
        mid = (a + b) / 2
        if holds(mid):
            a = mid
        else:
            b = mid
    return b


def select_with_ties(policy, eta, rng_seed: int, step_index: int = 0):
    """policy.select(...) and the tie horizons its draw chose from.

    The policy is an `OnlinePolicy`, or a `GatedPolicy` around one at a
    state outside the gate; a select that made no draw took the fallback
    alone.
    """
    online = getattr(policy, "policy", policy)
    seen = []
    draw = triggers._tie_break

    def record(ties, seed, step):
        seen.append(tuple(ties))
        return draw(ties, seed, step)

    triggers._tie_break = record
    try:
        dec = policy.select(eta, rng_seed, step_index)
    finally:
        triggers._tie_break = draw
    positions = seen[0] if seen else (online.fallback_index,)
    return dec, tuple(online.horizon(i) for i in positions)


def online_pair_holds(cert, Phi_star, tol: float) -> bool:
    """`conditions`' L1 and L2 of a perturbed-online cert each have least
    eigenvalue >= -tol * min(1, lambda_max(P)); P and M themselves are not checked."""
    floor = -tol * min(1.0, max(0.0, sym_eig_bounds(cert.P)[1]))
    entries = conditions(cert, Phi_star)
    return all(sym_eig_bounds(entries[name][0])[0] >= floor for name in ("L1", "L2"))


# ---------------------------------------------------------------------------
# scan oracles for the perturbed syntheses: the searches the package's
# constructions replace, each returning the first feasible point of its scan


def scan_perturbed_online(Phi_star, beta: float, gamma: float, sigma_star, T: float, chi_map):
    """(P, M) at the first alpha in 2^-6 .. 2^6 whose scaled pair passes
    `conditions`' L1 and L2 strictly, or InfeasibleError."""
    chi = chi_map[len(sigma_star)] ** 2
    bbar = decay_factor(beta, len(sigma_star), T)
    sr2 = spectral_radius(Phi_star) ** 2
    nn = np.asarray(Phi_star).shape[0]
    for alpha in [2.0**k for k in range(-6, 7)]:
        rho_max = (gamma - bbar) / (1.0 + alpha)
        if sr2 >= rho_max:
            continue
        rho = 0.5 * (sr2 + rho_max)
        P1 = solve_discrete_lyapunov(Phi_star, min(rho, 1.0), np.eye(nn))
        _, lmax1 = sym_eig_bounds(P1)
        s = 0.9 * (gamma / chi) / ((1.0 + 1.0 / alpha) * lmax1)
        P = s * P1
        M = alpha * P
        # conditions' L1 and L2 read neither varpi, C' nor mu
        cert = PerturbedOnlineCertificate(
            P=P, M=M, gamma=gamma, chi=chi_map, varpi=0.0, C_prime=0.0, mu=0.0,
            sigma_star=tuple(sigma_star), beta=beta, T=T,
        )
        entries = conditions(cert, Phi_star)
        if all(sym_eig_bounds(entries[name][0])[0] > 0 for name in ("L1", "L2")):
            return P, M
    raise InfeasibleError("no alpha passes")


def scan_perturbed_offline(Phi_star, beta: float, gamma1: float, gamma2: float, sigma_star, T: float, chi_map):
    """P at the largest scale of a descending log grid over [1e-6, 1e6] whose
    unregioned matrix is positive definite, or InfeasibleError; the corner
    gamma1 - gamma2 >= 0 of the paper's matrix must pass on its own, as no
    scale moves it."""
    chi_linear = chi_map[len(sigma_star)]
    if not gamma1 - gamma2 >= 0:
        raise InfeasibleError("the corner gamma1 - gamma2 fails at every scale")
    bbar = decay_factor(beta, len(sigma_star), T)
    sr2 = spectral_radius(Phi_star) ** 2
    target = bbar - gamma1
    if target <= sr2:
        raise InfeasibleError("no decay budget")
    nn = np.asarray(Phi_star).shape[0]
    P1 = solve_discrete_lyapunov(Phi_star, min(0.5 * (sr2 + target), 1.0), np.eye(nn))
    for s in np.logspace(6, -6, 121):
        P = s * P1
        if sym_eig_bounds(U_c_oracle(P, gamma1, gamma2, Phi_star, bbar, chi_linear))[0] > 0:
            return P
    raise InfeasibleError("no scale passes")
