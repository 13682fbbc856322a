"""Closed-loop simulator and the periodic-sampling stability threshold.

The true plant is advanced with the exact ZOH linear map each period; the
disturbance convolution integral is added by fixed-substep quadrature, with
the signal sampled once per period at all nodes.  A trigger policy is
consulted at horizon boundaries only: inside a horizon the committed actions
are applied open-loop, which is the whole point of self-triggering.
"""

import csv
import gc
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import expm

from .certificates import (
    choose_sigma_star,
    region_forms,
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
)
from .errors import ConfigError
from .horizons import DEFAULT_CAP, enumerate_horizons, horizon_to_text
from .matrix_core import spectral_radius
from .partition import make_partition
from .plant import (
    DiscretePlant,
    PlantModel,
    _simpson_weights,
    disturbance_step_bound,
    growth_constants,
    selection_matrices,
    step_matrix,
    transition_table,
)
from .triggers import GatedPolicy, OfflineTable, OnlinePolicy, TablePolicy, build_offline_table

# perfbench/passes.py still looks these old names up before each loop; simulate never calls them
offline_select = offline_perturbed_select = None

MODES = (
    "online-unperturbed",
    "offline-unperturbed",
    "online-perturbed",
    "offline-perturbed",
)
PERTURBED_MODES = ("online-perturbed", "offline-perturbed")
OFFLINE_MODES = ("offline-unperturbed", "offline-perturbed")
COLLECT_BEFORE_BYTES = 2**20  # prepare collects garbage before a transition stack of this many bytes


@dataclass
class SimConfig:
    plant: PlantModel
    T: float
    l_min: int
    l_max: int
    mode: str
    x0: np.ndarray
    beta: float = 0.0
    gamma: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    N: int = 0
    total_steps: int = 100
    seed: int = 0
    substeps_per_T: int = 100
    sigma_star: Optional[tuple] = None
    # w(times) -> shape times.shape + (n_w,), called once per period on all quadrature times
    disturbance: Optional[Callable[[np.ndarray], np.ndarray]] = None
    horizon_cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.total_steps < self.l_max:
            raise ConfigError("total_steps must be at least l_max")
        n = self.plant.n
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.size == 2 * n:
            pass  # given directly as the collective state
        elif x0.size == n:
            x0 = np.concatenate([x0, x0])  # estimate starts at the true state
        else:
            raise ConfigError(f"x0 must have {n} or {2*n} entries, got {x0.size}")
        self.x0 = x0
        if self.mode in OFFLINE_MODES and self.N < 1:
            raise ConfigError("offline modes need N >= 1 regions")
        if self.mode in PERTURBED_MODES and self.plant.w_max <= 0:
            raise ConfigError("perturbed modes need a disturbance channel")


@dataclass
class SimTrace:
    times: np.ndarray
    X: np.ndarray
    XHAT: np.ndarray
    U: np.ndarray
    actions: np.ndarray
    V: np.ndarray
    boundaries: list
    boundary_V: list
    decisions: list
    decision_rows: list  # (step, tau, mode, horizon text, metric, feasible_count, inside)
    metrics: dict = field(default_factory=dict)


def default_sine_disturbance(plant: PlantModel, pi_multiple: float = 5.0) -> Callable[[np.ndarray], np.ndarray]:
    """w(t) = w_max sin(k pi t), split across channels at unit overall norm;
    t is a scalar or an array of times, and w(t) has shape t.shape + (n_w,)."""
    n_w = plant.D.shape[1]
    scale = plant.w_max / math.sqrt(n_w)
    return lambda t: np.repeat((scale * np.sin(pi_multiple * math.pi * t))[..., None], n_w, axis=-1)


class _DisturbanceIntegrator:
    """Quadrature of int_0^T e^{As} D w(t+s) ds on a fixed substep grid.

    The matrices e^{A(T-s)}D are one stacked exponential at the 2*substeps+1
    half-step nodes (the sample at offset s propagates for the remaining T-s);
    per step the signal is sampled once, at all nodes.  Weights follow the
    classic fourth-order rule (ends 1, odd nodes 4, even nodes 2, times h/6).
    """

    def __init__(self, plant: PlantModel, T: float, substeps: int):
        if substeps < 1:
            raise ConfigError("substeps_per_T must be >= 1")
        self.nodes = np.linspace(0.0, T, 2 * substeps + 1)
        self.EAD = expm(plant.A[None] * (T - self.nodes)[:, None, None]) @ plant.D
        self.weights = _simpson_weights(substeps, T)

    def integrate(self, w: Callable[[np.ndarray], np.ndarray], t: float) -> np.ndarray:
        return self.weights @ np.einsum("kij,kj->ki", self.EAD, w(t + self.nodes))


class Prepared(NamedTuple):
    dp: DiscretePlant
    horizons: list
    cert: object
    regions: Optional[list]
    table: Optional[OfflineTable]
    policy: object  # None only for an offline mode prepared without tables


def prepare(config: SimConfig, with_tables: bool = True) -> Prepared:
    """Run the offline stage: discretize, enumerate, certify, tabulate.

    The transition table is built once and shared by the choice of sigma*,
    the synthesis and the policy; any infeasibility surfaces here, before
    stepping starts.  with_tables=False skips the expensive offline-table
    builds when only the certificate is wanted (offline modes then get no
    policy).
    """
    plant = config.plant
    dp = DiscretePlant.from_plant(plant, config.T)
    horizons = enumerate_horizons(plant.m, config.l_min, config.l_max, config.horizon_cap)
    if len(horizons) * (2 * plant.n) ** 2 * 8 >= COLLECT_BEFORE_BYTES:
        # an earlier prepare's tables caught in a reference cycle (a policy whose bound
        # select a caller wrapped) stay resident until the oldest generation is collected
        gc.collect()
    phis = transition_table(dp, horizons)
    sigma_star = tuple(config.sigma_star) if config.sigma_star else choose_sigma_star(horizons, phis)
    if sigma_star not in horizons:
        raise ConfigError(f"fallback horizon {sigma_star} is not in the enumerated set")
    Phi_star = phis[horizons.index(sigma_star)]
    hs = len(sigma_star) * config.T
    perturbed = config.mode in PERTURBED_MODES
    if not perturbed:
        cert = synthesize_unperturbed(Phi_star, config.beta, hs, sigma_star=sigma_star, T=config.T)
    else:
        varpi = disturbance_step_bound(plant, config.T)
        C, chi_sq, chi_lin = growth_constants(dp, horizons, varpi)
        C_prime = float(np.linalg.norm(step_matrix(dp, 0), 2))
        if config.mode == "online-perturbed":
            cert = synthesize_perturbed_online(
                Phi_star,
                config.beta,
                hs,
                chi_sq[len(sigma_star)],
                config.gamma,
                C=C,
                varpi=varpi,
                C_prime=C_prime,
                sigma_star=sigma_star,
                T=config.T,
                chi_squared=chi_sq,
            )
        else:
            cert = synthesize_perturbed_offline(
                Phi_star,
                config.beta,
                hs,
                chi_lin[len(sigma_star)],
                config.gamma1,
                config.gamma2,
                sigma_star=sigma_star,
                T=config.T,
                chi_linear_map=chi_lin,
                C_prime=C_prime,
                varpi=varpi,
            )
    regions = table = policy = None
    if config.mode in OFFLINE_MODES:
        regions = make_partition(2 * plant.n, config.N)
        if with_tables:
            table = build_offline_table(cert, horizons, regions, region_forms(cert, horizons, phis), dp.m)
            policy = TablePolicy(table, regions, sigma_star)
    else:
        policy = OnlinePolicy(cert, horizons, phis, dp.m)
    if perturbed and policy is not None:
        policy = GatedPolicy(policy, cert.P)
    return Prepared(dp, horizons, cert, regions, table, policy)


def simulate(config: SimConfig, prepared: Optional[Prepared] = None) -> SimTrace:
    plant = config.plant
    prepared = prepared if prepared is not None else prepare(config)
    dp, cert, policy = prepared.dp, prepared.cert, prepared.policy
    perturbed = config.mode in PERTURBED_MODES
    w_signal = None
    integrator = None
    if perturbed:
        w_signal = config.disturbance or default_sine_disturbance(plant)
        integrator = _DisturbanceIntegrator(plant, config.T, config.substeps_per_T)
    P = cert.P

    n = plant.n
    sel = [selection_matrices(a, plant.blocks) for a in range(plant.m + 1)]
    A_T, B_T, K = dp.A_T, dp.B_T, plant.K

    x = config.x0[:n].copy()
    xh = config.x0[n:].copy()
    eta = np.concatenate([x, xh])
    t = 0.0
    steps = 0
    readings = 0
    rows_t, rows_x, rows_xh, rows_u, rows_a, rows_V = [], [], [], [], [], []
    boundaries = []
    boundary_V = [float(eta @ P @ eta)]
    decisions = []
    decision_rows = []

    while steps < config.total_steps:
        inside = int(boundary_V[-1] <= 1.0) if perturbed else 0
        dec = policy.select(eta, config.seed, steps)
        boundaries.append(steps)
        decisions.append(dec)
        decision_rows.append(
            (steps, t, dec.mode, horizon_to_text(dec.horizon), dec.metric, dec.feasible_count, inside)
        )
        for a in dec.horizon:
            eta = np.concatenate([x, xh])
            rows_t.append(t)
            rows_x.append(x.copy())
            rows_V.append(float(eta @ P @ eta))
            M_sel, N_sel = sel[a]
            xh = M_sel @ x + N_sel @ xh
            u = K @ xh
            x = A_T @ x + B_T @ u
            if perturbed:
                x = x + integrator.integrate(w_signal, t)
            rows_xh.append(xh.copy())
            rows_u.append(np.atleast_1d(u).copy())
            rows_a.append(a)
            t += config.T
            steps += 1
            readings += int(a != 0)
        eta = np.concatenate([x, xh])
        boundary_V.append(float(eta @ P @ eta))

    V0 = boundary_V[0]
    metrics = {
        "steps": steps,
        "readings": readings,
        "utilization_reduction": 1.0 - readings / (plant.m * steps),
        "V0": V0,
        "final_V": boundary_V[-1],
        "min_V_ratio": min(boundary_V) / V0 if V0 > 0 else 0.0,
    }
    if perturbed:
        entered = None
        max_after = 0.0
        for k, v in enumerate(boundary_V):
            if entered is None:
                if v <= cert.mu:
                    entered = k
            else:
                max_after = max(max_after, v)
        metrics["mu"] = cert.mu
        metrics["guub_entered_boundary"] = entered
        metrics["max_V_after_entry"] = max_after
        metrics["guub_contained"] = bool(entered is not None and max_after <= cert.mu + 1e-6)

    trace = SimTrace(
        times=np.array(rows_t),
        X=np.array(rows_x),
        XHAT=np.array(rows_xh),
        U=np.array(rows_u),
        actions=np.array(rows_a, dtype=int),
        V=np.array(rows_V),
        boundaries=boundaries,
        boundary_V=boundary_V,
        decisions=decisions,
        decision_rows=decision_rows,
        metrics=metrics,
    )
    return trace


def utilization_metrics(trace: SimTrace, m: int) -> dict:
    """Recompute usage counts from the recorded actions."""
    steps = int(trace.actions.size)
    if steps == 0:
        raise ValueError("empty trace")
    readings = int(np.count_nonzero(trace.actions))
    reduction = 1.0 - readings / (m * steps)
    return {
        "steps": steps,
        "readings": readings,
        "utilization_reduction": reduction,
        "final_V": float(trace.boundary_V[-1]) if trace.boundary_V else float(trace.V[-1]),
    }


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


# ---------------------------------------------------------------------------
# trace and decision-log CSV (LF endings, full-precision floats)


def _fmt(v) -> str:
    return repr(float(v))


def write_trace_csv(trace: SimTrace, path: str):
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


def write_decision_csv(trace: SimTrace, path: str):
    header = ["step", "tau", "mode", "horizon", "metric", "feasible_count", "inside_ellipsoid"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for step, tau, mode, horizon, metric, fc, inside in trace.decision_rows:
            w.writerow([str(step), _fmt(tau), mode, horizon, _fmt(metric), str(fc), str(inside)])


def read_trace_csv(path: str) -> SimTrace:
    """Parse a trace CSV back into arrays (plots and report reuse this)."""
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        rows = list(rdr)
    if not rows:
        raise ValueError(f"trace {path} has no data rows")
    n = sum(1 for h in header if h.startswith("x_"))
    m_u = sum(1 for h in header if h.startswith("u_"))
    times = np.array([float(r[1]) for r in rows])
    X = np.array([[float(v) for v in r[2 : 2 + n]] for r in rows])
    XHAT = np.array([[float(v) for v in r[2 + n : 2 + 2 * n]] for r in rows])
    U = np.array([[float(v) for v in r[2 + 2 * n : 2 + 2 * n + m_u]] for r in rows])
    actions = np.array([int(r[2 + 2 * n + m_u]) for r in rows], dtype=int)
    V = np.array([float(r[-1]) for r in rows])
    return SimTrace(
        times=times,
        X=X,
        XHAT=XHAT,
        U=U,
        actions=actions,
        V=V,
        boundaries=[],
        boundary_V=[],
        decisions=[],
        decision_rows=[],
        metrics={},
    )
