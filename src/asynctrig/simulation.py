"""Closed-loop simulator.

The true plant is advanced with the exact ZOH linear map each period; the
disturbance convolution integral is added by fixed-substep quadrature, with
the signal sampled once per 32-step block at all nodes.  A trigger policy is
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
    synthesize_perturbed_offline,
    synthesize_perturbed_online,
    synthesize_unperturbed,
)
from .errors import ConfigError
from .horizons import DEFAULT_CAP, action_codes, enumerate_horizons, horizon_to_text
from .partition import make_partition
from .plant import (
    DiscretePlant,
    PlantModel,
    _simpson_weights,
    disturbance_step_bound,
    growth_constants,
    refresh_masks,
    step_matrices,
    transition_table,
)
from .svgplots import float_texts, write_text
from .triggers import GatedPolicy, OnlinePolicy, TablePolicy

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
BLOCK_STEPS = 32  # simulate integrates the disturbance forcing of this many steps per call


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
    # w(times) -> shape times.shape + (n_w,), called once per BLOCK_STEPS periods on all their quadrature times
    disturbance: Optional[Callable[[np.ndarray], np.ndarray]] = None
    horizon_cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.total_steps < self.l_max:
            raise ConfigError("total_steps must be at least l_max")
        n = self.plant.n
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if not np.isfinite(x0).all():
            raise ConfigError(f"x0 entries must be finite, got {x0.tolist()}")
        if x0.size == 2 * n:
            pass  # given directly as the collective state
        elif x0.size == n:
            x0 = np.concatenate([x0, x0])  # estimate starts at the true state
        else:
            raise ConfigError(f"x0 must have {n} or {2*n} entries, got {x0.size}")
        self.x0 = x0
        if self.mode in OFFLINE_MODES and self.N < 1:
            raise ConfigError("offline modes need N >= 1 regions")
        if self.mode in PERTURBED_MODES and (self.plant.w_max <= 0 or not self.plant.D.any()):  # else chi = 0
            raise ConfigError("perturbed modes need a disturbance channel: w_max > 0 and a nonzero D")


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
    decision_rows: list  # (step, tau, mode, horizon text, metric, evaluated, inside, reason, region, margin)
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
    `integrate` samples the signal once, at all nodes of every step given.
    Weights follow the classic fourth-order rule (ends 1, odd nodes 4, even
    nodes 2, times h/6).  It depends on the plant, T and the substep count
    only, so `prepare` builds it once and every `simulate` on it shares it.
    """

    def __init__(self, plant: PlantModel, T: float, substeps: int):
        if substeps < 1:
            raise ConfigError("substeps_per_T must be >= 1")
        self.nodes = np.linspace(0.0, T, 2 * substeps + 1)
        self.EAD = expm(plant.A[None] * (T - self.nodes)[:, None, None]) @ plant.D
        self.weights = _simpson_weights(substeps, T)

    def integrate(self, w: Callable[[np.ndarray], np.ndarray], ts: np.ndarray) -> np.ndarray:
        """The forcing of each step starting at a time in ts, one row per time."""
        return self.weights @ np.einsum("kij,skj->ski", self.EAD, w(np.asarray(ts)[:, None] + self.nodes))


class Prepared(NamedTuple):
    dp: DiscretePlant
    horizons: list
    cert: object
    regions: Optional[list]  # None for the online modes
    table: Optional[TablePolicy]  # the offline modes' table policy, also inside policy; None online
    policy: object
    integrator: Optional[_DisturbanceIntegrator]  # None for the unperturbed modes


def certify(config: SimConfig) -> tuple:
    """Run the certificate stage: discretize, enumerate, choose sigma*, synthesize.

    Returns (dp, horizons, codes, phis, cert).  The horizons' action-code
    array and transition stack are built once here, shared by the choice of
    sigma* and the synthesis, and returned for a caller that tabulates or
    tests the same horizons; any infeasibility surfaces here.
    """
    plant = config.plant
    dp = DiscretePlant.from_plant(plant, config.T)
    horizons = enumerate_horizons(plant.m, config.l_min, config.l_max, config.horizon_cap)
    if len(horizons) * (2 * plant.n) ** 2 * 8 >= COLLECT_BEFORE_BYTES:
        # an earlier prepare's tables caught in a reference cycle (a policy whose bound
        # select a caller wrapped) stay resident until the oldest generation is collected
        gc.collect()
    codes = action_codes(horizons)
    phis = transition_table(dp, horizons, codes)
    sigma_star = tuple(config.sigma_star) if config.sigma_star else choose_sigma_star(horizons, phis, codes)
    try:
        Phi_star = phis[horizons.index(sigma_star)]
    except ValueError:
        raise ConfigError(f"fallback horizon {sigma_star} is not in the enumerated set") from None
    if config.mode not in PERTURBED_MODES:
        cert = synthesize_unperturbed(Phi_star, config.beta, sigma_star, config.T)
    else:
        varpi = disturbance_step_bound(plant, config.T)
        _, chi = growth_constants(dp, horizons, varpi)
        C_prime = float(np.linalg.norm(step_matrices(dp)[0], 2))
        if config.mode == "online-perturbed":
            cert = synthesize_perturbed_online(
                Phi_star, config.beta, config.gamma, sigma_star, config.T, chi, varpi=varpi, C_prime=C_prime
            )
        else:
            cert = synthesize_perturbed_offline(
                Phi_star, config.beta, config.gamma1, config.gamma2, sigma_star, config.T, chi,
                C_prime=C_prime, varpi=varpi,
            )
    return dp, horizons, codes, phis, cert


def prepare(config: SimConfig) -> Prepared:
    """Certify, then build the run's one policy and its disturbance quadrature.

    An offline mode's policy is the region table, an online mode's the
    online test, both built on certify's transition stack, which no
    Prepared keeps; a perturbed mode wraps either in the E(P,1) gate.
    """
    dp, horizons, codes, phis, cert = certify(config)
    regions = table = None
    if config.mode in OFFLINE_MODES:
        regions = make_partition(2 * dp.n, config.N)
        policy = table = TablePolicy(cert, horizons, phis, dp.m, regions, codes)
    else:
        policy = OnlinePolicy(cert, horizons, phis, dp.m, codes)
    integrator = None
    if config.mode in PERTURBED_MODES:
        policy = GatedPolicy(policy, cert.P)
        integrator = _DisturbanceIntegrator(config.plant, config.T, config.substeps_per_T)
    return Prepared(dp, horizons, cert, regions, table, policy, integrator)


def simulate(config: SimConfig, prepared: Optional[Prepared] = None) -> SimTrace:
    plant = config.plant
    prepared = prepared if prepared is not None else prepare(config)
    dp, cert, policy, integrator = prepared.dp, prepared.cert, prepared.policy, prepared.integrator
    perturbed = config.mode in PERTURBED_MODES
    w_signal = (config.disturbance or default_sine_disturbance(plant)) if perturbed else None
    P = cert.P

    n = plant.n
    masks = list(refresh_masks(plant.blocks))
    A_T, B_T, K = dp.A_T, dp.B_T, plant.K
    # t += T over the most steps a run takes: total_steps - 1, then the longest horizon, listed last
    times = np.add.accumulate(np.r_[0.0, np.full(config.total_steps + len(prepared.horizons[-1]) - 2, config.T)])
    taus = times.tolist()

    x = config.x0[:n].copy()
    xh = config.x0[n:].copy()
    eta = config.x0
    steps = 0
    rows_x, rows_xh, rows_u, rows_a = [], [], [], []
    boundaries = []
    decisions = []
    decision_rows = []

    while steps < config.total_steps:
        dec = policy.select(eta, config.seed, steps)
        boundaries.append(steps)
        decisions.append(dec)
        decision_rows.append((steps, taus[steps], config.mode, horizon_to_text(dec.horizon), dec.metric,
                              dec.evaluated, int(dec.reason == "gate"), dec.reason, dec.region, dec.margin))
        for a in dec.horizon:
            rows_x.append(x)  # x and xh are rebound each step, never mutated
            xh = np.where(masks[a], x, xh)
            u = K @ xh
            x = A_T @ x + B_T @ u
            if perturbed:
                if steps % BLOCK_STEPS == 0:
                    forcing = integrator.integrate(w_signal, times[steps : steps + BLOCK_STEPS])
                x = x + forcing[steps % BLOCK_STEPS]
            rows_xh.append(xh)
            rows_u.append(u)
            rows_a.append(a)
            steps += 1
        eta = np.concatenate([x, xh])

    X, XHAT, actions = np.array(rows_x), np.array(rows_xh), np.array(rows_a, dtype=int)
    # (x, held estimate) rows of every step, and the final state last
    E = np.concatenate([np.vstack([X, x]), np.vstack([config.x0[n:], XHAT])], axis=1)[:, None]
    V_all = np.matmul(np.matmul(E, P), E.transpose(0, 2, 1)).ravel()  # on (1, 2n) rows: eta @ P @ eta bit for bit
    V = V_all[:steps]
    boundary_V = V_all[boundaries + [steps]].tolist()
    V0 = boundary_V[0]
    metrics = {
        **utilization_metrics(actions, plant.m),
        "V0": V0,
        "final_V": boundary_V[-1],
        "min_V_ratio": min(boundary_V) / V0 if V0 > 0 else 0.0,
        "forced_fallbacks": sum(dec.reason == "forced-fallback" for dec in decisions),
        "table_misses": sum(dec.reason == "table-miss" for dec in decisions),
    }
    if perturbed:
        inside = np.flatnonzero(np.array(boundary_V) <= cert.mu)
        entered = int(inside[0]) if inside.size else None
        max_after = max([0.0, *boundary_V[entered + 1 :]]) if inside.size else 0.0
        metrics["mu"] = cert.mu
        metrics["guub_entered_boundary"] = entered
        metrics["max_V_after_entry"] = max_after
        metrics["guub_contained"] = bool(entered is not None and max_after <= cert.mu + 1e-6)

    trace = SimTrace(
        times=times[:steps],
        X=X,
        XHAT=XHAT,
        U=np.array(rows_u),
        actions=actions,
        V=V,
        boundaries=boundaries,
        boundary_V=boundary_V,
        decisions=decisions,
        decision_rows=decision_rows,
        metrics=metrics,
    )
    return trace


def utilization_metrics(actions: np.ndarray, m: int) -> dict:
    """Steps, sensor readings and utilization reduction of a run's action sequence."""
    steps = int(actions.size)
    if steps == 0:
        raise ValueError("empty trace")
    readings = int(np.count_nonzero(actions))
    return {"steps": steps, "readings": readings, "utilization_reduction": 1.0 - readings / (m * steps)}


# ---------------------------------------------------------------------------
# trace and decision-log CSV (LF endings, full-precision floats)


def write_trace_csv(trace: SimTrace, path: str):
    n = trace.X.shape[1]
    m_u = trace.U.shape[1]
    header = ",".join(
        ["step", "t"]
        + [f"x_{i+1}" for i in range(n)]
        + [f"xhat_{i+1}" for i in range(n)]
        + [f"u_{j+1}" for j in range(m_u)]
        + ["action", "V"]
    )
    # each row's floats are t, x, xhat, u and V, in the shortest round-tripping text
    values = np.column_stack([trace.times, trace.X, trace.XHAT, trace.U, trace.V])
    texts = float_texts(values)
    width = values.shape[1]
    lines = [header]
    lines += [
        f"{k},{','.join(texts[s : s + width - 1])},{a},{texts[s + width - 1]}"
        for k, (s, a) in enumerate(zip(range(0, len(texts), width), trace.actions.tolist()))
    ]
    write_text(path, "\n".join(lines) + "\n")


def write_decision_csv(trace: SimTrace, path: str):
    # no field needs CSV quoting (all texts are letters, digits and dashes); a missing region or margin is empty
    lines = ["step,tau,mode,horizon,metric,evaluated,inside_ellipsoid,reason,region,margin"]
    lines += [
        f"{step},{float(tau)!r},{mode},{horizon},{float(metric)!r},{evaluated},{inside},{reason},"
        f"{'' if region is None else region},{'' if margin is None else repr(float(margin))}"
        for step, tau, mode, horizon, metric, evaluated, inside, reason, region, margin in trace.decision_rows
    ]
    write_text(path, "\n".join(lines) + "\n")


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
    # columns: step, t, x_*, xhat_*, u_*, action, V; numpy parses each text as float() does
    values = np.array(rows, dtype=float)
    return SimTrace(
        times=values[:, 1],
        X=values[:, 2 : 2 + n],
        XHAT=values[:, 2 + n : 2 + 2 * n],
        U=values[:, 2 + 2 * n : 2 + 2 * n + m_u],
        actions=values[:, -2].astype(int),
        V=values[:, -1],
        boundaries=[],
        boundary_V=[],
        decisions=[],
        decision_rows=[],
        metrics={},
    )
