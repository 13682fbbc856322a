"""The four self-triggering mechanisms, as two independent choices.

Each mechanism selects, at each triggering instant, the horizon maximizing
the average-idle objective inside a certificate-defined admissible set.  The
set comes either from an online test of every horizon's quadratic form at
the current state, or from a region table built offline; the perturbed
variants put the E(P,1) gate in front of either:

                 online test              region table
  unperturbed    OnlinePolicy             TablePolicy
  perturbed      GatedPolicy(Online...)   GatedPolicy(Table...)

Every policy answers select(eta, rng_seed, step_index) -> TriggerDecision.
Metric ties are broken uniformly at random with a counter-based generator
keyed by (seed, step index), so decisions are reproducible and independent
of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .certificates import UnperturbedCertificate, U_sigma_builder, decay_factor
from .errors import ConfigError
from .horizons import avg_idle_metric, horizon_to_text
from .matrix_core import spectral_norm
from .partition import RegionForms, region_multipliers, region_of

IDLE_HORIZON = (0,)

# admissibility slack, scaled by the state magnitude so triggering behaves
# uniformly near and far from the origin
FEAS_TOL = 1e-12
FORM_CHUNK = 64  # horizons per slice of OnlinePolicy's form build


@dataclass(frozen=True)
class TriggerDecision:
    horizon: tuple
    metric: float
    feasible_count: int
    tie_count: int
    mode: str


@dataclass(frozen=True)
class OfflineTable:
    psi: tuple  # per-region tuple of optimal horizons
    metric: tuple  # the shared metric value per region
    mode: str
    m: int  # sensor count, needed to score the idle horizon


def _tie_break(ties, rng_seed: int, step_index: int):
    rng = np.random.Generator(np.random.Philox(key=[rng_seed, step_index]))
    return ties[rng.integers(len(ties))]


def _argmax_ties(candidates, metrics):
    best = max(metrics[s] for s in candidates)
    return best, [s for s in candidates if metrics[s] == best]


def _mode(kind: str, cert) -> str:
    return f"{kind}-{'unperturbed' if isinstance(cert, UnperturbedCertificate) else 'perturbed'}"


def _fallback(cert, horizons) -> tuple:
    sigma_star = tuple(cert.sigma_star)
    if sigma_star not in horizons:
        raise ConfigError(f"fallback horizon {sigma_star} missing from the horizon set")
    return sigma_star


class OnlinePolicy:
    """Online trigger: horizon s is admissible at eta iff eta' F_s eta + c_s >= -slack.

    Unperturbed, F_s = rho_s P - Phi_s' P Phi_s with a zero corner c_s, and
    the slack is FEAS_TOL |eta|^2 ||P||.  Perturbed, (F_s, c_s) are the
    blocks of U_sigma and the slack is FEAS_TOL max(1, |eta|^2).  All forms
    are evaluated in one batched product; an empty admissible set falls back
    to sigma*, which the certificate guarantees (this guards roundoff).
    """

    def __init__(self, cert, horizons, phis, m: int):
        self.horizons = [tuple(s) for s in horizons]
        self.fallback_index = self.horizons.index(_fallback(cert, self.horizons))
        self.mode = _mode("online", cert)
        self.m = m
        self.metrics = np.array([avg_idle_metric(s, m) for s in self.horizons])
        P = cert.P
        nn = P.shape[0]
        rhos = np.array([decay_factor(cert.beta, len(s), cert.T) for s in self.horizons])
        self.forms = np.empty((len(self.horizons), nn, nn))
        self.corners = np.zeros(len(self.horizons))
        unperturbed = isinstance(cert, UnperturbedCertificate)
        u_sigma = None if unperturbed else U_sigma_builder(P, cert.M, cert.gamma)
        chis = None if unperturbed else [cert.chi_squared[len(s)] for s in self.horizons]
        for lo in range(0, len(self.horizons), FORM_CHUNK):  # slices are views: no temporary spans the stack
            sl = slice(lo, lo + FORM_CHUNK)
            if unperturbed:
                self.forms[sl] = rhos[sl, None, None] * P - np.swapaxes(phis[sl], 1, 2) @ P @ phis[sl]
            else:
                U = u_sigma(phis[sl], rhos[sl], chis[sl])
                self.forms[sl], self.corners[sl] = U[:, :nn, :nn], U[:, nn, nn]
        self.slack_floor, self.slack_scale = (0.0, spectral_norm(P)) if unperturbed else (1.0, 1.0)

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        eta = np.asarray(eta, dtype=float)
        H, d, _ = self.forms.shape
        values = (self.forms.reshape(H * d, d) @ eta).reshape(H, d) @ eta + self.corners
        slack = FEAS_TOL * max(self.slack_floor, float(eta @ eta)) * self.slack_scale
        feas = np.flatnonzero(values >= -slack)
        if feas.size == 0:
            feas = np.array([self.fallback_index])
        best = self.metrics[feas].max()
        ties = feas[self.metrics[feas] == best]
        chosen = self.horizons[_tie_break(ties, rng_seed, step_index)]
        return TriggerDecision(
            horizon=chosen,
            metric=float(best),
            feasible_count=int(feas.size),
            tie_count=int(ties.size),
            mode=self.mode,
        )


class TablePolicy:
    """Offline trigger: look up the precomputed optimal set for the state's
    region; a lookup miss falls back to sigma*, which is certified everywhere."""

    def __init__(self, table: OfflineTable, regions, fallback):
        self.table = table
        self.regions = regions
        self.mode = table.mode
        self.m = table.m
        self.fallback = tuple(fallback)

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        c = region_of(np.asarray(eta, dtype=float), self.regions)
        if c is None:
            ties, metric = (self.fallback,), avg_idle_metric(self.fallback, self.m)
        else:
            ties, metric = self.table.psi[c], self.table.metric[c]
        return TriggerDecision(
            horizon=_tie_break(ties, rng_seed, step_index),
            metric=metric,
            feasible_count=len(ties),
            tie_count=len(ties),
            mode=self.mode,
        )


class GatedPolicy:
    """The perturbed mechanisms' gate: inside E(P,1), wait one period without
    sampling; elsewhere defer to the wrapped policy."""

    def __init__(self, policy, P):
        self.policy = policy
        self.P = P
        self.mode = policy.mode
        self.idle = TriggerDecision(
            horizon=IDLE_HORIZON,
            metric=avg_idle_metric(IDLE_HORIZON, policy.m),
            feasible_count=1,
            tie_count=1,
            mode=self.mode,
        )

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        eta = np.asarray(eta, dtype=float)
        if eta @ self.P @ eta <= 1.0:
            return self.idle
        return self.policy.select(eta, rng_seed, step_index)


def build_offline_table(cert, horizons, regions, forms: RegionForms, m: int) -> OfflineTable:
    """Per-region optimal-horizon sets.

    forms stacks the certificate's region test over the horizons, in order;
    each region decides every horizon at once (`region_multipliers`), and
    the fallback horizon is inserted when nothing else qualifies.
    """
    horizons = [tuple(s) for s in horizons]
    sigma_star = _fallback(cert, horizons)
    metrics = {s: avg_idle_metric(s, m) for s in horizons}
    psi = []
    values = []
    for reg in regions:
        certified = forms.index[~np.isnan(region_multipliers(forms, reg.Q))]
        feas = [horizons[i] for i in certified] or [sigma_star]
        best, ties = _argmax_ties(feas, metrics)
        psi.append(tuple(ties))
        values.append(best)
    return OfflineTable(psi=tuple(psi), metric=tuple(values), mode=_mode("offline", cert), m=m)


def table_to_dict(table: OfflineTable) -> dict:
    return {
        "mode": table.mode,
        "m": table.m,
        "regions": [
            {"psi": [horizon_to_text(s) for s in ties], "metric": value}
            for ties, value in zip(table.psi, table.metric)
        ],
    }
