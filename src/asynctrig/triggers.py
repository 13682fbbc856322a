"""The four self-triggering mechanisms, as two independent choices.

Each mechanism selects, at each triggering instant, the horizon maximizing
the average-idle objective inside a certificate-defined admissible set.  The
set comes either from an online test of the horizons' quadratic forms at
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

from typing import NamedTuple, Optional

import numpy as np

from .certificates import UnperturbedCertificate, decay_factor, per_length, region_forms, young_gain
from .errors import ConfigError
from .horizons import action_codes, avg_idle_metric, horizon_to_text
from .matrix_core import decay_form, spectral_norm, symmetrize
from .partition import region_multipliers, region_of

IDLE_HORIZON = (0,)

# admissibility slack, scaled by the state magnitude so triggering behaves
# uniformly near and far from the origin
FEAS_TOL = 1e-12
# horizons per slice of OnlinePolicy's form build; also the least width of
# select's first block, so retuning the build moves select's early exit
FORM_CHUNK = 64


class TriggerDecision(NamedTuple):  # a tuple: built once per decision, and cheaper to build than a dataclass
    horizon: tuple
    metric: float
    evaluated: int  # forms the decision scored; 0 for gate and table decisions
    reason: str  # gate, certified, forced-fallback, table or table-miss
    region: Optional[int] = None  # the looked-up region of a table decision
    margin: Optional[float] = None  # the chosen horizon's eta' F eta + c, where the online test scored it


def _tie_break(ties, rng_seed: int, step_index: int):
    if len(ties) == 1:  # the draw below would be integers(1), which is always 0
        return ties[0]
    rng = np.random.Generator(np.random.Philox(key=[rng_seed, step_index]))
    return ties[rng.integers(len(ties))]


def _metrics(codes, m: int) -> np.ndarray:
    """avg_idle_metric of every horizon of an `action_codes` array, bit for bit: both
    divide the same two exact integers."""
    lengths = (codes >= 0).sum(axis=0)
    return ((codes == 0).sum(axis=0) + lengths) / (m * lengths)


def _best_ties(metrics: np.ndarray, feas: np.ndarray):
    """Best metric over the horizon indices feas, and the indices attaining it."""
    best = metrics[feas].max()
    return best, feas[metrics[feas] == best]


def _fallback_index(cert, horizons) -> int:
    sigma_star = tuple(cert.sigma_star)
    try:
        return horizons.index(sigma_star)
    except ValueError:
        raise ConfigError(f"fallback horizon {sigma_star} missing from the horizon set") from None


class OnlinePolicy:
    """Online trigger: horizon s is admissible at eta iff eta' F_s eta + c_s >= -slack.

    F_s is a negated `decay_form`.  Unperturbed, F_s = rho_s P - Phi_s' P
    Phi_s with a zero corner c_s, and the slack is FEAS_TOL |eta|^2 ||P||.
    Perturbed, F_s = (rho_s - gamma) P - Phi_s'(P + M) Phi_s, the corner is
    c_s = gamma - chi(|s|)^2 lambda_bar (`young_gain`), and the slack is
    FEAS_TOL max(1, |eta|^2).  The horizons are stored in metric order,
    best first, each metric level in horizon order, so the first admissible
    position holds the best metric and its level's admissible positions are
    the ties, in the order a full scan lists them.  `select` scores at most
    two blocks, each one product of the flattened forms with vec(eta eta'):
    the best levels up to the first level end at or past FORM_CHUNK forms,
    then the rest.  When nothing is admissible, sigma* is taken and the
    decision's reason is forced-fallback.  codes, when given, is the
    horizons' `action_codes` array.

    Perturbed, that fallback is common.  The certificate's first inequality
    (`verify_lmi_pair`) is the same `decay_form` call at w = gamma - bbar
    where this test has w = bbar - gamma.  With W = eta' Phi'(P + M) Phi eta
    and V = eta' P eta, it gives sigma* W <= (gamma - bbar) V at every state
    (so V+ <= (gamma - bbar) V + lambda_bar chi^2), but the test asks for
    W <= (bbar - gamma) V + c_s.  Synthesis requires gamma > bbar(|sigma*|),
    so sigma*'s F is negative definite and the test admits it only inside a
    bounded ellipsoid.  On the online-perturbed preset F's eigenvalues run
    from -1.0e-4 to -8.6e-7 with c = 0.035, while W reaches only 0.174 V
    against gamma - bbar = 0.25.  Both signs cannot match the paper.
    """

    def __init__(self, cert, horizons, phis, m: int, codes=None):
        codes = action_codes(horizons) if codes is None else codes
        metrics = _metrics(codes, m)
        order = np.argsort(-metrics, kind="stable")
        self.horizons = [tuple(horizons[i]) for i in order.tolist()]
        self.metrics = metrics[order]
        self.fallback_index = _fallback_index(cert, self.horizons)  # stable order: first of its level
        self.m = m
        H = len(horizons)
        level_ends = np.append(np.flatnonzero(np.diff(self.metrics)) + 1, H)
        self.level_end = np.repeat(level_ends, np.diff(level_ends, prepend=0))  # one past each position's level
        split = int(level_ends[level_ends >= min(FORM_CHUNK, H)][0])
        self.blocks = ((0, split), (split, H))
        P = symmetrize(cert.P)
        nn = P.shape[0]
        lengths = (codes >= 0).sum(axis=0)[order]
        rhos = per_length(lambda l: decay_factor(cert.beta, l, cert.T), lengths)
        if isinstance(cert, UnperturbedCertificate):
            A, w, self.corners = P, rhos, np.zeros(H)
            self.slack_floor, self.slack_scale = 0.0, spectral_norm(cert.P)
        else:
            A, w = P + symmetrize(cert.M), rhos - cert.gamma
            self.corners = cert.gamma - per_length(lambda l: cert.chi[l] ** 2, lengths) * young_gain(P, cert.M)
            self.slack_floor, self.slack_scale = 1.0, 1.0
        self.forms = np.empty((H, nn, nn))
        for lo in range(0, H, FORM_CHUNK):  # gathers and writes one slice at a time: no temporary spans the stack
            sl = slice(lo, lo + FORM_CHUNK)
            self.forms[sl] = -decay_form(phis[order[sl]], P, w[sl], A)
        self.flat = self.forms.reshape(H, nn * nn)

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        eta = np.asarray(eta, dtype=float)
        outer = np.multiply.outer(eta, eta).ravel()
        slack = FEAS_TOL * max(self.slack_floor, float(eta @ eta)) * self.slack_scale
        for lo, hi in self.blocks:
            values = self.flat[lo:hi] @ outer + self.corners[lo:hi]
            feas = np.flatnonzero(values >= -slack)
            if feas.size:
                ties = lo + feas[: np.searchsorted(feas, self.level_end[lo + feas[0]] - lo)]
                i = _tie_break(ties, rng_seed, step_index)
                reason, margin = "certified", values[i - lo]
                break
        else:  # hi is now the stack's end: every form was scored
            i = self.fallback_index
            reason, margin = "forced-fallback", self.flat[i] @ outer + self.corners[i]
        return TriggerDecision(
            horizon=self.horizons[i],
            metric=float(self.metrics[i]),
            evaluated=hi,
            reason=reason,
            margin=float(margin),
        )


class TablePolicy:
    """Offline trigger: look up the precomputed optimal set for the state's
    region; a lookup miss falls back to sigma*, which is certified everywhere.

    The table is built here: the certificate's region test is stacked over
    the horizons once (`region_forms`), one `region_multipliers` call on the
    stacked region forms decides every (region, horizon) pair, and a region
    where nothing qualifies gets sigma* alone.  psi holds each region's
    tuple of optimal horizons, metric their shared metric value, and
    certified its number of certified horizons (0 where psi is the fallback
    alone).  codes, when given, is the horizons' `action_codes` array.
    """

    def __init__(self, cert, horizons, phis, m: int, regions, codes=None):
        horizons = [tuple(s) for s in horizons]
        fallback = np.array([_fallback_index(cert, horizons)])
        metrics = _metrics(action_codes(horizons) if codes is None else codes, m)
        forms = region_forms(cert, horizons, phis)
        certified = ~np.isnan(region_multipliers(forms, np.array([reg.Q for reg in regions])))
        psi, values = [], []
        for row in certified:
            best, ties = _best_ties(metrics, forms.index[row] if row.any() else fallback)
            psi.append(tuple(horizons[i] for i in ties))
            values.append(float(best))
        self.psi, self.metric = tuple(psi), tuple(values)
        self.certified = tuple(certified.sum(axis=1).tolist())
        self.regions = regions
        self.m = m
        self.fallback = horizons[fallback[0]]

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        c = region_of(np.asarray(eta, dtype=float), self.regions)
        if c is None:
            ties, metric = (self.fallback,), avg_idle_metric(self.fallback, self.m)
        else:
            ties, metric = self.psi[c], self.metric[c]
        return TriggerDecision(
            horizon=_tie_break(ties, rng_seed, step_index),
            metric=metric,
            evaluated=0,
            reason="table-miss" if c is None else "table",
            region=c,
        )


class GatedPolicy:
    """The perturbed mechanisms' gate: inside E(P,1), wait one period without
    sampling; elsewhere defer to the wrapped policy."""

    def __init__(self, policy, P):
        self.policy = policy
        self.P = P
        self.idle = TriggerDecision(
            horizon=IDLE_HORIZON,
            metric=avg_idle_metric(IDLE_HORIZON, policy.m),
            evaluated=0,
            reason="gate",
        )

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        eta = np.asarray(eta, dtype=float)
        if eta @ self.P @ eta <= 1.0:
            return self.idle
        return self.policy.select(eta, rng_seed, step_index)


def table_to_dict(table: TablePolicy) -> dict:
    return {
        "m": table.m,
        "regions": [
            {"psi": [horizon_to_text(s) for s in ties], "metric": value}
            for ties, value in zip(table.psi, table.metric)
        ],
    }
