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
Each admission reads its inequality as computed, with no tolerance of its
own: a form is admissible where its value is >= 0, a state is in a region
where its cone's form is >= 0, and the gate idles where eta' P eta <= 1.
Metric ties are broken uniformly at random by a counter-based draw keyed by
(seed, step index), so decisions are reproducible and independent of
execution order.  The draw is Philox4x64-10 (Salmon et al., SC'11) followed
by Lemire's bounded-integer rejection (Lemire, ACM TOMACS 2019), computed in
Python integers: it is bit-identical to numpy's
`Generator(Philox(key=[seed, step])).integers(len(ties))` for every seed in
[-2**63, 2**63), a negative seed keyed mod 2**64 as numpy keys it, and no
generator object is built.
"""

from typing import NamedTuple, Optional

import numpy as np

from .certificates import UnperturbedCertificate, decay_factor, per_length, region_forms, young_gain
from .horizons import avg_idle_metric, horizon_at, horizon_to_text
from .matrix_core import _EPS, _ETA, decay_form, definite, symmetrize
from .partition import region_multipliers, region_of

IDLE_HORIZON = (0,)

# the least width of select's first block: it scores the best levels up to the first level end at or past it
FORM_CHUNK = 64
# horizons per slice of OnlinePolicy's form build and of its prune
BUILD_CHUNK = 512


class TriggerDecision(NamedTuple):  # a tuple: built once per decision, and cheaper to build than a dataclass
    horizon: tuple
    metric: float
    evaluated: int  # forms the decision scored; 0 for gate and table decisions
    reason: str  # gate, certified, forced-fallback, table or table-miss
    region: Optional[int] = None  # the looked-up region of a table decision
    margin: Optional[float] = None  # the chosen horizon's eta' F eta + c, where the online test scored it


M32, M64 = (1 << 32) - 1, (1 << 64) - 1
PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64's round multipliers
PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and its Weyl key increments


def _philox4x64(counter: int, k0: int, k1: int) -> tuple:
    """The four 64-bit words of Philox4x64-10 at the counter block (counter, 0, 0, 0) under key (k0, k1)."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for _ in range(10):
        p0 = PHILOX_MUL[0] * c0
        p1 = PHILOX_MUL[1] * c2
        c0 = (p1 >> 64) ^ c1 ^ k0
        c1 = p1 & M64
        c2 = (p0 >> 64) ^ c3 ^ k1
        c3 = p0 & M64
        k0 = (k0 + PHILOX_BUMP[0]) & M64
        k1 = (k1 + PHILOX_BUMP[1]) & M64
    return c0, c1, c2, c3


def _philox_words(k0: int, k1: int):
    """The 32-bit words a fresh numpy Philox(key=[k0, k1]) hands out: the blocks
    at counters 1, 2, ..., each 64-bit word's low half first."""
    counter = 0
    while True:
        counter += 1
        for word in _philox4x64(counter, k0, k1):
            yield word & M32
            yield word >> 32


def _tie_break(ties, rng_seed: int, step_index: int):
    """ties[Generator(Philox(key=[rng_seed, step_index])).integers(len(ties))], as numpy draws it.

    A tie set is part of a horizon list, so it holds at most 2**32 entries,
    the counts numpy draws from 32-bit words.  It takes a whole word for
    exactly 2**32, and else Lemire's method: m = word * n, rejected while its
    low 32 bits fall below 2**32 mod n, and the draw is m's high 32 bits.
    """
    n = len(ties)
    if n == 1:  # the draw would be integers(1), which is always 0
        return ties[0]
    words = _philox_words(rng_seed & M64, step_index & M64)
    if n == 1 << 32:
        return ties[next(words)]
    m = next(words) * n
    if m & M32 < n:  # n bounds the rejection threshold, which only this case computes
        threshold = (1 << 32) % n
        while m & M32 < threshold:
            m = next(words) * n
    return ties[m >> 32]


def _metrics(codes, m: int) -> tuple:
    """(metrics, lengths): avg_idle_metric of every horizon of a code array,
    bit for bit, as both divide the same two exact integers, and its length."""
    lengths = (codes >= 0).sum(axis=0)
    return ((codes == 0).sum(axis=0) + lengths) / (m * lengths), lengths


def _admissible_somewhere(forms, corners) -> np.ndarray:
    """False for each form F of a (K, d, d) stack, with its corner c, whose value
    fl(vec(F)' fl(vec(eta eta')) + c), as `select` computes it, is < 0 at every
    float state eta; True where that is not shown.

    A form is False when c <= -(n + 1) eta_min, the entries of |F| sum to a
    <= 0.99, and `definite(-F, floor=tau)`, with tau = (n + 1) eps a rounded
    up, n = d^2, eps = 2u and eta_min the least subnormal.  Proof.
    `definite` makes -F - tau I > 0 hold exactly, so eta' F eta <= -tau
    |eta|^2 and every f_ii < 0.  If some eta_i^2 overflows, f_ii eta_i^2 is
    -inf, and a sum holding -inf or NaN is -inf or NaN in any order, with or
    without FMA: not >= 0.  Else every entry of fl(vec(eta eta')) is at most
    Omega, the largest float, as |eta_i eta_j| <= max(eta_i^2, eta_j^2) and
    rounding is monotone, and a < 0.992 exactly (the computed 0.99 covers its
    rounding), so every product and partial sum stays below (1 + gamma_n) a
    Omega < Omega: nothing overflows.  With fl(x y) = x y (1 + delta) + e, |delta| <= u, |e|
    <= eta_min / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    (2.8)) and a sum exact where it is subnormal, the value before c is, in
    any summation order, within gamma_{n+1} |eta|'|F||eta| + (n + 1) eta_min
    / 2 of eta' F eta, and |eta|'|F||eta| <= ||F||_F |eta|^2 <= a |eta|^2.
    tau >= gamma_{n+1} a: its factor 2 covers the rounding of a and of the
    product, the step up an underflow.  So that value is at most (n + 1)
    eta_min / 2, its exact sum with c is < 0, and it rounds to a float < 0;
    eta = 0 gives c itself.  A stack with no corner that low is not factored.
    """
    keep = np.ones(len(forms), dtype=bool)
    n = forms.shape[-1] ** 2
    (low,) = np.nonzero(corners <= -(n + 1) * _ETA)
    for lo in range(0, low.size, BUILD_CHUNK):  # one slice of candidates at a time: no temporary spans the stack
        idx = low[lo : lo + BUILD_CHUNK]
        S = -forms[idx]
        with np.errstate(over="ignore"):  # an overflowed a is inf, and that form is kept
            a = np.abs(S).reshape(-1, n) @ np.ones(n)
            tau = np.nextafter((n + 1) * _EPS * a, np.inf)
        keep[idx] = ~((a <= 0.99) & definite(S, floor=tau))
    return keep


class OnlinePolicy:
    """Online trigger: horizon s is admissible at eta iff eta' F_s eta + c_s >= 0,
    as computed.

    F_s is a negated `decay_form`.  Unperturbed, F_s = rho_s P - Phi_s' P
    Phi_s with a zero corner c_s.  Perturbed, F_s = (rho_s - gamma) P -
    Phi_s'(P + M) Phi_s and the corner is c_s = gamma - chi(|s|)^2
    lambda_bar (`young_gain`).  A certified decision's margin is the value
    the test admitted, so it is >= 0.  Only the forms some state might admit
    are kept (`_admissible_somewhere`), and sigma*'s: on the online-perturbed
    preset 120 of 1 092, as the rest are negative definite with a negative
    corner.  The kept horizons are stored in metric order, best first, each
    metric level in horizon order, so the first admissible position holds
    the best metric and its level's admissible positions are the ties, in
    the order a full scan of every horizon lists them.  `select`
    scores at most two blocks, each one product of the flattened forms with
    vec(eta eta'): the best levels up to the first level end at or past
    FORM_CHUNK forms, then the rest.  When nothing is admissible, sigma* is
    taken and the decision's reason is forced-fallback.  codes is the
    horizons' code array, phis their transition stack and star sigma*'s
    index in both, as `certify` returns them.  The policy keeps the codes in
    metric order; a decision's horizon tuple and float metric are built at
    the first decision that returns its position and reused after
    (`horizon`, `built`, `metric_at`), so they grow with the positions
    decisions return, not with the horizon count.

    Per call, `select` scores each block on views kept from construction
    (`scored`) with one gemv, adds the corners in place, and searches for
    the best level's end only when a second admissible form could tie.

    Perturbed, that fallback is common.  The certificate's first inequality
    (`conditions` entry L1) is the negated `decay_form` at w = gamma - bbar
    where this test has w = bbar - gamma.  With W = eta' Phi'(P + M) Phi eta
    and V = eta' P eta, it gives sigma* W <= (gamma - bbar) V at every state
    (so V+ <= (gamma - bbar) V + lambda_bar chi^2), but the test asks for
    W <= (bbar - gamma) V + c_s.  Synthesis requires gamma > bbar(|sigma*|),
    so sigma*'s F is negative definite and the test admits it only inside a
    bounded ellipsoid.  On the online-perturbed preset F's eigenvalues run
    from -1.0e-4 to -8.6e-7 with c = 0.035, while W reaches only 0.174 V
    against gamma - bbar = 0.25.  Both signs cannot match the paper.
    """

    def __init__(self, cert, phis, m: int, codes, star: int):
        metrics, lengths = _metrics(codes, m)
        order = np.argsort(-metrics, kind="stable")
        H = order.size
        P = symmetrize(cert.P)
        nn = P.shape[0]
        lengths = lengths[order]
        rhos = per_length(lambda l: decay_factor(cert.beta, l, cert.T), lengths)
        if isinstance(cert, UnperturbedCertificate):
            A, w, corners = P, rhos, np.zeros(H)
        else:
            A, w = P + symmetrize(cert.M), rhos - cert.gamma
            corners = cert.gamma - per_length(lambda l: cert.chi[l] ** 2, lengths) * young_gain(P, cert.M)
        forms = np.empty((H, nn, nn))
        for lo in range(0, H, BUILD_CHUNK):  # gathers and writes one slice at a time: no temporary spans the stack
            sl = slice(lo, lo + BUILD_CHUNK)
            np.negative(decay_form(phis[order[sl]], P, w[sl], A), out=forms[sl])
        keep = _admissible_somewhere(forms, corners)
        keep[order == star] = True  # sigma*'s form stays, for the fallback's margin
        if not keep.all():
            order, forms, corners = order[keep], forms[keep], corners[keep]
        kept = len(forms)
        self.forms, self.corners = forms, corners
        self.flat = forms.reshape(kept, nn * nn)
        self.codes = codes[:, order]
        self.built = {}  # metric-order position -> its horizon tuple, once a decision returned it
        self.metric_at = {}  # and -> its metric as a float
        self.metrics = metrics[order]
        self.fallback_index = int(np.flatnonzero(order == star)[0])  # sigma*'s position in metric order
        self.m = m
        level_ends = np.append(np.flatnonzero(np.diff(self.metrics)) + 1, kept)
        self.level_end = np.repeat(level_ends, np.diff(level_ends, prepend=0))  # one past each position's level
        split = int(level_ends[level_ends >= min(FORM_CHUNK, kept)][0])
        self.blocks = ((0, split), (split, kept))
        self.scored = tuple((lo, hi, self.flat[lo:hi], corners[lo:hi]) for lo, hi in self.blocks)

    def horizon(self, i) -> tuple:
        """The horizon at metric-order position i, built once, with its metric."""
        horizon = self.built.get(i)
        if horizon is None:
            horizon = self.built[i] = horizon_at(self.codes, i)
            self.metric_at[i] = float(self.metrics[i])
        return horizon

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        eta = np.asarray(eta, dtype=float)
        outer = (eta[:, None] * eta).ravel()
        for lo, hi, flat, corners in self.scored:
            values = flat.dot(outer)  # flat @ outer bit for bit: the same BLAS gemv, at less call overhead
            values += corners
            (feas,) = (values >= 0.0).nonzero()
            if feas.size:
                head = feas[:2].tolist()
                end = self.level_end[lo + head[0]] - lo  # one past the best admissible level, in the block
                if len(head) > 1 and head[1] < end:
                    ties = lo + feas[: np.searchsorted(feas, end)]
                else:
                    ties = (lo + head[0],)
                i = _tie_break(ties, rng_seed, step_index)
                reason, margin = "certified", values[i - lo]
                break
        else:  # hi is now the stack's end: every form was scored
            i = self.fallback_index
            reason, margin = "forced-fallback", self.flat[i] @ outer + self.corners[i]
        return TriggerDecision(self.horizon(i), self.metric_at[i], hi, reason, None, float(margin))


class TablePolicy:
    """Offline trigger: look up the precomputed optimal set for the state's
    region; a lookup miss falls back to sigma*, which is certified everywhere.

    The table is built here: the certificate's region test is stacked over
    the horizons once (`region_forms`), one `region_multipliers` call on the
    stacked region forms decides every (region, horizon) pair, and a region
    where nothing qualifies gets sigma* alone.  psi holds each region's
    tuple of optimal horizons, metric their shared metric value, and
    certified its number of certified horizons (0 where psi is the fallback
    alone).  codes is the horizons' code array, phis their transition stack
    and star sigma*'s index in both, as `certify` returns them; only the
    horizons psi and miss hold are built as tuples.  Every lookup miss gets
    the one decision miss.
    """

    def __init__(self, cert, phis, m: int, regions, codes, star: int):
        fallback = np.array([star])
        metrics = _metrics(codes, m)[0]
        forms = region_forms(cert, codes, phis)
        certified = ~np.isnan(region_multipliers(forms, np.array([reg.Q for reg in regions])))
        psi, values = [], []
        for row in certified:
            feas = forms.index[row] if row.any() else fallback
            best = metrics[feas].max()
            psi.append(tuple(horizon_at(codes, i) for i in feas[metrics[feas] == best]))
            values.append(float(best))
        self.psi, self.metric = tuple(psi), tuple(values)
        self.certified = tuple(certified.sum(axis=1).tolist())
        self.regions = regions
        self.m = m
        self.miss = TriggerDecision(horizon_at(codes, star), float(metrics[star]), 0, "table-miss")

    def select(self, eta, rng_seed: int, step_index: int = 0) -> TriggerDecision:
        c = region_of(np.asarray(eta, dtype=float), self.regions)
        if c is None:
            return self.miss
        return TriggerDecision(
            horizon=_tie_break(self.psi[c], rng_seed, step_index),
            metric=self.metric[c],
            evaluated=0,
            reason="table",
            region=c,
        )


class GatedPolicy:
    """The perturbed mechanisms' gate: inside E(P,1), wait one period without
    sampling; elsewhere defer to the wrapped policy.

    The gate reads eta.dot(P).dot(eta), the value of eta @ P @ eta bit for
    bit at less call overhead, as `partition.region_of` reads its forms.
    """

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
        if eta.dot(self.P).dot(eta) <= 1.0:
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
