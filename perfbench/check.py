"""Correctness check for one closed loop, run outside the timed regions.

Every loop: the recorded actions must be the decided horizons laid end to
end, and each recorded estimate must be the previous one refreshed by that
step's action.  Unperturbed modes: each recorded state must be one exact ZOH
period on from the last, the boundary V recomputed from the recorded states
must match the program's, and it must contract over every horizon by that
horizon's decay factor, within the tolerance the certificate and the trigger
test were checked at.  Perturbed modes: the boundary V must enter E(P, mu)
and stay inside.  Reference inputs must repeat the recorded action sequence,
and offline tables the recorded per-region optimal sets.

States are checked one period at a time rather than replayed from x0: the
scheduler certifies the true state only, so a replayed rounding error may
grow along horizons that are open-loop unstable.
"""

import copy
import math

import numpy as np

from asynctrig.horizons import horizon_to_text
from asynctrig.simulation import PERTURBED_MODES

# the S-procedure table test and the certificates accept lambda_max <= 1e-9;
# the online test accepts eta' G eta <= 1e-12 |eta|^2 ||P||
TABLE_TOL = 1e-9
ONLINE_TOL = 1e-12
STEP_RTOL = 1e-9  # one recorded period against its recomputation
ROUNDOFF = 1e-12  # relative slack for V computed along two different paths


def table_texts(table) -> list:
    return [[horizon_to_text(s) for s in ties] for ties in table.psi]


def check_loop(trace, config, prepared, reference=None) -> list:
    """Failures of one loop, as messages; an empty list means it passed."""
    dp, cert = prepared[0], prepared[2]
    n = config.plant.n
    perturbed = config.mode in PERTURBED_MODES
    failures = []
    horizons = [tuple(d.horizon) for d in trace.decisions]
    actions = [int(a) for a in trace.actions]
    if actions != [a for h in horizons for a in h]:
        failures.append("actions differ from the decided horizons")
    if reference is not None and horizon_to_text(actions) != reference:
        failures.append("actions differ from the recorded reference")
    if len(trace.boundary_V) != len(horizons) + 1 or len(trace.X) != len(actions):
        return failures + ["trace lengths differ from the decision count"]

    X = np.asarray(trace.X, dtype=float)
    XH = np.asarray(trace.XHAT, dtype=float)
    held = np.vstack([config.x0[n:], XH[:-1]])  # estimate held entering each step
    starts = np.cumsum([0] + list(config.plant.blocks))
    for j, a in enumerate(actions):
        refreshed = held[j].copy()
        if a:
            refreshed[starts[a - 1] : starts[a]] = X[j, starts[a - 1] : starts[a]]
        if not np.array_equal(refreshed, XH[j]):
            failures.append(f"estimate at step {j} is not refreshed by action {a}")
            break
    ends = np.cumsum([0] + [len(h) for h in horizons])
    nxt = X @ dp.A_T.T + XH @ dp.BK_T.T  # undisturbed state one period after each step
    etas = [np.concatenate([X[s], held[s]]) for s in ends[:-1]]
    if not perturbed:
        etas.append(np.concatenate([nxt[-1], XH[-1]]))
    V = np.array([float(e @ cert.P @ e) for e in etas] + ([trace.boundary_V[-1]] if perturbed else []))
    if not np.allclose(V, trace.boundary_V, rtol=STEP_RTOL, atol=ROUNDOFF * V.max()):
        failures.append("boundary V differs from V of the recorded states")
    if perturbed:
        inside = np.flatnonzero(V <= cert.mu)
        if inside.size == 0:
            failures.append(f"never entered E(P, mu), mu {cert.mu!r}")
        elif (V[inside[0] :] > cert.mu * (1.0 + ROUNDOFF)).any():
            failures.append(f"left E(P, mu) after boundary {int(inside[0])}, mu {cert.mu!r}")
        return failures

    scale = np.abs(X).max(axis=1) + np.abs(XH).max(axis=1)
    bad = np.flatnonzero(np.abs(nxt[:-1] - X[1:]).max(axis=1) > STEP_RTOL * scale[:-1])
    if bad.size:
        failures.append(f"state at step {int(bad[0]) + 1} is not one ZOH period on from step {int(bad[0])}")
    tol = max(TABLE_TOL, ONLINE_TOL * float(np.linalg.norm(cert.P, 2)))
    for k, h in enumerate(horizons):
        rho = math.exp(-cert.beta * len(h) * cert.T)
        if V[k + 1] > rho * V[k] + tol * float(etas[k] @ etas[k]) + ROUNDOFF * V[k]:
            failures.append(f"decay violated at boundary {k}: V {V[k]!r} -> {V[k + 1]!r}, rho {rho!r}")
            break
    return failures


def check_table(table, recorded) -> list:
    if recorded is None:
        return []
    if table_texts(table) != recorded:
        return ["offline table differs from the recorded per-region optimal sets"]
    return []


def negative_controls(trace, config, prepared) -> list:
    """Problems with the check itself: each corrupted copy of a passing loop must be rejected.

    One copy has one action altered.  The other is scaled up from a middle
    boundary on, so that V there doubles the previous boundary's V
    (unperturbed) or twice mu (perturbed).
    """
    problems = []
    altered = copy.deepcopy(trace)
    j = len(altered.actions) // 2
    altered.actions[j] = (int(altered.actions[j]) + 1) % (config.plant.m + 1)
    if not check_loop(altered, config, prepared):
        problems.append("a trace with one altered action passed the check")

    injected = copy.deepcopy(trace)
    k = len(injected.decisions) // 2
    s = sum(len(d.horizon) for d in injected.decisions[:k])
    V = injected.boundary_V
    if config.mode in PERTURBED_MODES:
        target, expected = 2.0 * prepared[2].mu, "left E(P, mu)"
    else:
        target, expected = 2.0 * V[k - 1], "decay violated"
    c2 = target / V[k]
    injected.X[s:] *= math.sqrt(c2)
    injected.XHAT[s - 1 :] *= math.sqrt(c2)  # the boundary state holds the estimate of step s - 1
    injected.boundary_V = V[:k] + [v * c2 for v in V[k:]]
    if not any(f.startswith(expected) for f in check_loop(injected, config, prepared)):
        problems.append(f"a trace with an injected violation passed the {expected!r} test")
    return problems
