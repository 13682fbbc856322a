"""Benchmark acceptance criteria, one test and one printed verdict per criterion.

Each test prints `CRITERION n: PASS/FAIL <detail>` to the real terminal
(bypassing capture) before asserting, so a full run always shows the verdict
table.  Every criterion is expected green.  Criterion 5 keeps an externally
recorded (P, M) pair, which is not a certificate for the preset's plant, as a
negative control that the verifier must reject (details in its docstring).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from asynctrig.certificates import decay_factor
from asynctrig.cli import main
from asynctrig.errors import InfeasibleError
from asynctrig.horizons import avg_idle_metric
from asynctrig.matrix_core import (
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym_eig_bounds,
    symmetrize,
    zoh_pair,
)
from asynctrig.plant import DiscretePlant
from asynctrig.presets import preset_config
from asynctrig.simulation import SimConfig, prepare, simulate
from helpers import (
    M_REF,
    P_REF,
    U_c_oracle,
    U_sigma_builder,
    benchmark_plant,
    horizon_list,
    horizon_transition,
    max_eps_feasible,
    online_pair_holds,
    random_schur_stabilizable,
    regioned_U_c,
    schur_threshold,
    simpson_zoh_B,
    taylor_expm,
)


@pytest.fixture
def say(capfd):
    def _say(num: int, ok: bool, detail: str):
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _say


def test_criterion_1_full_sampling_threshold(say):
    t0 = time.perf_counter()
    T_max = schur_threshold(benchmark_plant())
    dt = time.perf_counter() - t0
    ok = 0.58 <= T_max <= 0.60 and dt < 1.0
    say(1, ok, f"T_Schur={T_max:.6f} in [0.58, 0.60], {dt:.2f}s < 1s")


def test_criterion_2_stabilizing_horizon(say):
    t0 = time.perf_counter()
    dp = DiscretePlant.from_plant(benchmark_plant(), 0.297)
    sr = spectral_radius(horizon_transition(dp, (0, 0, 1, 2, 2, 2, 2)))
    dt = time.perf_counter() - t0
    ok = sr < 1.0 and dt < 1.0
    say(2, ok, f"spectral radius {sr:.6f} < 1 for the sparse 7-step horizon, {dt:.2f}s < 1s")


def test_criterion_3_online_unperturbed_preset(say):
    t0 = time.perf_counter()
    cfg = preset_config("online-unperturbed")
    tr = simulate(cfg)
    dt = time.perf_counter() - t0
    red = tr.metrics["utilization_reduction"]
    ratio = min(tr.boundary_V) / tr.boundary_V[0]
    ok = ratio <= 1e-6 and 0.68 <= red <= 0.79 and dt < 10.0
    say(3, ok, f"V falls to {ratio:.2e} of V0 (<= 1e-6), reduction {red:.4f} in [0.68, 0.79], {dt:.2f}s < 10s")


def test_criterion_4_offline_unperturbed_preset(say, prepared_offline_unperturbed):
    cfg, prep, build_s = prepared_offline_unperturbed
    t0 = time.perf_counter()
    tr = simulate(cfg, prep)
    dt = build_s + (time.perf_counter() - t0)
    red = tr.metrics["utilization_reduction"]
    ratio = min(tr.boundary_V) / tr.boundary_V[0]
    ok = ratio <= 1e-6 and 0.63 <= red <= 0.77 and dt < 60.0
    say(4, ok, f"V falls to {ratio:.2e} of V0 (<= 1e-6), reduction {red:.4f} in [0.63, 0.77], {dt:.2f}s < 60s")


def test_criterion_5_online_perturbed_preset(say):
    """Boundedness, utilization and the preset's own (P, M) certificate hold.

    The certificate that `prepare` synthesizes must satisfy both
    perturbed-online inequalities at gamma = 0.35 with this configuration's
    own fallback transition Phi*, decay factor bbar* and disturbance
    aggregate chi*(4)^2: `conditions`' L1 and L2 at tol 1e-6
    (`helpers.online_pair_holds`), plus strict margins computed here with
    numpy.linalg.eigvalsh, lambda_max(L1) < 0, lambda_min(L2) > 0,
    lambda_min(P) > 0 and lambda_min(M) > 0.  The strict margins are needed
    because lambda_max(P) is about 2.4e-4, so tol 1e-6 is looser than the
    margins themselves, and because L1 and L2 alone accept P = M = 0.

    The externally recorded pair (P_ref, M_ref) is kept as a negative control
    and must be rejected; it is not a certificate for this plant.  Measured
    with plain eigvalsh: lambda_max of Phi'(P+M)Phi + (bbar - gamma) P is
    +17.96 at the fallback sigma* = (2,1,2,1), T = 0.18, and with the decay
    factor sent to zero (the most favorable case) its smallest value over all
    1092 horizons of lengths 1..6 is +3.295.  Scanning sampling periods from
    0.05 to 0.5 s in 1 ms steps never brings it below +0.30 (at T = 0.248).
    Re-expressing the pair in 8 state conventions, (x, xhat), (xhat, x),
    (x, e) and (e, x) with e = +-(xhat - x), (xhat, e) and (e, xhat) with
    e = xhat - x, each with the held or the refreshed estimate and either
    product order, leaves it at best +1.21.  P_ref alone is not a Lyapunov
    matrix for Phi* at rate gamma - bbar = 0.25 (lambda_max +6.42, although
    sr(Phi*)^2 = 0.10 shows one exists), and the second inequality would need
    a chi argument <= 0.034 where chi(4)^2 = 20.1 is passed here.
    """
    t0 = time.perf_counter()
    cfg = preset_config("online-perturbed")
    prep = prepare(cfg)
    tr = simulate(cfg, prep)
    dt = time.perf_counter() - t0
    red = tr.metrics["utilization_reduction"]
    contained = tr.metrics["guub_contained"]
    sim_ok = contained and 0.61 <= red <= 0.76 and dt < 30.0

    dp, horizons, cert = prep.dp, horizon_list(prep.codes), prep.cert
    Phi_star = horizon_transition(dp, tuple(cert.sigma_star))
    bbar_star = decay_factor(cert.beta, len(cert.sigma_star), cert.T)
    chi_star = cert.chi[len(cert.sigma_star)] ** 2

    def sym_eigs(S):
        return np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2)))

    def lmi_margins(P, M):
        """(lambda_max of the first inequality, lambda_min of the second) at gamma = 0.35."""
        L1 = Phi_star.T @ (P + M) @ Phi_star + (bbar_star - 0.35) * P
        L2 = np.block([[M, P], [P, (0.35 / chi_star) * np.eye(4) - P]])
        return sym_eigs(L1)[-1], sym_eigs(L2)[0]

    cert_verified = cert.gamma == 0.35 and online_pair_holds(cert, Phi_star, 1e-6)
    l1, l2 = lmi_margins(cert.P, cert.M)
    p_lo, m_lo = sym_eigs(cert.P)[0], sym_eigs(cert.M)[0]
    cert_ok = cert_verified and l1 < 0 and l2 > 0 and p_lo > 0 and m_lo > 0

    P_ref, M_ref = P_REF, M_REF
    ref_verified = online_pair_holds(dataclasses.replace(cert, P=P_ref, M=M_ref), Phi_star, 1e-6)
    m1, _ = lmi_margins(P_ref, M_ref)
    Phis = np.stack([horizon_transition(dp, s) for s in horizons])
    L1_all = np.einsum("hji,jk,hkl->hil", Phis, P_ref + M_ref, Phis) - 0.35 * P_ref
    best = sym_eigs(L1_all)[:, -1].min()
    ref_rejected = not ref_verified and m1 > 0 and best > 0

    ok = sim_ok and cert_ok and ref_rejected
    say(
        5,
        ok,
        f"GUUB contained={contained}, reduction {red:.4f} in [0.61, 0.76], {dt:.2f}s < 30s; "
        f"preset pair L1, L2 hold (gamma=0.35, tol=1e-6)={cert_verified} "
        f"(lambda_max L1 {l1:+.2e} < 0; lambda_min L2 {l2:+.2e}, P {p_lo:+.2e}, M {m_lo:+.2e} all > 0); "
        f"recorded pair L1, L2 hold={ref_verified} "
        f"(first-inequality margin {m1:+.4f} at the fallback, best over all horizons {best:+.4f}, both > 0)",
    )


def test_criterion_6_offline_perturbed_preset(say, prepared_offline_perturbed):
    cfg, prep, build_s = prepared_offline_perturbed
    t0 = time.perf_counter()
    tr = simulate(cfg, prep)
    dt = build_s + (time.perf_counter() - t0)
    red = tr.metrics["utilization_reduction"]
    contained = tr.metrics["guub_contained"]
    ok = contained and 0.52 <= red <= 0.67 and dt < 120.0
    say(6, ok, f"GUUB contained={contained}, reduction {red:.4f} in [0.52, 0.67], {dt:.2f}s < 120s")


# -- criterion 7: randomized property suites ---------------------------------


def _decay_suite(runs_online=1000, runs_offline=20):
    """Certificate decay at every horizon boundary of randomized runs."""
    rng = np.random.default_rng(99)
    checked = 0
    boundaries = 0
    rejected = 0
    todo = [False] * runs_online + [True] * runs_offline
    while todo:
        want_offline = todo[-1]
        plant_T = None
        while plant_T is None:
            plant_T = random_schur_stabilizable(rng)
        plant, T = plant_T
        cfg = SimConfig(
            plant=plant,
            T=T,
            l_min=1,
            l_max=2,
            mode="offline-unperturbed" if want_offline else "online-unperturbed",
            x0=rng.normal(scale=float(rng.uniform(0.5, 20.0)), size=2),
            beta=float(rng.choice([0.0, 0.05])),
            N=5 if want_offline else 0,
            total_steps=6 if want_offline else 8,
            seed=int(rng.integers(2**31)),
        )
        try:
            prep = prepare(cfg)
        except InfeasibleError:
            rejected += 1
            continue
        todo.pop()
        tr = simulate(cfg, prep)
        cert = prep.cert
        lo, hi = sym_eig_bounds(cert.P)
        slack = 1e-12 * hi / lo  # rounding allowance mapped into V units
        for i, dec in enumerate(tr.decisions):
            bbar = decay_factor(cert.beta, len(dec.horizon), cfg.T)
            v0, v1 = tr.boundary_V[i], tr.boundary_V[i + 1]
            if not v1 <= (bbar + slack) * v0 * (1 + 1e-9):
                return False, f"decay violated: {v1:.6e} > {bbar:.6f}*{v0:.6e}"
            boundaries += 1
        checked += 1
    return True, f"decay held at {boundaries} boundaries over {checked} randomized runs ({rejected} infeasible draws resampled)"


def _step_inequality_suite(draws=1000):
    """One-step certified bound under worst-case lumped disturbances."""
    cfg = preset_config("online-perturbed")
    prep = prepare(cfg)
    dp, horizons, cert, policy = prep.dp, horizon_list(prep.codes), prep.cert, prep.policy
    P, gamma = cert.P, cert.gamma
    phis = {s: horizon_transition(dp, s) for s in horizons}
    u_sigma = U_sigma_builder(P, cert.M, gamma)
    rng = np.random.default_rng(1234)
    done = 0
    forced = 0
    attempts = 0
    while done < draws:
        attempts += 1
        if attempts > 40 * draws:
            return False, "could not collect enough certified draws"
        d = rng.normal(size=4)
        r = float(rng.uniform(1.01, 40.0))
        eta = d * (r / math.sqrt(d @ P @ d))
        dec = policy.select(eta, rng_seed=0, step_index=attempts)
        s = dec.horizon
        U = u_sigma(phis[s], decay_factor(cert.beta, len(s), cert.T), cert.chi[len(s)] ** 2)
        v = np.concatenate([eta, [1.0]])
        if v @ U @ v < -1e-9 * max(1.0, float(eta @ eta)):
            forced += 1  # fallback forced by an empty admissible set: not a certified choice
            continue
        w_dir = rng.normal(size=4)
        w_dir /= np.linalg.norm(w_dir)
        radius = cert.chi[len(s)] * (1.0 if done % 2 == 0 else float(rng.uniform(0.0, 1.0)))
        w = w_dir * radius
        V0 = float(eta @ P @ eta)
        eta1 = phis[s] @ eta + w
        V1 = float(eta1 @ P @ eta1)
        bound = (decay_factor(cert.beta, len(s), cert.T) - gamma) * V0 + gamma
        if not V1 <= bound + 1e-9 * max(1.0, V0):
            return False, f"step bound violated: {V1:.6e} > {bound:.6e} for |sigma|={len(s)}"
        done += 1
    return True, f"{done} certified draws within bound ({forced} forced-fallback draws excluded)"


def _sample_members(reg, count, rng):
    out = []
    while len(out) < count:
        X = rng.normal(size=(4 * count, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        keep = np.einsum("ij,jk,ik->i", X, reg.Q, X) >= 0.0
        out.extend(X[keep])
    return np.array(out[:count])


def _table_recheck_suite(prep_unpert, prep_pert, samples=1000):
    """Tabulated entries re-pass their per-region feasibility pointwise.

    Unperturbed entries certify strict certificate decay on the whole region,
    so each entry is rechecked on sampled member states.  Perturbed entries
    certify nonnegativity of the assembled affine-quadratic form, which is
    what gets rechecked here (with the multiplier recomputed from scratch);
    fallback rows inserted because no horizon certifies a region carry the
    synthesis-level guarantee instead and are rechecked against it.
    """
    rng = np.random.default_rng(4321)
    dp, cert, regions, table = prep_unpert.dp, prep_unpert.cert, prep_unpert.regions, prep_unpert.table
    rechecked = 0
    for reg, ties in zip(regions, table.psi):
        X = _sample_members(reg, samples, rng)
        for s in ties:
            Phi = horizon_transition(dp, s)
            bbar = decay_factor(cert.beta, len(s), cert.T)
            S = symmetrize(Phi.T @ cert.P @ Phi) - bbar * cert.P
            vals = np.einsum("ij,jk,ik->i", X, S, X)
            if not (vals <= 1e-9).all():
                return False, f"unperturbed entry {s} fails pointwise decay on region {reg.index}"
            rechecked += 1
    dp2, cert2, regions2, table2 = prep_pert.dp, prep_pert.cert, prep_pert.regions, prep_pert.table
    fallback = tuple(cert2.sigma_star)
    Phi_fb = horizon_transition(dp2, fallback)
    for reg, ties in zip(regions2, table2.psi):
        X = _sample_members(reg, samples, rng)
        for s in ties:
            Phi = horizon_transition(dp2, s)
            bbar = decay_factor(cert2.beta, len(s), cert2.T)
            chi_lin = cert2.chi[len(s)]
            eps = max_eps_feasible(cert2.P, cert2.gamma1, cert2.gamma2, Phi, bbar, chi_lin, reg.Q)
            if eps is None:
                if s != fallback:
                    return False, f"uncertified non-fallback entry {s} in region {reg.index}"
                # fallback insertion: the unregioned synthesis form must hold
                U = U_c_oracle(
                    cert2.P, cert2.gamma1, cert2.gamma2, Phi_fb,
                    decay_factor(cert2.beta, len(fallback), cert2.T),
                    cert2.chi[len(fallback)],
                )
            else:
                U = regioned_U_c(cert2.P, cert2.gamma1, cert2.gamma2, Phi, bbar, chi_lin, reg.Q, eps)
            lo = min(sym_eig_bounds(U)[0], cert2.gamma1 - cert2.gamma2)  # the corner is a block of its own
            if not lo >= -1e-9:
                return False, f"assembled form for entry {s} on region {reg.index} has min eig {lo:.3e}"
            W = rng.normal(size=(samples, 4))
            W *= (chi_lin * rng.uniform(0.0, 1.0, size=(samples, 1))) / np.linalg.norm(W, axis=1, keepdims=True)
            # the paper's matrix on (x, w, 1): U on (x, w) plus its constant corner gamma1 - gamma2
            Vv = np.hstack([X, W])
            forms = np.einsum("ij,jk,ik->i", Vv, U, Vv) + (cert2.gamma1 - cert2.gamma2)
            if not (forms >= -1e-9 * ((Vv * Vv).sum(axis=1) + 1.0)).all():
                return False, f"pointwise form negative for entry {s} on region {reg.index}"
            rechecked += 1
    return True, f"{rechecked} table entries rechecked on {samples} states each"


def _oracle_suite():
    """Matrix kernels against independent numeric references."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.normal(scale=1.5, size=(3, 3))
        got = zoh_pair(A, np.zeros((3, 1)), 1.0)[0]  # the exact hold's A_T = e^{A T}
        ref = taylor_expm(A)
        if not np.allclose(got, ref, rtol=1e-9, atol=1e-12):
            return False, "series exponential mismatch"
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        T = float(rng.uniform(0.05, 0.4))
        plant_B = DiscretePlant.from_plant(_plant_with(A, B), T).B_T
        ref = simpson_zoh_B(A, B, T)
        if not np.allclose(plant_B, ref, rtol=1e-6, atol=1e-10):
            return False, "held-input quadrature mismatch"
    for _ in range(20):
        F = rng.normal(size=(4, 4))
        F *= 0.8 / max(1e-9, spectral_radius(F))
        Q = np.eye(4)
        P = solve_discrete_lyapunov(F, 1.0, Q)
        resid = F.T @ P @ F - P + Q
        if not np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(Q, "fro"):
            return False, "discrete Lyapunov residual too large"
    return True, "series exponential, held-input quadrature, and Lyapunov residuals all within tolerance"


def _plant_with(A, B):
    from asynctrig.plant import PlantModel

    return PlantModel(A=A, B=B, K=np.zeros((1, 2)), blocks=(1, 1))


def test_criterion_7_property_suites(say, prepared_offline_unperturbed, prepared_offline_perturbed):
    ok_a, d_a = _decay_suite()
    ok_b, d_b = _step_inequality_suite()
    ok_c, d_c = _table_recheck_suite(prepared_offline_unperturbed[1], prepared_offline_perturbed[1])
    ok_d, d_d = _oracle_suite()
    ok = ok_a and ok_b and ok_c and ok_d
    say(7, ok, f"[decay] {d_a}; [step bound] {d_b}; [table recheck] {d_c}; [oracles] {d_d}")


def test_criterion_8_byte_identical_reruns(say, tmp_path):
    t0 = time.perf_counter()
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["preset", "online-unperturbed", "--seed", "154", "--out-dir", str(d1)])
    rc2 = main(["preset", "online-unperturbed", "--seed", "154", "--out-dir", str(d2)])
    dt = time.perf_counter() - t0
    b1 = (d1 / "trace.csv").read_bytes()
    b2 = (d2 / "trace.csv").read_bytes()
    same_dec = (d1 / "decisions.csv").read_bytes() == (d2 / "decisions.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and b1 == b2 and same_dec
    say(8, ok, f"rerun with seed 154 reproduced {len(b1)} trace bytes and the decision log exactly, {dt:.2f}s")
