"""The benchmark's workloads: which configurations run, and their inputs.

A workload is a list of cases.  Each case is one configuration that is
prepared once per pass and then closed-looped from generated initial states
plus, where one is recorded, a reference input.  Only the generated configs
and states reach the program; every random draw comes from the seed.
"""

import dataclasses
import math

import numpy as np

from asynctrig.errors import ConfigError, InfeasibleError
from asynctrig.plant import DiscretePlant, PlantModel
from asynctrig.presets import DEFAULT_SEED, preset_config
from asynctrig.simulation import SimConfig, prepare

LOG10_V0 = (0.0, 4.0)  # eta0' P eta0 is log-uniform over [1, 1e4]
REFERENCE_SEED = DEFAULT_SEED

# The shipped offline presets (lengths 1..6 and 3..6) take about two minutes
# per pass to tabulate, more than one run may take.  The benchmark keeps
# their plants, periods, rates and 15-region partition and cuts the lengths
# to at most 4; the unperturbed fallback (1,2,1,2,1,2) becomes (1,2,1,2).
BENCH_OFFLINE = {
    "offline-unperturbed": {"l_max": 4, "sigma_star": (1, 2, 1, 2)},
    "offline-perturbed": {"l_max": 4},
}

# wide-horizons draws its plant from this fixed seed, not the run seed: the
# plant sets the decisions per loop, which would otherwise move the timings.
# Its loops are short and many because a decision costs ~50 ms whatever the
# state, while the number of decisions a loop needs varies from state to state.
WIDE_PLANT_SEED = 2
WIDE_LENGTHS = (1, 7)


@dataclasses.dataclass(frozen=True)
class Case:
    key: str  # names the configuration in reference.json
    config: SimConfig
    states: int  # generated initial states per pass


def _preset_case(name: str, states: int, **changes) -> Case:
    config = dataclasses.replace(preset_config(name, seed=REFERENCE_SEED), **changes)
    key = name + "@" + ",".join(f"{k}={v}" for k, v in sorted(changes.items()))
    return Case(key=key, config=config, states=states)


def _schur_stabilizable(rng, n: int):
    """One draw of the rejection rule: random (A, B, T), then up to 60 gains."""
    A = rng.normal(scale=1.0, size=(n, n))
    B = rng.normal(scale=1.0, size=(n, 1))
    T = float(rng.uniform(0.05, 0.3))
    for _ in range(60):
        K = rng.normal(scale=1.5, size=(1, n))
        plant = PlantModel(A=A, B=B, K=K, blocks=(1,) * n)
        dp = DiscretePlant.from_plant(plant, T)
        if np.max(np.abs(np.linalg.eigvals(dp.A_T + dp.BK_T))) < 0.9:
            return plant, T
    return None


def wide_config(steps: int) -> SimConfig:
    """Online-unperturbed on a random 3-state, 3-sensor plant, redrawn until it certifies."""
    rng = np.random.default_rng(WIDE_PLANT_SEED)
    while True:
        draw = _schur_stabilizable(rng, 3)
        if draw is None:
            continue
        plant, T = draw
        config = SimConfig(
            plant=plant,
            T=T,
            l_min=WIDE_LENGTHS[0],
            l_max=WIDE_LENGTHS[1],
            mode="online-unperturbed",
            x0=np.ones(3),
            total_steps=steps,
            seed=REFERENCE_SEED,
        )
        try:
            prepare(config)
        except (ConfigError, InfeasibleError):
            continue
        return config


def cases(workload: str) -> list:
    if workload == "offline-tables":
        return [
            _preset_case(name, 24, total_steps=100, **BENCH_OFFLINE[name])
            for name in ("offline-unperturbed", "offline-perturbed")
        ]
    if workload == "online-loop":
        return [
            _preset_case("online-unperturbed", 16, total_steps=200),
            _preset_case("online-perturbed", 8, total_steps=200),
        ]
    if workload == "wide-horizons":
        key = f"wide-horizons@plant_seed={WIDE_PLANT_SEED},total_steps=15"
        return [Case(key=key, config=wide_config(15), states=90)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("offline-tables", "online-loop", "wide-horizons")

# prepare runs this many times in each untraced pass and the pass counts the
# median: a lone 8 s table build moved setup_s by 11 % from run to run
SETUP_REPEATS = {"offline-tables": 2, "online-loop": 5, "wide-horizons": 3}


def initial_states(rng, P, count: int) -> list:
    """(eta0, tie-break seed) pairs: uniform directions, log-uniform V0 = eta0' P eta0."""
    out = []
    for _ in range(count):
        d = rng.normal(size=P.shape[0])
        d /= np.linalg.norm(d)
        V0 = 10.0 ** rng.uniform(*LOG10_V0)
        out.append((d * math.sqrt(V0 / float(d @ P @ d)), int(rng.integers(2**31 - 1))))
    return out


def loop_inputs(case: Case, P, rng) -> list:
    """The case's configs for one pass: the reference input first, then generated states."""
    ref = [(case.config, True)]
    gen = [
        (dataclasses.replace(case.config, x0=eta0, seed=seed), False)
        for eta0, seed in initial_states(rng, P, case.states)
    ]
    return ref + gen
