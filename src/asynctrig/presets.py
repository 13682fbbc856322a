"""Ready-made benchmark configurations, one per triggering mechanism.

All four share the same two-state plant with one sensor per state and a
stabilizing static gain; the perturbed pair adds a matched disturbance
channel driven by w(t) = sin(5 pi t).  Parameters are frozen so the shipped
defaults reproduce the documented utilization numbers exactly.
"""

import math

import numpy as np

from .errors import ConfigError
from .plant import PlantModel
from .simulation import MODES, SimConfig

DEFAULT_SEED = 154
DEFAULT_STEPS = 100

_A = [[0.0, 1.0], [-2.0, 3.0]]
_B = [[0.0], [1.0]]
_K = [[1.0, -4.0]]
_BLOCKS = (1, 1)


def _plant(perturbed: bool) -> PlantModel:
    if perturbed:
        return PlantModel(
            A=np.array(_A),
            B=np.array(_B),
            K=np.array(_K),
            blocks=_BLOCKS,
            D=np.array([[1.0], [1.0]]),
            w_max=1.0,
        )
    return PlantModel(A=np.array(_A), B=np.array(_B), K=np.array(_K), blocks=_BLOCKS)


PRESET_NAMES = MODES  # one preset per mode, named after it

PRESET_NOTES = {
    "online-unperturbed": "T=0.3, lengths 1..3, online test at every boundary",
    "offline-unperturbed": "T=0.205, lengths 1..6, 15 conic regions, precomputed table",
    "online-perturbed": "T=0.18, lengths 1..6, gamma=0.35, sine disturbance",
    "offline-perturbed": "T=0.205, lengths 3..6, 15 regions, gamma1=0.3 gamma2=0.1",
}


def preset_config(name: str, seed: int = DEFAULT_SEED, total_steps: int = DEFAULT_STEPS) -> SimConfig:
    if name == "online-unperturbed":
        return SimConfig(
            plant=_plant(False),
            T=0.3,
            l_min=1,
            l_max=3,
            mode=name,
            x0=np.array([5.0, -2.0]),
            beta=0.0,
            sigma_star=(1, 2),
            total_steps=total_steps,
            seed=seed,
        )
    if name == "offline-unperturbed":
        return SimConfig(
            plant=_plant(False),
            T=0.205,
            l_min=1,
            l_max=6,
            mode=name,
            x0=np.array([15.0, -1.5]),
            beta=0.0,
            N=15,
            sigma_star=(1, 2, 1, 2, 1, 2),
            total_steps=total_steps,
            seed=seed,
        )
    if name == "online-perturbed":
        # decay tuned so the fallback horizon contracts V by 10x
        return SimConfig(
            plant=_plant(True),
            T=0.18,
            l_min=1,
            l_max=6,
            mode=name,
            x0=np.array([5.0, -2.0]),
            beta=math.log(10.0) / (4 * 0.18),
            gamma=0.35,
            sigma_star=(2, 1, 2, 1),
            total_steps=total_steps,
            seed=seed,
        )
    if name == "offline-perturbed":
        return SimConfig(
            plant=_plant(True),
            T=0.205,
            l_min=3,
            l_max=6,
            mode=name,
            x0=np.array([15.0, -1.5]),
            beta=0.0,
            gamma1=0.3,
            gamma2=0.1,
            N=15,
            sigma_star=(1, 2, 2),
            total_steps=total_steps,
            seed=seed,
        )
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
