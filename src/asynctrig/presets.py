"""Ready-made benchmark configurations, one per triggering mechanism.

All four share the same two-state plant with one sensor per state and a
stabilizing static gain; the perturbed pair adds a matched disturbance
channel driven by w(t) = sin(5 pi t).  Parameters are frozen so the shipped
defaults reproduce the documented utilization numbers exactly.
"""

import math

from .errors import ConfigError
from .plant import PlantModel
from .simulation import MODES, PERTURBED_MODES, SimConfig

DEFAULT_SEED = 154
DEFAULT_STEPS = 100

PRESET_NAMES = MODES  # one preset per mode, named after it

PRESET_NOTES = {
    "online-unperturbed": "T=0.3, lengths 1..3, online test at every boundary",
    "offline-unperturbed": "T=0.205, lengths 1..6, 15 conic regions, precomputed table",
    "online-perturbed": "T=0.18, lengths 1..6, gamma=0.35, sine disturbance",
    "offline-perturbed": "T=0.205, lengths 3..6, 15 regions, gamma1=0.3 gamma2=0.1",
}

# each preset's own SimConfig fields; the rest keep their defaults
_PRESETS = {
    "online-unperturbed": dict(T=0.3, l_min=1, l_max=3, x0=[5.0, -2.0], sigma_star=(1, 2)),
    "offline-unperturbed": dict(T=0.205, l_min=1, l_max=6, x0=[15.0, -1.5], N=15, sigma_star=(1, 2, 1, 2, 1, 2)),
    "online-perturbed": dict(
        T=0.18,
        l_min=1,
        l_max=6,
        x0=[5.0, -2.0],
        # decay tuned so the fallback horizon contracts V by 10x
        beta=math.log(10.0) / (4 * 0.18),
        gamma=0.35,
        sigma_star=(2, 1, 2, 1),
    ),
    "offline-perturbed": dict(
        T=0.205, l_min=3, l_max=6, x0=[15.0, -1.5], gamma1=0.3, gamma2=0.1, N=15, sigma_star=(1, 2, 2)
    ),
}


def preset_config(name: str, seed: int = DEFAULT_SEED, total_steps: int = DEFAULT_STEPS) -> SimConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    disturbance = dict(D=[[1.0], [1.0]], w_max=1.0) if name in PERTURBED_MODES else {}
    plant = PlantModel(A=[[0.0, 1.0], [-2.0, 3.0]], B=[[0.0], [1.0]], K=[[1.0, -4.0]], blocks=(1, 1), **disturbance)
    return SimConfig(plant=plant, mode=name, seed=seed, total_steps=total_steps, **_PRESETS[name])
