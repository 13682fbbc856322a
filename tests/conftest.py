import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from asynctrig.presets import PRESET_NAMES, preset_config
from asynctrig.simulation import prepare, simulate


@pytest.fixture(scope="session")
def prepared_offline_unperturbed():
    """Offline-unperturbed preset pipeline, built once; returns build seconds too."""
    cfg = preset_config("offline-unperturbed")
    t0 = time.monotonic()
    prep = prepare(cfg)
    return cfg, prep, time.monotonic() - t0


@pytest.fixture(scope="session")
def prepared_offline_perturbed():
    cfg = preset_config("offline-perturbed")
    t0 = time.monotonic()
    prep = prepare(cfg)
    return cfg, prep, time.monotonic() - t0


@pytest.fixture(scope="session")
def preset_traces(prepared_offline_unperturbed, prepared_offline_perturbed):
    """Every preset at its default seed: name -> (config, preparation, trace)."""
    prepared = {
        "offline-unperturbed": prepared_offline_unperturbed[1],
        "offline-perturbed": prepared_offline_perturbed[1],
    }
    out = {}
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        prep = prepared.get(name) or prepare(cfg)
        out[name] = (cfg, prep, simulate(cfg, prep))
    return out
