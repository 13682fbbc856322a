import math
from pathlib import Path

import numpy as np
import pytest

from asynctrig.errors import ConfigError
from asynctrig.horizons import horizon_to_text
from asynctrig.presets import DEFAULT_SEED, DEFAULT_STEPS, PRESET_NAMES, PRESET_NOTES, preset_config
from asynctrig.simulation import prepare, simulate
from asynctrig.triggers import table_to_dict

README = Path(__file__).parent.parent / "README.md"


def _parse_readme_table():
    """The frozen-parameters table in the docs is the reference; parse it."""
    lines = README.read_text().splitlines()
    header = None
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells and cells[0] == "preset" and "sigma_star" in cells:
            header = cells
            continue
        if header and cells and cells[0] in PRESET_NAMES:
            rows[cells[0]] = dict(zip(header, cells))
    assert header is not None, "frozen-parameters table missing from README"
    return rows


def _num(cell: str) -> float:
    if cell.startswith("ln(10)/"):
        return math.log(10.0) / float(cell[len("ln(10)/"):])
    return float(cell)


def test_readme_table_matches_presets():
    rows = _parse_readme_table()
    assert set(rows) == set(PRESET_NAMES)
    for name, row in rows.items():
        cfg = preset_config(name)
        assert cfg.T == _num(row["T"])
        assert cfg.l_min == int(row["l_min"])
        assert cfg.l_max == int(row["l_max"])
        assert cfg.beta == pytest.approx(_num(row["beta"]), rel=1e-12, abs=0)
        assert cfg.gamma == _num(row["gamma"])
        assert cfg.gamma1 == _num(row["gamma1"])
        assert cfg.gamma2 == _num(row["gamma2"])
        assert cfg.N == int(row["N"])
        assert horizon_to_text(cfg.sigma_star) == row["sigma_star"]
        x0 = [float(v) for v in row["x0"].split(",")]
        np.testing.assert_array_equal(cfg.x0, x0 + x0)  # estimate starts at the state
        assert cfg.plant.w_max == _num(row["w_max"])


def test_presets_share_benchmark_plant():
    for name in PRESET_NAMES:
        plant = preset_config(name).plant
        np.testing.assert_array_equal(plant.A, [[0.0, 1.0], [-2.0, 3.0]])
        np.testing.assert_array_equal(plant.B, [[0.0], [1.0]])
        np.testing.assert_array_equal(plant.K, [[1.0, -4.0]])
        assert plant.blocks == (1, 1)
        if name.endswith("-perturbed"):
            np.testing.assert_array_equal(plant.D, [[1.0], [1.0]])
            assert plant.w_max == 1.0
        else:
            assert plant.w_max == 0.0


def test_preset_defaults_and_overrides():
    cfg = preset_config("online-unperturbed")
    assert cfg.seed == DEFAULT_SEED == 154
    assert cfg.total_steps == DEFAULT_STEPS == 100
    cfg = preset_config("online-unperturbed", seed=9, total_steps=60)
    assert cfg.seed == 9 and cfg.total_steps == 60


def test_preset_notes_cover_all_names():
    assert set(PRESET_NOTES) == set(PRESET_NAMES)
    for note in PRESET_NOTES.values():
        assert note


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("periodic")


# Recorded before the four mechanisms shared one policy interface; the
# offline entries equal the `@total_steps=100` entries of perfbench/reference.json.
PINNED_ACTIONS = {
    "online-unperturbed": (
        "02202120020210202012002001202120021200122000202102"
        "00210202022120201202102020201020022122022120202010"
        "20"
    ),
    "offline-unperturbed": (
        "20120202120220201221020202120220210202122021202002"
        "12022102022020120202120202122012022120200221200221"
        "20"
    ),
    "online-perturbed": (
        "00000000000020021210021210020021210021210021210021"
        "21002002121002121002121002121002002121002121002121"
    ),
    "offline-perturbed": (
        "12200000122001221221220012212200122012201221220012"
        "20012212201220001221220012201220122122001220012212"
        "2"
    ),
}
PINNED_TABLES = {
    "offline-unperturbed": [
        "020212 021202 021220 022120 120202 120220 202012 202102 202120 210202 212020",
        "020212 021202 022120 201202 202012 202102 210202",
        "020212 021202 022120 201202 202012 202102 202120 210202",
        "020212 021202 202012 202102 210202",
        "020212 021202 120202 120220 202012 202102 210202 212020",
        "020212 021202 021220 202012 202102 202120 210202 212020",
        "020212 021202 120202 201202 202012 202102 202120 210202 212020",
        "020212 021202 022120 202012 202102 210202",
        "020212 021202 021220 202012 202102 202120 210202 212020",
        "020212 021202 021220 022120 120202 202012 202102 202120 210202 212020",
        "020212 021202 202012 202102 210202",
        "202002",
        "020212 021202 022120 201202 202012 202102 202120 210202",
        "020212 021202 022120 202012 202102 210202 212020",
        "020212 021202 202012 202102 210202",
    ],
    "offline-perturbed": ["122"] * 15,
}


def test_preset_actions_and_tables_pinned(prepared_offline_unperturbed, prepared_offline_perturbed):
    """Seed-154 action strings of all four presets and both offline tables."""
    prepared = {
        "offline-unperturbed": prepared_offline_unperturbed[1],
        "offline-perturbed": prepared_offline_perturbed[1],
    }
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        prep = prepared.get(name) or prepare(cfg)
        actions = simulate(cfg, prep).actions
        assert horizon_to_text(actions) == PINNED_ACTIONS[name], name
        if name in PINNED_TABLES:
            texts = [" ".join(r["psi"]) for r in table_to_dict(prep.table)["regions"]]
            assert texts == PINNED_TABLES[name], name
