import json

import numpy as np
import pytest

from asynctrig.certificates import region_forms
from asynctrig.cli import config_digest, config_from_dict, main
from asynctrig.errors import ConfigError
from asynctrig.horizons import avg_idle_metric, horizon_from_text
from asynctrig.simulation import certify
from asynctrig.svgplots import parse_polyline
from helpers import unfiltered_region_multipliers


def _config_dict(**overrides):
    base = {
        "plant": {"A": [[0.0, 1.0], [-2.0, 3.0]], "B": [[0.0], [1.0]], "K": [[1.0, -4.0]], "blocks": [1, 1]},
        "discretization": {"T": 0.3},
        "horizons": {"l_min": 1, "l_max": 3, "sigma_star": "12"},
        "mode": "online-unperturbed",
        "certificate": {"beta": 0.0},
        "simulation": {"x0": [5.0, -2.0], "seed": 154, "total_steps": 40},
    }
    base.update(overrides)
    return base


def test_horizons_prints_one_line_per_word(capsys):
    assert main(["horizons", "--m", "2", "--lmin", "1", "--lmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 39
    assert lines[0] == "0 1.0"
    for line in lines:
        text, metric = line.split()
        assert float(metric) == avg_idle_metric(horizon_from_text(text), 2)


def test_horizons_cap_exit_code():
    assert main(["horizons", "--m", "3", "--lmin", "1", "--lmax", "8", "--cap", "1000"]) == 4


def test_discretize_zero_dynamics(tmp_path, capsys):
    cfgd = _config_dict(plant={"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "K": [[1.0, -4.0]], "blocks": [1, 1]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["discretize", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(data["A_T"], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(data["B_T"], [[0.0], [0.3]], atol=1e-12)


def test_preset_listing(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("online-unperturbed", "offline-unperturbed", "online-perturbed", "offline-perturbed"):
        assert name in out
    assert main(["preset"]) == 0  # bare invocation lists too
    assert capsys.readouterr().out == out


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "154", "--out-dir", str(d1)]) == 0
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "154", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
    assert (d1 / "decisions.csv").read_bytes() == (d2 / "decisions.csv").read_bytes()
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["config_digest"] == m2["config_digest"]
    assert m1["metrics"] == m2["metrics"]
    assert m1["certificate"]["kind"] == "unperturbed"
    assert "regions" not in m1  # an online mode has no region table
    # outputs are recorded relative to --out-dir, so the manifests agree too
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


@pytest.mark.parametrize("name", ["offline-unperturbed", "offline-perturbed"])
def test_offline_manifest_lists_what_each_region_certified(tmp_path, capsys, request, name):
    # one entry per region, in region order: its number of certified
    # horizons, counted here by the unfiltered one-region pencil pass
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["preset", name, "--steps", "20", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert (runs[0] / "manifest.json").read_bytes() == (runs[1] / "manifest.json").read_bytes()
    config, prep, _ = request.getfixturevalue("prepared_" + name.replace("-", "_"))
    _, codes, phis, _, cert = certify(config)
    forms = region_forms(cert, codes, phis)
    counts = [int(np.count_nonzero(~np.isnan(unfiltered_region_multipliers(forms, reg.Q)))) for reg in prep.regions]
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    assert manifest["regions"] == [{"certified": n, "fallback_only": n == 0} for n in counts]
    assert len(counts) == 15 and min(counts) > 0
    assert "online_forms" not in manifest


@pytest.mark.parametrize("name, kept, total", [("online-unperturbed", 39, 39), ("online-perturbed", 120, 1092)])
def test_online_manifest_counts_the_forms_the_policy_keeps(tmp_path, capsys, name, kept, total):
    # the online-perturbed stack drops the forms no state admits; online-unperturbed has none
    assert main(["preset", name, "--steps", "20", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["online_forms"] == {"kept": kept, "total": total}
    assert "regions" not in manifest


@pytest.mark.parametrize("star", ["1212", "13"])
def test_sigma_star_outside_the_horizon_set_is_a_config_error(tmp_path, capsys, star):
    # "1212" is longer than l_max = 3; "13" reads sensor 3 of a two-sensor plant
    cfgd = _config_dict(horizons={"l_min": 1, "l_max": 3, "sigma_star": star})
    with pytest.raises(ConfigError, match="not in the enumerated set"):
        certify(config_from_dict(cfgd))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "not in the enumerated set" in capsys.readouterr().err


@pytest.mark.parametrize("star", ["\u0661\u0662", "1\u00b2"])
def test_sigma_star_of_non_ascii_digits_is_a_config_error(star):
    # Arabic-Indic "12" would parse to (1, 2); a superscript two would fail inside int()
    cfgd = _config_dict(horizons={"l_min": 1, "l_max": 3, "sigma_star": star})
    with pytest.raises(ConfigError, match=f"invalid horizon string {star!r}"):
        config_from_dict(cfgd)


def test_digest_tracks_semantic_changes(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "154", "--out-dir", str(d1)]) == 0
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "7", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["config_digest"] != m2["config_digest"]
    assert config_digest({"preset": "online-unperturbed", "seed": 154, "total_steps": 100}) == m1["config_digest"]


def test_config_with_a_preset_key_is_digested_whole(tmp_path, capsys):
    # a config file's own "preset" key must not turn its digest into a
    # preset digest: two configs that differ only in T must differ
    digests = []
    for T in (0.3, 0.25):
        path = tmp_path / f"cfg_{T}.json"
        path.write_text(json.dumps(_config_dict(preset="mine", discretization={"T": T})))
        out = tmp_path / f"out_{T}"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
    capsys.readouterr()
    assert digests[0] != digests[1]
    # without that key the digest is the one the file has always had
    cfg = _config_dict()
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert manifest["config_digest"] == config_digest(cfg)


def test_env_seed_and_flag_precedence(tmp_path, capsys, monkeypatch):
    denv, dflag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("ASYNCTRIG_SEED", "7")
    assert main(["simulate", "--preset", "online-unperturbed", "--out-dir", str(denv)]) == 0
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "154", "--out-dir", str(dflag)]) == 0
    capsys.readouterr()
    menv = json.loads((denv / "manifest.json").read_text())
    mflag = json.loads((dflag / "manifest.json").read_text())
    assert menv["config_digest"] == config_digest({"preset": "online-unperturbed", "seed": 7, "total_steps": 100})
    assert mflag["config_digest"] == config_digest({"preset": "online-unperturbed", "seed": 154, "total_steps": 100})
    monkeypatch.setenv("ASYNCTRIG_SEED", "not-a-number")
    assert main(["simulate", "--preset", "online-unperturbed", "--out-dir", str(tmp_path / "bad")]) == 2


@pytest.mark.parametrize("cmd", ["discretize", "synthesize", "partition"])
def test_seedless_subcommands_neither_take_nor_read_a_seed(tmp_path, capsys, monkeypatch, cmd):
    # nothing these write depends on the tie-break seed, so a malformed
    # ASYNCTRIG_SEED cannot fail them, and they offer no --seed
    monkeypatch.setenv("ASYNCTRIG_SEED", "abc")
    argv = [cmd, "--preset", "offline-unperturbed", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_sweep_writes_one_trace_per_seed(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["simulate", "--preset", "online-unperturbed", "--sweep", "154,7", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert (out / "trace_154.csv").exists() and (out / "trace_7.csv").exists()
    assert (out / "decisions_154.csv").exists() and (out / "decisions_7.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["metrics"].keys()) == {"154", "7"}


def test_sweep_rejects_a_repeated_seed(tmp_path, capsys):
    # a repeated seed would run twice, list its files twice in the manifest and enter the digest twice
    out = tmp_path / "sweep"
    assert main(["preset", "online-unperturbed", "--steps", "50", "--sweep", "1,1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--sweep repeats a seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**63, 2**63 + 1, -(2**63) - 1, 10**30])
def test_every_seed_source_rejects_a_seed_the_draw_cannot_key(tmp_path, capsys, monkeypatch, seed):
    # numpy's Philox key=[seed, step] rounds a seed of 2**63 or more through float64,
    # so 2**63 and 2**63 + 1 would share every draw
    monkeypatch.delenv("ASYNCTRIG_SEED", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_dict(simulation={"x0": [5.0, -2.0], "seed": seed, "total_steps": 40})))
    out = tmp_path / "out"
    preset = ["preset", "online-unperturbed", "--steps", "40", "--out-dir", str(out)]
    runs = [
        (["simulate", "--config", str(path), "--out-dir", str(out)], None),
        (preset + ["--seed", str(seed)], None),
        (preset, str(seed)),
        (preset + ["--sweep", f"1,{seed}"], None),
    ]
    for argv, env in runs:
        if env is not None:
            monkeypatch.setenv("ASYNCTRIG_SEED", env)
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "seed must lie in [-2**63, 2**63)" in err and "Traceback" not in err
        assert not out.exists()
        monkeypatch.delenv("ASYNCTRIG_SEED", raising=False)


def test_the_seed_range_ends_are_accepted(tmp_path, capsys):
    out = tmp_path / "ends"
    argv = ["preset", "online-unperturbed", "--steps", "40", f"--sweep={-(2**63)},{2**63 - 1}", "--out-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / f"trace_{-(2**63)}.csv").exists() and (out / f"trace_{2**63 - 1}.csv").exists()


def test_a_rerun_into_a_used_directory_writes_the_bytes_of_a_fresh_one(tmp_path, capsys):
    # the longer run's files are all longer than the shorter run's, so each must be cut, not just overwritten
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    argv = ["preset", "online-perturbed", "--plots", "--out-dir"]
    assert main(argv + [str(used), "--steps", "400"]) == 0
    assert main(argv + [str(used), "--steps", "60"]) == 0
    assert main(argv + [str(fresh), "--steps", "60"]) == 0
    capsys.readouterr()
    names = [p.relative_to(fresh) for p in sorted(fresh.rglob("*")) if p.is_file()]
    assert [str(n) for n in names] == [
        "certificate.json", "decisions.csv", "manifest.json",
        "plots/lyapunov.svg", "plots/schedule.svg", "plots/states.svg", "trace.csv",
    ]
    assert [p.relative_to(used) for p in sorted(used.rglob("*")) if p.is_file()] == names
    for name in names:
        assert (used / name).read_bytes() == (fresh / name).read_bytes(), name


def test_an_output_path_that_is_a_directory_is_a_configuration_error(tmp_path, capsys):
    assert main(["discretize", "--preset", "online-unperturbed", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_report_renders_and_matches_csv(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--preset", "online-unperturbed", "--seed", "154", "--out-dir", str(run)]) == 0
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", "--trace", str(run / "trace.csv"), "--m", "2", "--out-dir", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "utilization_reduction" in out
    svg = (rep / "states.svg").read_text()
    xs, ys = parse_polyline(svg, "x_1")
    rows = (run / "trace.csv").read_text().splitlines()[1:]
    col = np.array([float(r.split(",")[2]) for r in rows])
    np.testing.assert_allclose(ys, col, atol=1e-9)
    assert (rep / "lyapunov.svg").exists() and (rep / "schedule.svg").exists()


@pytest.mark.parametrize("name", ["online-unperturbed", "offline-perturbed"])
def test_report_counts_equal_the_run_and_it_prints_no_final_V(tmp_path, capsys, name):
    # the CSV's last V is the one before the last step, so report cannot know the run's final V
    run, rep = tmp_path / "run", tmp_path / "rep"
    assert main(["preset", name, "--out-dir", str(run)]) == 0
    ran = capsys.readouterr().out.splitlines()
    assert main(["report", "--trace", str(run / "trace.csv"), "--m", "2", "--out-dir", str(rep)]) == 0
    reported = capsys.readouterr().out.splitlines()
    counts = ("steps ", "readings ", "utilization_reduction ")
    ran_counts, reported_counts = ([line for line in out if line.startswith(counts)] for out in (ran, reported))
    assert reported_counts == ran_counts and len(ran_counts) == 3
    assert any(line.startswith("final_V ") for line in ran)
    assert not any(line.startswith("final_V") for line in reported)


@pytest.mark.parametrize("m", ["1", "-2", "0"])
def test_report_rejects_a_sensor_count_the_trace_contradicts(tmp_path, capsys, m):
    # the trace reads sensor 2, so fewer than 2 sensors would misstate its reduction
    run, rep = tmp_path / "run", tmp_path / "rep"
    assert main(["simulate", "--preset", "online-unperturbed", "--out-dir", str(run)]) == 0
    capsys.readouterr()
    assert main(["report", "--trace", str(run / "trace.csv"), "--m", m, "--out-dir", str(rep)]) == 2
    assert f"--m must be at least 2, the largest action in the trace and 1, got {m}" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("name", ["online-perturbed", "offline-unperturbed"])
def test_report_rerenders_the_preset_plots(tmp_path, capsys, name):
    # the trace CSV holds every number the views need, so report redraws them byte for byte
    run, rep = tmp_path / "run", tmp_path / "rep"
    assert main(["preset", name, "--plots", "--out-dir", str(run)]) == 0
    mu = json.loads((run / "manifest.json").read_text())["metrics"].get("mu", 0.0)
    argv = ["report", "--trace", str(run / "trace.csv"), "--mu", repr(mu), "--out-dir", str(rep)]
    assert main(argv) == 0
    capsys.readouterr()
    for view in ("states.svg", "lyapunov.svg", "schedule.svg"):
        assert (rep / view).read_bytes() == (run / "plots" / view).read_bytes(), view


def test_synthesize_and_partition_json(tmp_path, capsys):
    assert main(["synthesize", "--preset", "online-unperturbed"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["kind"] == "unperturbed"
    assert np.array(cert["P"]).shape == (4, 4)
    assert main(["partition", "--dim", "4", "--regions", "15"]) == 0
    part = json.loads(capsys.readouterr().out)
    assert part["count"] == 15 and part["dim"] == 4
    out = tmp_path / "part.json"
    assert main(["partition", "--dim", "4", "--regions", "15", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["count"] == 15
    assert main(["partition", "--dim", "8", "--regions", "15"]) == 0  # beyond the first six Halton bases
    assert json.loads(capsys.readouterr().out)["dim"] == 8


def test_config_file_simulation(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_dict()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mode online-unperturbed seed 154" in stdout
    assert (out / "trace.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["preset"] is None
    assert manifest["metrics"]["steps"] >= 40


def test_exit_codes_for_bad_configuration(tmp_path, capsys):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 2  # no source given
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["discretize", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"plant": {"A": [[0.0]], "B": [[1.0]], "K": [[1.0]], "blocks": [1]}}))
    assert main(["discretize", "--config", str(missing)]) == 2
    assert main(["partition"]) == 2  # neither --dim/--regions nor a config
    both = tmp_path / "cfg.json"
    both.write_text(json.dumps(_config_dict()))
    assert main(["simulate", "--config", str(both), "--preset", "online-unperturbed", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("section, value", [("simulation", None), ("certificate", [1, 2]), ("plant", None), ("horizons", "x")])
def test_a_section_that_is_not_an_object_is_a_configuration_error(tmp_path, capsys, section, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_config_dict(), section: value}))
    assert main(["synthesize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config section {section!r} must be an object" in err
    assert "Traceback" not in err


def test_a_null_disturbance_is_no_disturbance(tmp_path, capsys):
    cfgd = _config_dict()
    cfgd["simulation"]["disturbance"] = None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["synthesize", "--config", str(path)]) == 0
    capsys.readouterr()


def test_exit_code_infeasible(tmp_path, capsys):
    cfgd = _config_dict(
        plant={
            "A": [[0.0, 1.0], [-2.0, 3.0]], "B": [[0.0], [1.0]], "K": [[1.0, -4.0]],
            "blocks": [1, 1], "D": [[1.0], [1.0]], "w_max": 1.0,
        },
        discretization={"T": 0.18},
        horizons={"l_min": 1, "l_max": 3, "sigma_star": "21"},
        mode="online-perturbed",
        certificate={"beta": 3.19, "gamma": 0.001},  # gamma below the horizon decay factor
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["synthesize", "--config", str(path)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_x0_is_a_configuration_error(tmp_path, capsys, value):
    # json reads NaN and Infinity; a run from such a state would write a trace of NaNs
    cfgd = _config_dict()
    cfgd["simulation"]["x0"] = [value, -2.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "x0 entries must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_gamma2_above_gamma1_is_a_configuration_error(tmp_path, capsys):
    # the corner gamma1 - gamma2 of the offline perturbed matrix depends on no
    # scale, so no certificate exists for any P: the rates are misconfigured
    cfgd = _config_dict(
        plant={**_config_dict()["plant"], "D": [[1.0], [1.0]], "w_max": 1.0},
        discretization={"T": 0.205},
        horizons={"l_min": 3, "l_max": 4, "sigma_star": "122"},
        mode="offline-perturbed",
        certificate={"beta": 0.0, "gamma1": 0.1, "gamma2": 0.3},
        partition={"N": 15},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["synthesize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "gamma2 must not exceed gamma1" in err
    cfgd["certificate"] = {"beta": 0.0, "gamma1": 0.3, "gamma2": 0.1}
    path.write_text(json.dumps(cfgd))
    assert main(["synthesize", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "perturbed-offline"


@pytest.mark.parametrize("section, key, value", [
    ("horizons", "l_max", 6.9),
    ("simulation", "total_steps", 40.7),
    ("simulation", "seed", 154.5),
    ("simulation", "seed", True),
    ("horizons", "cap", "1000"),
    ("discretization", "substeps_per_T", float("inf")),
    ("partition", "N", float("nan")),
])
def test_an_integer_field_that_is_no_whole_number_is_a_configuration_error(tmp_path, capsys, section, key, value):
    # int() would truncate 6.9 to 6 while config_digest hashes 6.9: the run would not be the one recorded
    cfgd = _config_dict()
    cfgd[section] = {**cfgd.get(section, {}), key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a whole number, got {json.dumps(value)}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("discretization", "T", True),
    ("discretization", "T", "0.1"),
    ("discretization", "T", float("nan")),
    ("discretization", "T", float("inf")),
    ("certificate", "beta", "0.5"),
    ("certificate", "beta", float("-inf")),
    ("certificate", "beta", float("nan")),
    ("certificate", "gamma", None),
    ("certificate", "gamma1", [0.3]),
    pytest.param("certificate", "gamma2", 10**400, id="certificate-gamma2-past-float-range"),
    ("plant", "w_max", "1.0"),
])
def test_a_real_field_that_is_no_finite_number_is_a_configuration_error(tmp_path, capsys, section, key, value):
    # float() would read true as 1.0 and "0.1" as 0.1, and a NaN T failed only once --out-dir existed
    cfgd = _config_dict()
    cfgd[section] = {**cfgd.get(section, {}), key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a finite number, got {json.dumps(value)}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_disturbance_multiple_that_is_no_finite_number_is_a_configuration_error():
    cfgd = _config_dict()
    cfgd["simulation"]["disturbance"] = {"kind": "sine", "pi_multiple": "5"}
    with pytest.raises(ConfigError, match='pi_multiple must be a finite number, got "5"'):
        config_from_dict(cfgd)


def test_real_fields_read_whole_numbers_as_floats():
    cfgd = _config_dict(discretization={"T": 1}, certificate={"beta": 0, "gamma": 2, "gamma1": 0.5, "gamma2": 0})
    cfg = config_from_dict(cfgd)
    assert (cfg.T, cfg.beta, cfg.gamma, cfg.gamma1, cfg.gamma2) == (1.0, 0.0, 2.0, 0.5, 0.0)
    assert all(type(v) is float for v in (cfg.T, cfg.beta, cfg.gamma, cfg.gamma1, cfg.gamma2, cfg.plant.w_max))


def test_a_fractional_sensor_block_is_a_configuration_error(tmp_path, capsys):
    cfgd = _config_dict()
    cfgd["plant"]["blocks"] = [1.5, 0.5]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    assert main(["discretize", "--config", str(path)]) == 2
    assert "blocks must be a whole number, got 1.5" in capsys.readouterr().err


def test_whole_floats_read_as_integers():
    cfgd = _config_dict(horizons={"l_min": 1.0, "l_max": 3.0, "sigma_star": "12"})
    cfgd["simulation"]["seed"] = 7.0
    cfg = config_from_dict(cfgd)
    assert (cfg.l_min, cfg.l_max, cfg.seed) == (1, 3, 7)
    assert all(type(v) is int for v in (cfg.l_min, cfg.l_max, cfg.seed))


def test_zero_substeps_is_a_configuration_error_before_any_output(tmp_path, capsys):
    # perturbed modes integrate the disturbance on substeps_per_T substeps; the
    # check runs with the configuration's, so no --out-dir is left behind
    cfgd = _config_dict(
        plant={**_config_dict()["plant"], "D": [[1.0], [1.0]], "w_max": 1.0},
        discretization={"T": 0.18, "substeps_per_T": 0},
        horizons={"l_min": 1, "l_max": 6, "sigma_star": "2121"},
        mode="online-perturbed",
        certificate={"beta": 3.198, "gamma": 0.35},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfgd))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "substeps_per_T must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode, certificate, extra", [
    ("online-perturbed", {"beta": 3.19, "gamma": 0.35}, {}),
    ("offline-perturbed", {"beta": 0.0, "gamma1": 0.3, "gamma2": 0.1}, {"partition": {"N": 15}}),
])
def test_a_zero_disturbance_matrix_is_a_configuration_error(tmp_path, capsys, mode, certificate, extra):
    # D = 0 with w_max > 0 makes every disturbance aggregate chi zero, which
    # the perturbed syntheses divide by
    plant = {**_config_dict()["plant"], "D": [[0.0], [0.0]], "w_max": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_dict(plant=plant, mode=mode, certificate=certificate, **extra)))
    assert main(["synthesize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "a nonzero D" in err
    assert "Traceback" not in err


def test_preset_run_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ASYNCTRIG_SEED", raising=False)
    out = tmp_path / "run"
    argv = ["preset", "online-unperturbed", "--seed", "3", "--steps", "40", "--sweep", "154,7", "--out-dir", str(out)]
    assert main(argv) == 0
    assert "preset online-unperturbed seed 7" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["metrics"]) == {"154", "7"}
    assert 40 <= manifest["metrics"]["7"]["steps"] < 100  # the run ends with the horizon that crosses --steps
    semantic = {"preset": "online-unperturbed", "seed": 3, "total_steps": 40, "sweep": [154, 7]}
    assert manifest["config_digest"] == config_digest(semantic)
    assert sorted(p.name for p in out.iterdir()) == [
        "certificate.json", "decisions_154.csv", "decisions_7.csv", "manifest.json", "trace_154.csv", "trace_7.csv",
    ]


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_steps_below_l_max_is_a_configuration_error(tmp_path, capsys, steps):
    # --steps meets the same validation as total_steps in a configuration file (l_max = 3 here)
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "online-unperturbed", "--steps", steps, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "total_steps must be at least l_max" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_digest_names_the_swept_seeds(tmp_path, capsys):
    digests = []
    for sweep in ("1,2", "3,4"):
        out = tmp_path / sweep.replace(",", "_")
        assert main(["preset", "online-unperturbed", "--sweep", sweep, "--out-dir", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
    capsys.readouterr()
    assert digests[0] != digests[1]
    single = tmp_path / "single"
    assert main(["preset", "online-unperturbed", "--seed", "1", "--out-dir", str(single)]) == 0
    capsys.readouterr()
    digest = json.loads((single / "manifest.json").read_text())["config_digest"]
    assert digest == config_digest({"preset": "online-unperturbed", "seed": 1, "total_steps": 100})
