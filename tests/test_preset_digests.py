import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from asynctrig.certificates import certificate_from_dict
from asynctrig.cli import main
from asynctrig.partition import make_partition
from asynctrig.presets import preset_config
from asynctrig.simulation import certify, prepare
from asynctrig.triggers import TablePolicy, table_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _preset_digests():
    spec = importlib.util.spec_from_file_location("preset_digests", ROOT / "tools" / "preset_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_preset_digests_hash_every_output_of_a_run(tmp_path, monkeypatch):
    # run from an empty directory: the tool must write nothing where it runs
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    lines = _preset_digests().preset_digests(["online-unperturbed"], [154])
    assert list(work.iterdir()) == []
    out = tmp_path / "out"
    assert main(["preset", "online-unperturbed", "--seed", "154", "--plots", "--out-dir", str(out)]) == 0
    expected = [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  online-unperturbed/154/{p.relative_to(out).as_posix()}"
        for p in sorted(p for p in out.rglob("*") if p.is_file())
    ]
    assert len(expected) == 7  # trace, decisions, certificate, manifest and three plots
    assert lines == expected


def test_sweep_digests_hash_every_output_of_a_sweep(tmp_path, monkeypatch):
    # one prepare, then each seed's trace, decisions and plots: the writers' warm time-axis path
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    lines = _preset_digests().sweep_digests([("online-unperturbed", (2, 3))])
    assert list(work.iterdir()) == []
    out = tmp_path / "out"
    assert main(["preset", "online-unperturbed", "--sweep", "2,3", "--plots", "--out-dir", str(out)]) == 0
    expected = [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  online-unperturbed/sweep-2,3/{p.relative_to(out).as_posix()}"
        for p in sorted(p for p in out.rglob("*") if p.is_file())
    ]
    assert len(expected) == 12  # certificate and manifest, and per seed a trace, decisions and three plots
    assert lines == expected


def _table_line(table, label: str) -> str:
    text = json.dumps(table_to_dict(table), indent=2) + "\n"
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {label}"


def test_table_digests_hash_each_offline_table():
    # the preset's table, the benchmark's cut of it and its certificate on
    # the capped cones, the tables the benchmark and the capped-cone tests build
    lines = _preset_digests().table_digests(["online-unperturbed", "offline-perturbed"])
    config = preset_config("offline-perturbed")
    prep = prepare(config)
    cut = prepare(dataclasses.replace(config, l_max=4))
    dp, codes, phis, star, cert = certify(config)
    capped = TablePolicy(cert, phis, dp.m, make_partition(4, 3), codes, star)
    assert lines == [
        _table_line(prep.table, "offline-perturbed/table.json"),
        _table_line(cut.table, "offline-perturbed/bench-cut/table.json"),
        _table_line(capped, "offline-perturbed/capped-3/table.json"),
    ]


def test_certificate_digests_hash_the_certified_numbers(tmp_path, capsys):
    # the digest of P, M and mu as certificate.json holds them: its layout may change, its numbers not
    names = ["online-unperturbed", "online-perturbed"]
    lines = _preset_digests().certificate_digests(names)
    expected = []
    for name in names:
        out = tmp_path / name
        assert main(["preset", name, "--steps", "6", "--out-dir", str(out)]) == 0
        cert = certificate_from_dict(json.loads((out / "certificate.json").read_text()))
        numbers = [cert.P] + ([cert.M, np.float64(cert.mu)] if name == "online-perturbed" else [])
        digest = hashlib.sha256(b"".join(v.tobytes() for v in numbers)).hexdigest()
        expected.append(f"{digest}  {name}/certificate-numbers")
    capsys.readouterr()
    assert lines == expected


def test_partition_digests_hash_what_the_partition_command_writes(tmp_path, capsys):
    # the bytes `asynctrig partition` prints are the bytes it writes with --out
    shapes = [(3, 7), (4, 3)]
    lines = _preset_digests().partition_digests(shapes)
    expected = []
    for dim, count in shapes:
        out = tmp_path / f"{dim}-{count}.json"
        assert main(["partition", "--dim", str(dim), "--regions", str(count), "--out", str(out)]) == 0
        expected.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  partition/{dim}-{count}")
    capsys.readouterr()
    assert lines == expected
