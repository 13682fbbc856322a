"""sha256 of every file the four presets write, at fixed seeds, of each offline preset's table,
of each preset's certified numbers, and of a few partitions.

    python3 tools/preset_digests.py > digests.txt

Runs `asynctrig preset NAME --seed S --plots` for each preset and seed into
a temporary directory, importing the package from the checkout this script
lives in, and prints one `sha256  preset/seed/file` line per output file, in
a fixed order.  Then it prints the same lines, as `sha256  preset/sweep-S1,S2/file`,
for one `asynctrig preset NAME --sweep S1,S2,... --plots` run per entry of
SWEEPS: each seed's trace, decisions and plots, written on one `prepare`,
and the sweep's manifest.  Then it prints one `sha256  preset/table.json` line per
offline preset: the digest of its region table as `table_to_dict` JSON, then one
`sha256  preset/bench-cut/table.json` line for the benchmark's cut of it
(`perfbench/workloads.py::BENCH_OFFLINE`) and one
`sha256  preset/capped-3/table.json` line for its certificate on the three
capped cones of `make_partition(4, 3)`.
Then it prints one `sha256  preset/certificate-numbers` line per preset: the
digest of the raw float64 bytes of the certificate's P, then M and mu where
the certificate has them.  That line stays put when only the layout of
`certificate.json` changes.  Last it prints one `sha256  partition/D-N` line
per shape of PARTITIONS: the digest of what `asynctrig partition --dim D
--regions N` prints.  Nothing is written into the checkout.  Two checkouts
give byte-identical outputs, tables, certified numbers and partitions exactly
when a `diff` of their printed lines is empty.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from asynctrig.cli import main  # noqa: E402
from asynctrig.partition import make_partition  # noqa: E402
from asynctrig.presets import PRESET_NAMES, preset_config  # noqa: E402
from asynctrig.simulation import OFFLINE_MODES, certify, prepare  # noqa: E402
from asynctrig.triggers import TablePolicy, table_to_dict  # noqa: E402
from perfbench.workloads import BENCH_OFFLINE  # noqa: E402

SEEDS = (154, 1, 2, 3)
# (preset, seeds) of the --sweep runs, one prepare and a trace per seed: online-unperturbed's seeds
# break ties apart, so its traces differ on shared time axes; online-perturbed's never tie
SWEEPS = (("online-unperturbed", (1, 2, 3)), ("online-perturbed", (1, 2, 3)), ("offline-unperturbed", (1, 2)))
# (dim, regions): the offline presets' dim 4, the capped cones, and the directions of dims 3, 6 and 8
PARTITIONS = ((3, 7), (4, 3), (4, 15), (6, 40), (8, 30))


def _run_digests(tmp: Path, label: str, name: str, options: list) -> list:
    """`sha256  name/label/file` for every output of `asynctrig preset name ... --plots`, sorted."""
    out = tmp / name / label
    argv = ["preset", name, *options, "--plots", "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"asynctrig {' '.join(argv)} exited with {status}")
    paths = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(tmp).as_posix()}" for p in paths]


def preset_digests(presets, seeds) -> list:
    """`sha256  preset/seed/file` for every output of every run, sorted within a run."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in presets:
            for seed in seeds:
                lines += _run_digests(Path(tmp), str(seed), name, ["--seed", str(seed)])
    return lines


def sweep_digests(sweeps) -> list:
    """`sha256  preset/sweep-S1,S2,.../file` for every output of one `--sweep` run per (preset, seeds),
    sorted within a run: every seed's trace, decisions and plots on one prepare, and the manifest."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds in sweeps:
            seeds = ",".join(map(str, seeds))
            lines += _run_digests(Path(tmp), f"sweep-{seeds}", name, ["--sweep", seeds])
    return lines


def table_digests(presets) -> list:
    """`sha256  preset/table.json`, `preset/bench-cut/table.json` and `preset/capped-3/table.json`
    for every offline preset among presets: its region table, the benchmark's cut of it, and its
    certificate's table on make_partition(4, 3)."""
    lines = []
    for name in presets:
        if name in OFFLINE_MODES:
            config = preset_config(name)
            dp, codes, phis, star, cert = certify(config)
            # the preset's own table, as prepare builds it, and the capped one, on one transition stack
            full, capped = [TablePolicy(cert, phis, dp.m, make_partition(4, N), codes, star) for N in (config.N, 3)]
            cut = prepare(dataclasses.replace(config, **BENCH_OFFLINE[name])).table
            for table, label in ((full, ""), (cut, "bench-cut/"), (capped, "capped-3/")):
                text = json.dumps(table_to_dict(table), indent=2) + "\n"
                lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}/{label}table.json")
    return lines


def certificate_digests(presets) -> list:
    """`sha256  preset/certificate-numbers` over the raw float64 bytes of P, M and mu, where present."""
    lines = []
    for name in presets:
        cert = certify(preset_config(name))[-1]
        numbers = [getattr(cert, key) for key in ("P", "M", "mu") if hasattr(cert, key)]
        blob = b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in numbers)
        lines.append(f"{hashlib.sha256(blob).hexdigest()}  {name}/certificate-numbers")
    return lines


def partition_digests(shapes) -> list:
    """`sha256  partition/D-N` over the bytes `asynctrig partition --dim D --regions N` prints, per (D, N)."""
    lines = []
    for dim, count in shapes:
        argv = ["partition", "--dim", str(dim), "--regions", str(count)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"asynctrig {' '.join(argv)} exited with {status}")
        lines.append(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  partition/{dim}-{count}")
    return lines


if __name__ == "__main__":
    lines = preset_digests(PRESET_NAMES, SEEDS) + sweep_digests(SWEEPS)
    lines += table_digests(PRESET_NAMES) + certificate_digests(PRESET_NAMES)
    lines += partition_digests(PARTITIONS)
    print("\n".join(lines))
