"""sha256 of every file the four presets write, at fixed seeds, of each offline preset's table,
and of each preset's certified numbers.

    python3 tools/preset_digests.py > digests.txt

Runs `asynctrig preset NAME --seed S --plots` for each preset and seed into
a temporary directory, importing the package from the checkout this script
lives in, and prints one `sha256  preset/seed/file` line per output file, in
a fixed order.  Then it prints one `sha256  preset/table.json` line per
offline preset: the digest of its region table as `table_to_dict` JSON, then one
`sha256  preset/bench-cut/table.json` line for the benchmark's cut of it
(`perfbench/workloads.py::BENCH_OFFLINE`) and one
`sha256  preset/capped-3/table.json` line for its certificate on the three
capped cones of `make_partition(4, 3)`.
Last it prints one `sha256  preset/certificate-numbers` line per preset: the
digest of the raw float64 bytes of the certificate's P, then M and mu where
the certificate has them.  That line stays put when only the layout of
`certificate.json` changes.  Nothing is written into the checkout.  Two
checkouts give byte-identical outputs, tables and certified numbers exactly
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


def preset_digests(presets, seeds) -> list:
    """`sha256  preset/seed/file` for every output of every run, sorted within a run."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in presets:
            for seed in seeds:
                out = Path(tmp) / name / str(seed)
                argv = ["preset", name, "--seed", str(seed), "--plots", "--out-dir", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main(argv)
                if status != 0:
                    raise SystemExit(f"asynctrig {' '.join(argv)} exited with {status}")
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return lines


def table_digests(presets) -> list:
    """`sha256  preset/table.json`, `preset/bench-cut/table.json` and `preset/capped-3/table.json`
    for every offline preset among presets: its region table, the benchmark's cut of it, and its
    certificate's table on make_partition(4, 3)."""
    lines = []
    for name in presets:
        if name in OFFLINE_MODES:
            config = preset_config(name)
            dp, horizons, codes, phis, cert = certify(config)
            # the preset's own table, as prepare builds it, and the capped one, on one transition stack
            full, capped = [TablePolicy(cert, horizons, phis, dp.m, make_partition(4, N), codes) for N in (config.N, 3)]
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


if __name__ == "__main__":
    lines = preset_digests(PRESET_NAMES, SEEDS) + table_digests(PRESET_NAMES) + certificate_digests(PRESET_NAMES)
    print("\n".join(lines))
