"""sha256 of every file the four presets write, at fixed seeds.

    python3 tools/preset_digests.py > digests.txt

Runs `asynctrig preset NAME --seed S --plots` for each preset and seed into
a temporary directory, importing the package from the checkout this script
lives in, and prints one `sha256  preset/seed/file` line per output file, in
a fixed order.  Nothing is written into the checkout.  Two checkouts give
byte-identical outputs exactly when a `diff` of their printed lines is empty.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from asynctrig.cli import main  # noqa: E402
from asynctrig.presets import PRESET_NAMES  # noqa: E402

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


if __name__ == "__main__":
    print("\n".join(preset_digests(PRESET_NAMES, SEEDS)))
