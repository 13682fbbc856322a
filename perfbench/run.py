"""asynctrig benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload online-loop --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  A run repeats the workload's pass until `--seconds` have elapsed.
A pass prepares every configuration of the workload, closes the loop from
the reference input and from initial states drawn from `--seed`, and writes
each loop's trace.csv, decisions.csv and SVG plots under perfbench/out/.
One call at a time, in this process, with BLAS pinned to one thread: on
a shared two-core machine OpenBLAS's spinning workers made the per-sample
matrix exponentials of the disturbance bound ten times slower under load.
The correctness check runs after each pass, outside the timed regions.
Times are scaled by machine-speed probes (speed.py); raw medians are
printed beside them.

With `--trace 0` the last line holds the end-to-end metrics: medians over
the passes for times, and all decisions pooled for the decision percentiles.
With `--trace 1` the passes alternate untraced and traced; the last line
holds the per-layer metrics of the traced passes, and the spans go to
perfbench/out/<workload>/spans.csv.  Every count must repeat exactly across
the passes of one run, or the run is reported incorrect.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(numpy),
        "commit": commit_hash(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def blas_threads(numpy):
    """OpenBLAS's own thread count when numpy bundles it, else the environment's setting."""
    import ctypes

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return None


def commit_hash():
    """HEAD of the checkout's git directory, read from its files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "asynctrig").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asynctrig" / "__init__.py").is_file():
        print(f"perfbench: no asynctrig package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS, so before any import of it
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    import passes

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    cases = workloads.cases(args.workload)
    out_dir = OUT / args.workload
    repeats = workloads.SETUP_REPEATS[args.workload]
    result = passes.run(cases, args.seed, args.seconds, bool(args.trace), out_dir, reference, repeats)
    print(json.dumps({"machine": machine_record(), "workload": args.workload, "seed": args.seed}))
    for line in result.notes:
        print(line)
    metrics = result.layer_metrics if args.trace else result.end_to_end
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
