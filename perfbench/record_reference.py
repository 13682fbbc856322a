"""Record the reference outcomes the benchmark's correctness check compares against.

    python3 perfbench/record_reference.py

For every case of every workload, runs the reference input (the preset's x0
at seed 154, or the wide plant's x0 = 1) and stores the action sequence and,
for offline modes, the per-region optimal sets of the table.  Entries are
merged into perfbench/reference.json by case key.  Re-record only when a
change to the program is meant to change decisions, and say so.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from asynctrig.horizons import horizon_to_text  # noqa: E402
from asynctrig.simulation import prepare, simulate  # noqa: E402

REFERENCE = HERE / "reference.json"


def main() -> int:
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in workloads.WORKLOADS:
        for case in workloads.cases(workload):
            prep = prepare(case.config)
            trace = simulate(case.config, prep)
            entry = {"actions": horizon_to_text(trace.actions)}
            if prep[4] is not None:
                entry["table"] = check.table_texts(prep[4])
            recorded[case.key] = entry
            print(f"{case.key}: {len(trace.actions)} actions", flush=True)
    lines = [f" {json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}" for key in sorted(recorded)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
