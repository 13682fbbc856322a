import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["offline-tables", "online-loop"])
def test_benchmark_harness_runs_on_the_package(workload):
    # perfbench/ is frozen between benchmark changes, and it reaches into the
    # package by name (simulation.offline_select, offline_perturbed_select)
    # and by Prepared position; a short traced run shows a removal it needs
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
