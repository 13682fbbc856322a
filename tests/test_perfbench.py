import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asynctrig.horizons import horizon_to_text
from asynctrig.simulation import prepare, simulate

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


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["offline-tables", "online-loop", "wide-horizons"])
def test_reference_inputs_repeat_the_recorded_outcomes(workload):
    # the benchmark rejects a run whose reference input leaves perfbench/reference.json;
    # replaying every case here, wide-horizons included, names the case and the first difference
    workloads, check = _perfbench_module("workloads"), _perfbench_module("check")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for case in workloads.cases(workload):
        recorded = reference[case.key]
        prep = prepare(case.config)
        actions = horizon_to_text(simulate(case.config, prep).actions)  # one digit per step
        step = len(os.path.commonprefix([actions, recorded["actions"]]))
        assert actions == recorded["actions"], f"{case.key}: actions differ from step {step}"
        if "table" in recorded:
            table = check.table_texts(prep.table)
            region = next((r for r, (a, b) in enumerate(zip(table, recorded["table"])) if a != b), len(table))
            assert table == recorded["table"], f"{case.key}: table differs from region {region}"
