import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from asynctrig.horizons import horizon_to_text
from asynctrig.simulation import prepare, simulate
from helpers import ROOT, perfbench_module


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


@pytest.mark.parametrize("workload", ["offline-tables", "online-loop", "wide-horizons"])
def test_reference_inputs_repeat_the_recorded_outcomes(workload):
    # the benchmark rejects a run whose reference input leaves perfbench/reference.json;
    # replaying every case here, wide-horizons included, names the case and the first difference
    workloads, check = perfbench_module("workloads"), perfbench_module("check")
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


# span names perfbench/tracer.py hooks or sums that name nothing in the package:
# the region tests, selects, table builders and policy constructors that the one
# policy interface and the batched region test replaced.  Their metrics read 0.
# Take each name out here as the tracer is mended; none may join them
STALE_TRACER_NAMES = {
    "partition.sprocedure_feasible",
    "certificates.max_eps_feasible",
    "triggers.OnlineUnperturbedPolicy.select",
    "triggers.OnlinePerturbedPolicy.select",
    "triggers.offline_select",
    "triggers.offline_perturbed_select",
    "triggers.build_offline_table_unperturbed",
    "triggers.offline_perturbed_machinery",
    "triggers.OnlineUnperturbedPolicy.__init__",
    "triggers.OnlinePerturbedPolicy.__init__",
}


def _tracer_span_names(tracer) -> set:
    """Every span name the tracer names: its tables, and each name `layer_metrics` picks, totals or counts."""
    names = {*tracer.REGION_TESTS, *tracer.SELECTS, tracer.INTEGRATE, tracer.SIMULATE, *tracer.ON_RESULT}
    names |= tracer.UNTRACED | {".".join((layer, *path)) for layer, paths in tracer.EXTRA_METHODS.items() for path in paths}
    for call in ast.walk(ast.parse(inspect.getsource(tracer.layer_metrics))):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("pick", "total", "count"):
            names |= {arg.value for arg in call.args if isinstance(arg, ast.Constant)}
    return names


def _resolves(name: str) -> bool:
    """name is layer.function or layer.Class.method, defined in that layer, as the tracer wraps it."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"asynctrig.{layer}")
    obj = module
    for part in path:
        obj = vars(obj).get(part)
        if obj is None:
            return False
    top = vars(module)[path[0]]
    return getattr(top, "__module__", None) == module.__name__ and inspect.isfunction(getattr(obj, "__func__", obj))


def test_every_tracer_span_name_resolves_but_the_known_stale_ones():
    tracer = perfbench_module("tracer")
    names = _tracer_span_names(tracer)
    assert {"plant.transition_table", "horizons.enumerate_horizons", "simulation.simulate"} <= names
    assert STALE_TRACER_NAMES <= names
    assert {name for name in names if not _resolves(name)} == STALE_TRACER_NAMES
