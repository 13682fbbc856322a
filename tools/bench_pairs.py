"""Alternating parent/change benchmark pairs, summarized into one BENCH_<n>.json record.

    python3 tools/bench_pairs.py --parent ../parent-checkout --out BENCH_15.json --seed 11

For every workload `BENCHMARK.json` lists, each of the PAIRS pairs runs
`perfbench/run.py --workload W --seed S --seconds X --trace 0`, X being
`BENCHMARK.json`'s `run_seconds`, once in the parent checkout and once in the
change checkout (this one by default), one after the other; which side runs
first alternates from pair to pair.  After the pairs, each side runs the
workload TRACED more times with `--trace 1`, in the same alternating order.
Both sides use their own checkout's perfbench and sources.  The
record holds the change side's machine record, this script's own `blas`
section (`blas_record`), the protocol, and per
workload the seven end-to-end metrics: every run's values, each side's
median and quartiles, and the number of pairs the change won by the
direction `BENCHMARK.json` gives, and `claim_rule`, true where a claimed gain
would stand: the change wins at least nine tenths of the pairs, and its
median is better than the parent's by more than the parent's interquartile
range; `layers` holds each side's per-layer
metrics, the median over its traced runs, and `layer_runs` every traced
run's values: one traced run cannot resolve a 10-20% change in a layer
that takes a few hundredths of a second.  Last, `presets` holds, per side and preset,
the best-of-5 `prepare`, `simulate` and write seconds at 100 steps of each of
PAIRS fresh processes per side, alternating as the pairs do, and their
medians: one process's best-of-5 swings up to 2x from the next on a shared
box, so a single one cannot compare the sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per workload, as the benchmark protocol asks
TRACED = 3  # traced runs per side and workload, for the per-layer medians
PRESET_REPEATS = 5  # each preset time is the best of this many
PRESET_STEPS = 100


def order(i: int) -> tuple:
    """The sides in the order they run in pair i, counted from 0: the parent first when i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def blas_record() -> dict:
    """The BLAS and LAPACK numpy was built with, and the OPENBLAS_CORETYPE that both sides' runs
    inherit (None when unset): discrete outputs can depend on the BLAS kernel that runs them."""
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]
    return {"build": build, "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + ["--trace", str(trace)], cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def preset_seconds() -> dict:
    """Best-of-PRESET_REPEATS `prepare`, `simulate` and write seconds of each preset at PRESET_STEPS
    steps, from the asynctrig found first on sys.path.  write_s is `write_trace_csv`,
    `write_decision_csv` and `emit_plots` of the run's trace into a temporary directory."""
    from asynctrig.presets import PRESET_NAMES, preset_config
    from asynctrig.simulation import prepare, simulate, write_decision_csv, write_trace_csv
    from asynctrig.svgplots import emit_plots

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            config = preset_config(name, total_steps=PRESET_STEPS)
            times = {"prepare_s": [], "simulate_s": [], "write_s": []}
            for _ in range(PRESET_REPEATS):
                t0 = time.perf_counter()
                prepared = prepare(config)
                t1 = time.perf_counter()
                trace = simulate(config, prepared)
                t2 = time.perf_counter()
                write_trace_csv(trace, os.path.join(tmp, "trace.csv"))
                write_decision_csv(trace, os.path.join(tmp, "decisions.csv"))
                emit_plots(trace, os.path.join(tmp, "plots"), mu=trace.metrics.get("mu", 0.0))
                t3 = time.perf_counter()
                for key, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
                    times[key].append(seconds)
            out[name] = {key: min(values) for key, values in times.items()}
    return out


def time_presets(checkout: Path) -> dict:
    """`preset_seconds` in a fresh process on the sources of `checkout`."""
    code = (
        f"import json, sys; sys.path[:0] = ['src', {str(Path(__file__).resolve().parent)!r}]; "
        "import bench_pairs; print(json.dumps(bench_pairs.preset_seconds()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summarize_presets(runs) -> dict:
    """Per preset and timed stage, each process's best-of-5 seconds and their median, from `time_presets` results."""
    out = {}
    for name in runs[0]:
        out[name] = {}
        for key in ("prepare_s", "simulate_s", "write_s"):
            values = [run[name][key] for run in runs]
            out[name][key] = statistics.median(values)
            out[name][key[:-2] + "_runs"] = values
    return out


def summarize_layers(runs) -> dict:
    """Each layer metric's median over one side's traced `parse_run` results, and every run's value."""
    values = {name: [run["metrics"][name] for run in runs] for name in runs[0]["metrics"]}
    return {"median": {name: statistics.median(v) for name, v in values.items()}, "runs": values}


def parse_run(stdout: str) -> dict:
    """One run's output: its first line holds the machine record, its last the result."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    return {
        "machine": json.loads(lines[0])["machine"],
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(pairs, better: dict) -> dict:
    out = {
        "correct": all(run["correct"] for pair in pairs for run in pair.values()),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in ("parent", "change")},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in ("parent", "change")},
        "metrics": {},
    }
    for name, direction in better.items():
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        before = quartiles(parent)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        move = sign * (statistics.median(change) - statistics.median(parent))
        out["metrics"][name] = {
            "better": direction,
            "parent": before,
            "change": quartiles(change),
            "change_over_parent": statistics.median(change) / statistics.median(parent),
            "change_wins": wins,
            "claim_rule": 10 * wins >= 9 * len(pairs) and move > before["q3"] - before["q1"],
            "pairs": len(pairs),
            "parent_runs": parent,
            "change_runs": change,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "machine": None,
        "blas": blas_record(),
        "protocol": {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
            "pairs": PAIRS,
            "order": "alternating: the parent runs first in pairs 1, 3, 5, ..., the change in pairs 2, 4, 6, ...",
            "layers": f"{TRACED} alternating pairs of runs after the pairs, with --trace 1 instead of --trace 0; "
            "the median of each metric over each side's runs",
            "presets": f"best of {PRESET_REPEATS} prepare, simulate and write (trace CSV, decision CSV, plots) per "
            f"preset at {PRESET_STEPS} steps in one process, {PAIRS} alternating pairs of processes after the "
            "workloads, median over each side's processes",
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            pair = {side: run_once(checkouts[side], workload, args.seed, seconds) for side in order(i)}
            record["machine"] = {k: v for k, v in pair["change"]["machine"].items() if k not in ("commit", "src_sha256")}
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{PAIRS}", file=sys.stderr, flush=True)
        traced = {side: [] for side in checkouts}
        for i in range(TRACED):
            for side in order(i):
                traced[side].append(run_once(checkouts[side], workload, args.seed, seconds, trace=1))
        summary = record["workloads"][workload] = summarize(pairs, better)
        summary["correct"] = summary["correct"] and all(run["correct"] for runs in traced.values() for run in runs)
        summary["src_sha256"] = {side: pairs[0][side]["machine"]["src_sha256"] for side in checkouts}
        layers = {side: summarize_layers(runs) for side, runs in traced.items()}
        summary["layers"] = {side: layer["median"] for side, layer in layers.items()}
        summary["layer_runs"] = {side: layer["runs"] for side, layer in layers.items()}
    preset_runs = {side: [] for side in checkouts}
    for i in range(PAIRS):
        for side in order(i):
            preset_runs[side].append(time_presets(checkouts[side]))
    record["presets"] = {side: summarize_presets(runs) for side, runs in preset_runs.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
