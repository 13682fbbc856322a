"""Passes of a workload and the run that repeats them.

The program is reached through module attributes (`simulation.prepare`,
...), so the tracer's replacements apply while it is installed.
"""

import contextlib
import dataclasses
import resource
import statistics
from time import perf_counter

import numpy as np

from asynctrig import simulation, svgplots

import check
import speed
import workloads
from tracer import Tracer, layer_metrics

E2E_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "loop_steps_per_s": "steps/s",
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "utilization_reduction": "fraction",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "matrix_core.eig_calls": "count",
    "matrix_core.eig_s": "s",
    "matrix_core.eig_per_region_test": "calls/test",
    "partition.region_tests": "count",
    "partition.region_test_s": "s",
    "certificates.region_tests": "count",
    "certificates.region_test_s": "s",
    "triggers.table_build_s": "s",
    "triggers.table_certified_ratio": "fraction",
    "partition.make_partition_s": "s",
    "partition.lookup_calls": "count",
    "partition.lookup_us_p50": "us",
    "horizons.count": "count",
    "horizons.enumerate_s": "s",
    "plant.transition_table_horizons": "count",
    "plant.transition_table_s": "s",
    "triggers.policy_build_s": "s",
    "triggers.select_calls": "count",
    "triggers.select_us_p50": "us",
    "triggers.select_us_p90": "us",
    "triggers.gate_ratio": "fraction",
    "plant.disturbance_bound_s": "s",
    "simulation.integrate_calls": "count",
    "simulation.integrate_us_p50": "us",
    "simulation.loop_self_s": "s",
    "simulation.write_csv_s": "s",
    "simulation.csv_bytes": "B",
    "svgplots.emit_s": "s",
    "svgplots.svg_bytes": "B",
    "plant.discretize_s": "s",
    "certificates.synthesize_s": "s",
    "matrix_core.self_s": "s",
    "plant.self_s": "s",
    "horizons.self_s": "s",
    "certificates.self_s": "s",
    "partition.self_s": "s",
    "triggers.self_s": "s",
    "simulation.self_s": "s",
    "svgplots.self_s": "s",
    "trace.spans": "count",
    "trace.uncovered_share": "fraction",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Pass:
    setup_s: float  # scaled by the speed probes, as are total_s, simulate_s and decide_s
    total_s: float
    raw_setup_s: float
    raw_total_s: float
    simulate_s: float
    reduction: float  # mean share of sensor slots left unused, over the loops
    counts: dict  # must repeat exactly in every pass of a run
    failures: list  # (case key, loop index, message)
    speed_factor: float  # speed scale over the whole pass, for the span times
    decide_s: list  # one sample per decision; untraced passes only
    control_problems: list  # negative controls the check failed to reject
    tracer: Tracer = None


@dataclasses.dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    layer_metrics: dict
    notes: list


# selection calls quicker than this in the loop are re-timed after it
RETIME_BELOW_S = 1e-3


def _recorded(fn, calls, clock):
    def recorded(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        calls.append((clock() - t0, fn, args, kwargs))
        return out

    return recorded


@contextlib.contextmanager
def _recording_decisions(prepared, calls, clock):
    """Time and record each mode's public selection call, as simulate makes it."""
    names = ("offline_select", "offline_perturbed_select")
    originals = {name: getattr(simulation, name) for name in names}
    for name, fn in originals.items():
        setattr(simulation, name, _recorded(fn, calls, clock))
    for prep in prepared:
        policy = prep[5]
        if policy is not None:
            policy.select = _recorded(policy.select, calls, clock)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(simulation, name, fn)


def _decision_times(calls, loop_factor, meter) -> list:
    """Scaled seconds per decision of one loop.

    In the loop, a table lookup of a few tens of microseconds runs on caches
    the disturbance quadrature just swept, and its time moved 4x between
    identical rounds on the shared host.  So calls quicker than
    RETIME_BELOW_S are re-run on the same live state right after the loop,
    back to back, and timed there (steady to a few per cent once scaled);
    slower calls keep their in-loop time.
    """
    times = [seconds * loop_factor for seconds, *_ in calls]
    quick = [i for i, (seconds, *_) in enumerate(calls) if seconds < RETIME_BELOW_S]
    if not quick:
        return times
    with meter.segment() as seg:
        for i in quick:
            _, fn, args, kwargs = calls[i]
            t0 = meter.now()
            fn(*args, **kwargs)
            times[i] = meter.now() - t0
    for i in quick:
        times[i] *= seg.factor
    return times


def one_pass(cases, seed, out_dir, reference, setup_repeats=1, tracer=None, controls=False) -> Pass:
    """Prepare, loop, write and check once.

    Every timed segment is scaled by the speed probes around and inside it
    (see speed.py).  An untraced pass prepares `setup_repeats` times, counts
    the median, and loops on the last; a traced pass prepares once.  With
    `controls`, the check's negative controls run on the first generated
    loop of each case.
    """
    meter = speed.Meter(sampling=tracer is None)
    decide_s = []
    setups, raw_setups = [], []
    with meter, tracer or contextlib.nullcontext():
        for _ in range(1 if tracer else setup_repeats):
            prepared = []
            segments = []
            for case in cases:
                with meter.segment() as seg:
                    prepared.append(simulation.prepare(case.config))
                segments.append(seg)
            setups.append(sum(seg.scaled for seg in segments))
            raw_setups.append(sum(seg.seconds for seg in segments))

    rng = np.random.default_rng(seed)
    loops = [
        (case, prep, config, is_ref)
        for case, prep in zip(cases, prepared)
        for config, is_ref in workloads.loop_inputs(case, prep[2].P, rng)
    ]
    dirs = [out_dir / f"loop{i:03d}" for i in range(len(loops))]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)

    traces = []
    calls = []
    simulate_s = loops_s = raw_loops_s = 0.0
    with meter, tracer or _recording_decisions(prepared, calls, meter.now):
        for (_, prep, config, _), d in zip(loops, dirs):
            with meter.segment() as seg:
                t0 = meter.now()
                trace = simulation.simulate(config, prep)
                sim = meter.now() - t0
                simulation.write_trace_csv(trace, str(d / "trace.csv"))
                simulation.write_decision_csv(trace, str(d / "decisions.csv"))
                svgplots.emit_plots(trace, str(d / "plots"), mu=trace.metrics.get("mu", 0.0))
            simulate_s += sim * seg.factor
            loops_s += seg.scaled
            raw_loops_s += seg.seconds
            traces.append(trace)
            decide_s += _decision_times(calls, seg.factor, meter)
            calls.clear()
    setup_s = statistics.median(setups)
    raw_setup_s = statistics.median(raw_setups)

    failures = []
    for i, ((case, prep, config, is_ref), trace) in enumerate(zip(loops, traces)):
        recorded = reference.get(case.key, {}) if is_ref else {}
        messages = check.check_loop(trace, config, prep, recorded.get("actions"))
        if is_ref and prep[4] is not None:
            messages += check.check_table(prep[4], recorded.get("table"))
        failures += [(case.key, i, msg) for msg in messages]
    control_problems = []
    if controls:
        first = {}
        for (case, prep, config, is_ref), trace in zip(loops, traces):
            if not is_ref:
                first.setdefault(case.key, (trace, config, prep))
        for trace, config, prep in first.values():
            control_problems += check.negative_controls(trace, config, prep)

    counts = {
        "loops": len(traces),
        "steps": sum(int(t.actions.size) for t in traces),
        "decisions": sum(len(t.decisions) for t in traces),
        "gate_decisions": sum(row[6] for t in traces for row in t.decision_rows),
        "csv_bytes": sum((d / f).stat().st_size for d in dirs for f in ("trace.csv", "decisions.csv")),
        "svg_bytes": sum(p.stat().st_size for d in dirs for p in (d / "plots").glob("*.svg")),
    }
    return Pass(
        setup_s=setup_s,
        total_s=setup_s + loops_s,
        raw_setup_s=raw_setup_s,
        raw_total_s=raw_setup_s + raw_loops_s,
        simulate_s=simulate_s,
        reduction=statistics.fmean(t.metrics["utilization_reduction"] for t in traces),
        counts=counts,
        failures=failures,
        decide_s=decide_s,
        speed_factor=meter.factor,
        control_problems=control_problems,
        tracer=tracer,
    )


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(plain) -> dict:
    decide_ms = np.array([s for p in plain for s in p.decide_s]) * 1e3
    return {
        "setup_s": statistics.median(p.setup_s for p in plain),
        "total_s": statistics.median(p.total_s for p in plain),
        "loop_steps_per_s": statistics.median(p.counts["steps"] / p.simulate_s for p in plain),
        "decide_ms_p50": float(np.percentile(decide_ms, 50)),
        "decide_ms_p90": float(np.percentile(decide_ms, 90)),
        "utilization_reduction": plain[0].reduction,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layers(traced, untraced_total_s):
    """Per-layer metrics: medians of the traced passes, counts required to repeat.

    Span times are scaled by the pass's median speed probe, like the
    end-to-end times; the uncovered share is a ratio of raw times.
    """
    per_pass = []
    for p in traced:
        m = layer_metrics(p.tracer, p.raw_total_s)
        for name, unit in LAYER_UNITS.items():
            if unit in ("s", "us") and name in m:
                m[name] *= p.speed_factor
        m["triggers.gate_ratio"] = p.counts["gate_decisions"] / p.counts["decisions"]
        m["simulation.csv_bytes"] = p.counts["csv_bytes"]
        m["svgplots.svg_bytes"] = p.counts["svg_bytes"]
        m["trace.overhead_s"] = p.total_s - untraced_total_s
        per_pass.append(m)
    layers, problems = {}, []
    for name, unit in LAYER_UNITS.items():
        values = [m[name] for m in per_pass]
        if unit in ("count", "B"):
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            layers[name] = _metric(values[0], unit)
        else:
            layers[name] = _metric(statistics.median(values), unit)
    return layers, problems


def run(cases, seed, seconds, traced, out_dir, reference, setup_repeats=1) -> RunResult:
    """Repeat the pass until `seconds` have elapsed; with `traced`, every second pass is traced."""
    passes = []
    t_start = perf_counter()
    while True:
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        passes.append(one_pass(cases, seed, out_dir, reference, setup_repeats, tracer, controls=not passes))
        if perf_counter() - t_start >= seconds and (not traced or len(passes) >= 2):
            break

    problems = list(passes[0].control_problems)
    for p in passes[1:]:
        if p.counts != passes[0].counts:
            problems.append(f"counts differ between passes: {passes[0].counts} vs {p.counts}")
    attempted = sum(p.counts["loops"] for p in passes)
    failed = sum(len({(key, i) for key, i, _ in p.failures}) for p in passes)
    plain = [p for p in passes if p.tracer is None]
    end_to_end = _end_to_end(plain)
    layers = {}
    traced_passes = [p for p in passes if p.tracer is not None]
    if traced_passes:
        layers, count_problems = _layers(traced_passes, end_to_end["total_s"])
        problems += count_problems

    c = passes[0].counts
    notes = [f"FAILED {key} loop {i}: {msg}" for key, i, msg in sorted({f for p in passes for f in p.failures})]
    notes += [f"PROBLEM {msg}" for msg in problems]
    notes.append(
        f"passes {len(passes)} ({len(plain)} untraced), loops/pass {c['loops']}, steps/pass {c['steps']}, "
        f"decisions/pass {c['decisions']}"
    )
    notes += [f"{name} {value!r} {E2E_UNITS[name]}" for name, value in end_to_end.items()]
    notes.append(
        f"raw (unscaled) medians: setup_s {statistics.median(p.raw_setup_s for p in plain)!r} s, "
        f"total_s {statistics.median(p.raw_total_s for p in plain)!r} s"
    )
    notes.append(f"error_rate {failed}/{attempted} = {failed / attempted!r} fraction")
    notes.append(
        f"negative controls: {2 * len(cases)} corrupted loop copies, "
        f"{len(passes[0].control_problems)} accepted by the check"
    )
    if traced_passes:
        spans = out_dir / "spans.csv"
        with open(spans, "w", newline="") as fh:
            fh.write("pass,name,start,end,parent\n")
            for i, p in enumerate(passes):
                if p.tracer is not None:
                    p.tracer.write_csv(fh, i)
        notes.append(f"spans written to {spans}")

    return RunResult(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        end_to_end={k: _metric(v, E2E_UNITS[k]) for k, v in end_to_end.items()},
        layer_metrics=layers,
        notes=notes,
    )
