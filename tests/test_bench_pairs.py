import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(metrics, correct=True):
    return {"correct": correct, "failed": 0, "attempted": 5, "metrics": metrics}


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [
        {"parent": _run({"speed": p_speed, "time": p_time}), "change": _run({"speed": c_speed, "time": c_time})}
        for p_speed, c_speed, p_time, c_time in [(1.0, 2.0, 1.0, 0.5), (1.0, 1.0, 1.0, 2.0), (2.0, 1.0, 1.0, 0.9)]
    ]
    summary = _bench_pairs().summarize(pairs, {"speed": "higher", "time": "lower"})
    speed, time = summary["metrics"]["speed"], summary["metrics"]["time"]
    assert speed["change_wins"] == 1  # a tie counts for neither side
    assert time["change_wins"] == 2
    assert speed["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.5}
    assert time["change"]["median"] == 0.9 and time["change_over_parent"] == 0.9
    assert summary["correct"] and summary["attempted"] == {"parent": 15, "change": 15}
    pairs[0]["change"]["correct"] = False
    assert not _bench_pairs().summarize(pairs, {"speed": "higher"})["correct"]


def test_layer_summary_takes_each_metrics_median_and_keeps_every_run():
    runs = [_run({"emit_s": e, "count": c}) for e, c in [(0.06, 7), (0.09, 7), (0.05, 8)]]
    assert _bench_pairs().summarize_layers(runs) == {
        "median": {"emit_s": 0.06, "count": 7},
        "runs": {"emit_s": [0.06, 0.09, 0.05], "count": [7, 7, 8]},
    }


def test_traced_run_output_parses_to_its_layer_metrics():
    machine = {"nproc": 2, "src_sha256": "ab"}
    result = {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {"plant.transition_table_s": {"value": 0.03, "unit": "s"}, "horizons.count": {"value": 7, "unit": "count"}},
    }
    stdout = "\n".join(
        [
            json.dumps({"machine": machine, "workload": "wide-horizons", "seed": 11}),
            "passes 2 (1 untraced), loops/pass 3",
            "setup_s 0.1 s",
            json.dumps(result),
        ]
    )
    run = _bench_pairs().parse_run(stdout + "\n")
    assert run["machine"] == machine
    assert run["metrics"] == {"plant.transition_table_s": 0.03, "horizons.count": 7}
    assert (run["correct"], run["failed"], run["attempted"]) == (True, 0, 4)


def test_preset_times_cover_each_preset_on_the_checkout_sources():
    times = _bench_pairs().time_presets(ROOT)
    assert list(times) == ["online-unperturbed", "offline-unperturbed", "online-perturbed", "offline-perturbed"]
    for name, entry in times.items():
        assert sorted(entry) == ["prepare_s", "simulate_s", "write_s"], name
        assert all(isinstance(v, float) and 0 < v < 60 for v in entry.values()), name


def test_preset_summary_keeps_every_process_and_its_median():
    runs = [{"a": {"prepare_s": p, "simulate_s": 10 * p, "write_s": p / 4}} for p in (3.0, 1.0, 2.0)]
    assert _bench_pairs().summarize_presets(runs) == {
        "a": {
            "prepare_s": 2.0,
            "prepare_runs": [3.0, 1.0, 2.0],
            "simulate_s": 20.0,
            "simulate_runs": [30.0, 10.0, 20.0],
            "write_s": 0.5,
            "write_runs": [0.75, 0.25, 0.5],
        }
    }


def _pairs(parent, change):
    return [{"parent": _run({"t": p}), "change": _run({"t": c})} for p, c in zip(parent, change)]


def test_claim_rule_needs_nine_tenths_of_the_pairs_and_a_move_past_the_parents_spread():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.05, 0.95, 1.0]  # quartiles 0.9625 and 1.0375

    def rule(change, better="lower"):
        return _bench_pairs().summarize(_pairs(parent, change), {"t": better})["metrics"]["t"]["claim_rule"]

    assert rule([p / 2 for p in parent])  # wins every pair, median 1.0 -> 0.5
    assert rule([p / 2 for p in parent[:9]] + [2.0])  # 9 of 10 still claims
    assert not rule([p / 2 for p in parent[:8]] + [2.0, 2.0])  # 8 of 10 does not
    assert not rule([p - 0.05 for p in parent])  # wins every pair, but moves 0.05 < 0.075 spread
    assert not rule([p / 2 for p in parent], better="higher")  # the move runs the wrong way
    assert rule([2 * p for p in parent], better="higher")
