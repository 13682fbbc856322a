"""Spans around the public functions of each asynctrig layer.

The tracer replaces every public function (and public method) of a layer
module by a wrapper that records a span: name, start, end and the span open
when it was called.  The replacement is made in every asynctrig module that
bound the function, so calls between layers are caught wherever they start.
`with tracer:` installs the wrappers and puts the originals back.  Spans
stay in flat arrays until the run writes them out once, at the end.
"""

import collections
import csv
import dataclasses
import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("matrix_core", "plant", "horizons", "certificates", "partition", "triggers", "simulation", "svgplots")

# an elementwise helper inside every eigen-check: a span per call would
# double the trace without marking a layer boundary
UNTRACED = {"matrix_core.symmetrize"}
# private, but it is the per-step disturbance quadrature the loop pays for
EXTRA_METHODS = {"simulation": (("_DisturbanceIntegrator", "integrate"),)}

REGION_TESTS = ("partition.sprocedure_feasible", "certificates.max_eps_feasible")
SELECTS = (
    "triggers.OnlineUnperturbedPolicy.select",
    "triggers.OnlinePerturbedPolicy.select",
    "triggers.offline_select",
    "triggers.offline_perturbed_select",
)
INTEGRATE = "simulation._DisturbanceIntegrator.integrate"
SIMULATE = "simulation.simulate"


def _count_certified(counts, result):
    counts["region_tests_certified"] += result is not None


# counts taken from return values, at the same boundaries as the spans
ON_RESULT = {
    "partition.sprocedure_feasible": _count_certified,
    "certificates.max_eps_feasible": _count_certified,
    "horizons.enumerate_horizons": lambda counts, r: counts.update({"horizons.count": len(r)}),
    "plant.transition_table": lambda counts, r: counts.update({"plant.transition_table_horizons": len(r)}),
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = collections.Counter()
        self._open = []
        self._patches = []

    def _wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        on_result = ON_RESULT.get(span_name)
        name, parent, start, end, open_ = self.name, self.parent, self.start, self.end, self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, layer, cls, meth):
        raw = cls.__dict__[meth]
        span_name = f"{layer}.{cls.__name__}.{meth}"
        if isinstance(raw, classmethod):
            self._patch(cls, meth, classmethod(self._wrap(span_name, raw.__func__)))
        else:
            self._patch(cls, meth, self._wrap(span_name, raw))

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "asynctrig" or n.startswith("asynctrig.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"asynctrig.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        if m.__dict__.get(attr) is obj:
                            self._patch(m, attr, wrapped)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        plain = raw.__func__ if isinstance(raw, classmethod) else raw
                        if not inspect.isfunction(plain):
                            continue
                        if not meth.startswith("_") or (meth == "__init__" and not dataclasses.is_dataclass(obj)):
                            self._patch_method(layer, obj, meth)
            for cls_name, meth in EXTRA_METHODS.get(layer, ()):
                self._patch_method(layer, getattr(mod, cls_name), meth)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """(name ids, parent indices, durations) as arrays."""
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64), dur

    def write_csv(self, fh, pass_index: int):
        w = csv.writer(fh, lineterminator="\n")
        for i in range(len(self.start)):
            w.writerow([pass_index, self.names[self.name[i]], repr(self.start[i]), repr(self.end[i]), self.parent[i]])


def layer_metrics(tracer: Tracer, timed_s: float) -> dict:
    """Per-layer figures of one traced pass; `timed_s` is its traced total_s."""
    ids, parents, dur = tracer.spans()
    span_names = np.array(tracer.names, dtype=object)[ids]
    has_parent = parents >= 0
    parent_names = np.where(has_parent, span_names[parents], "")
    child_s = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))

    def pick(*wanted):
        return np.isin(span_names, wanted)

    def total(*wanted):
        return float(dur[pick(*wanted)].sum())

    def count(*wanted):
        return int(pick(*wanted).sum())

    def p(mask, q):
        return float(np.percentile(dur[mask], q)) * 1e6 if mask.any() else 0.0

    layers = np.array([n.split(".")[0] for n in span_names], dtype=object)
    self_s = dur - child_s
    region_tests = count(*REGION_TESTS)
    eig = pick("matrix_core.sym_eig_bounds")
    decisions = pick(*SELECTS) & (parent_names == SIMULATE)
    loop_children = np.isin(span_names, SELECTS + (INTEGRATE,)) & (parent_names == SIMULATE)
    loop_child_s = np.bincount(parents[loop_children], weights=dur[loop_children], minlength=len(dur))
    simulate = pick(SIMULATE)
    top = ~has_parent
    out = {
        "matrix_core.eig_calls": int(eig.sum()),
        "matrix_core.eig_s": float(dur[eig].sum()),
        "matrix_core.eig_per_region_test": (
            float((eig & np.isin(parent_names, REGION_TESTS)).sum()) / region_tests if region_tests else 0.0
        ),
        "partition.region_tests": count("partition.sprocedure_feasible"),
        "partition.region_test_s": total("partition.sprocedure_feasible"),
        "certificates.region_tests": count("certificates.max_eps_feasible"),
        "certificates.region_test_s": total("certificates.max_eps_feasible"),
        "triggers.table_build_s": total(
            "triggers.build_offline_table_unperturbed", "triggers.offline_perturbed_machinery"
        ),
        "triggers.table_certified_ratio": (
            tracer.counts["region_tests_certified"] / region_tests if region_tests else 0.0
        ),
        "partition.make_partition_s": total("partition.make_partition"),
        "partition.lookup_calls": count("partition.region_of"),
        "partition.lookup_us_p50": p(pick("partition.region_of"), 50),
        "horizons.count": tracer.counts["horizons.count"],
        "horizons.enumerate_s": total("horizons.enumerate_horizons"),
        "plant.transition_table_horizons": tracer.counts["plant.transition_table_horizons"],
        "plant.transition_table_s": total("plant.transition_table"),
        "triggers.policy_build_s": total(
            "triggers.OnlineUnperturbedPolicy.__init__", "triggers.OnlinePerturbedPolicy.__init__"
        ),
        "triggers.select_calls": int(decisions.sum()),
        "triggers.select_us_p50": p(decisions, 50),
        "triggers.select_us_p90": p(decisions, 90),
        "plant.disturbance_bound_s": total("plant.disturbance_step_bound"),
        "simulation.integrate_calls": count(INTEGRATE),
        "simulation.integrate_us_p50": p(pick(INTEGRATE), 50),
        "simulation.loop_self_s": float((dur - loop_child_s)[simulate].sum()),
        "simulation.write_csv_s": total("simulation.write_trace_csv", "simulation.write_decision_csv"),
        "svgplots.emit_s": total("svgplots.emit_plots"),
        "plant.discretize_s": total("plant.DiscretePlant.from_plant"),
        "certificates.synthesize_s": total(
            "certificates.synthesize_unperturbed",
            "certificates.synthesize_perturbed_online",
            "certificates.synthesize_perturbed_offline",
        ),
        "trace.spans": int(len(dur)),
        "trace.uncovered_share": (timed_s - float(dur[top].sum())) / timed_s,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_s[layers == layer].sum())
    return out
