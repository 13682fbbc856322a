"""Command-line front end.

Subcommands mirror the pipeline stages: discretize, horizons, synthesize,
partition, simulate, report, preset.  Configuration is one JSON document with
sections {plant, discretization, horizons, mode, certificate, partition,
simulation}; the named presets embed frozen benchmark parameters.

Exit codes: 0 success, 2 configuration error, 3 infeasible or failed
construction, 4 resource cap exceeded.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .certificates import certificate_to_dict
from .errors import ConfigError, InfeasibleError, ResourceCapError
from .horizons import (
    DEFAULT_CAP,
    avg_idle_metric,
    enumerate_horizons,
    horizon_from_text,
    horizon_to_text,
)
from .matrix_core import sym_eig_bounds
from .partition import make_partition, partition_to_dict
from .plant import DiscretePlant, PlantModel
from .presets import DEFAULT_STEPS, PRESET_NAMES, PRESET_NOTES, preset_config
from .simulation import (
    SimConfig,
    certify,
    check_seed,
    default_sine_disturbance,
    prepare,
    read_trace_csv,
    simulate,
    utilization_metrics,
    write_decision_csv,
    write_trace_csv,
)
from .svgplots import emit_plots, write_text

ENV_SEED = "ASYNCTRIG_SEED"


def _resolve_seed(flag_seed, fallback: int) -> int:
    """Flag wins over the environment, environment over the configuration."""
    if flag_seed is not None:
        return int(flag_seed)
    env = os.environ.get(ENV_SEED)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}")
    return int(fallback)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _whole(value, key: str) -> int:
    """An integer field's value: a JSON number equal to a whole number (6 or 6.0), never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:  # NaN, inf fail too
        raise ConfigError(f"{key} must be a whole number, got {json.dumps(value)}")
    return int(value)


def _real(value, key: str) -> float:
    """A real field's value: a finite JSON number (0.5 or 2), never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {json.dumps(value)}")  # NaN fails the <= too
    return float(value)


def _plant_from_section(sec: dict) -> PlantModel:
    D = sec.get("D")
    return PlantModel(
        A=np.array(sec["A"], dtype=float),
        B=np.array(sec["B"], dtype=float),
        K=np.array(sec["K"], dtype=float),
        blocks=tuple(_whole(b, "blocks") for b in sec["blocks"]),
        D=np.array(D, dtype=float) if D is not None else None,
        w_max=_real(sec.get("w_max", 0.0), "w_max"),
    )


def _section(data, name: str, required: bool = True) -> dict:
    """The named section of a config object; a section that is not an object is a configuration error."""
    sec = data[name] if required else data.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {json.dumps(sec)[:40]}")
    return sec


def config_from_dict(data: dict) -> SimConfig:
    try:
        plant = _plant_from_section(_section(data, "plant"))
        disc = _section(data, "discretization")
        hz = _section(data, "horizons")
        mode = data["mode"]
        sim = _section(data, "simulation", required=False)
        cert = _section(data, "certificate", required=False)
        part = _section(data, "partition", required=False)
        sigma_star = None
        if hz.get("sigma_star"):
            sigma_star = horizon_from_text(str(hz["sigma_star"]))
        disturbance = None
        if sim.get("disturbance") is not None:
            dd = _section(sim, "disturbance")
            if dd.get("kind") != "sine":
                raise ConfigError(f"unknown disturbance kind {dd.get('kind')!r}; only 'sine' is built in")
            disturbance = default_sine_disturbance(plant, _real(dd.get("pi_multiple", 5.0), "pi_multiple"))
        return SimConfig(
            plant=plant,
            T=_real(disc["T"], "T"),
            l_min=_whole(hz["l_min"], "l_min"),
            l_max=_whole(hz["l_max"], "l_max"),
            mode=str(mode),
            x0=np.array(sim["x0"], dtype=float),
            beta=_real(cert.get("beta", 0.0), "beta"),
            gamma=_real(cert.get("gamma", 0.0), "gamma"),
            gamma1=_real(cert.get("gamma1", 0.0), "gamma1"),
            gamma2=_real(cert.get("gamma2", 0.0), "gamma2"),
            N=_whole(part.get("N", 0), "N"),
            total_steps=_whole(sim.get("total_steps", DEFAULT_STEPS), "total_steps"),
            seed=_whole(sim.get("seed", 0), "seed"),
            substeps_per_T=_whole(disc.get("substeps_per_T", 100), "substeps_per_T"),
            sigma_star=sigma_star,
            disturbance=disturbance,
            horizon_cap=_whole(hz.get("cap", DEFAULT_CAP), "cap"),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc.args[0]!r}")


def _load_sim_config(args):
    """(SimConfig, the configuration file's contents, or None for a preset) of --config or --preset."""
    if args.preset and args.config:
        raise ConfigError("give either --config or --preset, not both")
    if args.preset:
        return preset_config(args.preset), None
    if args.config:
        data = load_config(args.config)
        return config_from_dict(data), data
    raise ConfigError("provide --config FILE or --preset NAME")


def _load_run_config(args):
    """(SimConfig with the run's seed and steps, semantic dict for the digest) of a simulate or preset run."""
    cfg, data = _load_sim_config(args)
    # replace() validates again, so --steps meets the same checks as a configuration file
    cfg = dataclasses.replace(
        cfg,
        seed=_resolve_seed(args.seed, cfg.seed),
        total_steps=cfg.total_steps if args.steps is None else int(args.steps),
    )
    run = {"seed": cfg.seed, "total_steps": cfg.total_steps}
    if data is None:
        semantic = {"preset": args.preset, **run}
    else:
        semantic = {**data, "simulation": {**data.get("simulation", {}), **run}}
    return cfg, semantic


def config_digest(semantic: dict) -> str:
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cert_summary(cert) -> dict:
    full = certificate_to_dict(cert)
    lo, hi = sym_eig_bounds(cert.P)
    out = {
        "kind": full["kind"],
        "sigma_star": full["sigma_star"],
        "beta": full["beta"],
        "lambda_min_P": float(lo),
        "lambda_max_P": float(hi),
    }
    for key in ("gamma", "gamma1", "gamma2", "mu", "varpi"):
        if key in full:
            out[key] = full[key]
    return out


def _write_json(payload: dict, path):
    text = json.dumps(payload, indent=2)
    if path:
        write_text(path, text + "\n")
    else:
        print(text)


def _print_metrics(metrics: dict):
    for key in (
        "steps",
        "readings",
        "utilization_reduction",
        "final_V",
        "min_V_ratio",
        "mu",
        "guub_entered_boundary",
        "guub_contained",
    ):
        if key in metrics:
            print(f"{key} {metrics[key]!r}")


def cmd_discretize(args) -> int:
    cfg, _ = _load_sim_config(args)
    dp = DiscretePlant.from_plant(cfg.plant, cfg.T)
    _write_json({"T": cfg.T, "A_T": dp.A_T.tolist(), "B_T": dp.B_T.tolist()}, args.out)
    return 0


def cmd_horizons(args) -> int:
    horizons = enumerate_horizons(args.m, args.lmin, args.lmax, args.cap)
    for sigma in horizons:
        print(f"{horizon_to_text(sigma)} {avg_idle_metric(sigma, args.m)!r}")
    return 0


def cmd_synthesize(args) -> int:
    cfg, _ = _load_sim_config(args)
    _write_json(certificate_to_dict(certify(cfg)[-1]), args.out)
    return 0


def cmd_partition(args) -> int:
    if args.config or args.preset:
        cfg, _ = _load_sim_config(args)
        dim, N = 2 * cfg.plant.n, cfg.N
        if N < 1:
            raise ConfigError("the selected configuration has no partition section")
    else:
        if args.dim is None or args.regions is None:
            raise ConfigError("provide --dim and --regions (or --config/--preset)")
        dim, N = args.dim, args.regions
    regions = make_partition(dim, N)
    _write_json(partition_to_dict(regions), args.out)
    return 0


def _run_and_emit(cfg: SimConfig, semantic: dict, args) -> int:
    seeds = [cfg.seed]
    if args.sweep:
        try:
            seeds = [int(s) for s in args.sweep.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"--sweep expects comma-separated integers, got {args.sweep!r}")
        if not seeds:
            raise ConfigError("--sweep got an empty seed list")
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"--sweep repeats a seed: {args.sweep!r}")
        for seed in seeds:  # each replaces cfg.seed below, past SimConfig's own check
            check_seed(seed)
        semantic = {**semantic, "sweep": seeds}  # the swept seeds, not --seed, pick the traces
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    prepared = prepare(cfg)
    cert = prepared.cert
    outputs = []
    cert_path = os.path.join(outdir, "certificate.json")
    _write_json(certificate_to_dict(cert), cert_path)
    outputs.append(cert_path)
    all_metrics = {}
    for seed in seeds:
        cfg.seed = seed
        trace = simulate(cfg, prepared)
        suffix = f"_{seed}" if len(seeds) > 1 else ""
        trace_path = os.path.join(outdir, f"trace{suffix}.csv")
        dec_path = os.path.join(outdir, f"decisions{suffix}.csv")
        write_trace_csv(trace, trace_path)
        write_decision_csv(trace, dec_path)
        outputs += [trace_path, dec_path]
        all_metrics[seed] = trace.metrics
        if args.plots:
            mu = trace.metrics.get("mu", 0.0)
            outputs += emit_plots(trace, os.path.join(outdir, f"plots{suffix}"), mu=mu)
    manifest = {
        "config_digest": config_digest(semantic),
        "preset": args.preset,
        "certificate": _cert_summary(cert),
        "metrics": all_metrics[seeds[-1]] if len(seeds) == 1 else {str(s): m for s, m in all_metrics.items()},
        "outputs": [os.path.relpath(p, outdir) for p in outputs],  # the same wherever --out-dir points
    }
    if prepared.table is not None:  # the offline modes: each region's count of certified horizons
        manifest["regions"] = [{"certified": n, "fallback_only": n == 0} for n in prepared.table.certified]
    else:  # the online modes: the horizon forms the online test keeps, of all; no state admits the rest
        online = getattr(prepared.policy, "policy", prepared.policy)
        manifest["online_forms"] = {"kept": len(online.forms), "total": prepared.codes.shape[1]}
    manifest_path = os.path.join(outdir, "manifest.json")
    _write_json(manifest, manifest_path)
    for seed in seeds:
        if args.preset:
            print(f"preset {args.preset} seed {seed}")
        else:
            print(f"mode {cfg.mode} seed {seed}")
        _print_metrics(all_metrics[seed])
    print(f"manifest {manifest_path}")
    return 0


def cmd_simulate(args) -> int:
    cfg, semantic = _load_run_config(args)
    return _run_and_emit(cfg, semantic, args)


def cmd_preset(args) -> int:
    if args.list or not args.name:
        for name in PRESET_NAMES:
            print(f"{name}: {PRESET_NOTES[name]}")
        return 0
    args.preset = args.name
    args.config = None
    cfg, semantic = _load_run_config(args)
    return _run_and_emit(cfg, semantic, args)


def cmd_report(args) -> int:
    trace = read_trace_csv(args.trace)
    least = max(int(trace.actions.max()), 1)  # action a reads sensor a
    m = least if args.m is None else args.m
    if m < least:
        raise ConfigError(f"--m must be at least {least}, the largest action in the trace and 1, got {m}")
    metrics = utilization_metrics(trace.actions, m)
    paths = emit_plots(trace, args.out_dir, mu=args.mu)
    _print_metrics(metrics)
    for p in paths:
        print(f"plot {p}")
    return 0


def _flag_parsers():
    """(source, run): parent parsers that declare each shared flag once."""
    source, run = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    source.add_argument("--config", help="configuration JSON file")
    source.add_argument("--preset", choices=PRESET_NAMES, help="named benchmark configuration")
    run.add_argument("--seed", type=int, default=None, help=f"tie-break seed (overrides {ENV_SEED} and config)")
    run.add_argument("--steps", type=int, default=None, help="total base steps")
    run.add_argument("--out-dir", default="out", help="output directory")
    run.add_argument("--sweep", default=None, help="comma-separated seeds; one trace per seed")
    run.add_argument("--plots", action="store_true", help="also render the SVG views")
    return source, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asynctrig",
        description="Self-triggered sensor scheduling for sampled-data linear systems.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    source, run = _flag_parsers()

    sp = sub.add_parser("discretize", parents=[source], help="print the exact ZOH pair (A_T, B_T)")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sp.set_defaults(func=cmd_discretize)

    sp = sub.add_parser("horizons", help="enumerate scheduling horizons with their idle metrics")
    sp.add_argument("--m", type=int, required=True, help="number of sensors")
    sp.add_argument("--lmin", type=int, required=True)
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_horizons)

    sp = sub.add_parser("synthesize", parents=[source], help="build the certificate and print it as JSON")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("partition", parents=[source], help="build the conic state-space partition")
    sp.add_argument("--dim", type=int, default=None, help="ambient dimension (2n)")
    sp.add_argument("--regions", type=int, default=None, help="number of cones")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("simulate", parents=[source, run], help="run the closed loop and write trace CSVs")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("report", help="summarize a trace CSV and render SVG views")
    sp.add_argument("--trace", required=True, help="trace CSV produced by simulate")
    sp.add_argument("--m", type=int, default=None, help="sensor count, at least the largest action seen (default: that action)")
    sp.add_argument("--mu", type=float, default=0.0, help="ultimate bound to overlay on the V plot")
    sp.add_argument("--out-dir", default="out", help="directory for the SVG files")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("preset", parents=[run], help="run a named benchmark end to end")
    sp.add_argument("name", nargs="?", choices=PRESET_NAMES, help="omit (or --list) to list presets")
    sp.add_argument("--list", action="store_true", help="list preset names and leave")
    sp.set_defaults(func=cmd_preset)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
