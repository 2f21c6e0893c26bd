"""Command-line front end for the full pipeline.

Subcommands: ingest-osm, make-grid, simulate, build-trajectory, attack,
evaluate, sweep. Options may come from a JSON config file (--config);
flags given on the command line win over the file, which wins over the
defaults. Stage progress goes to stderr as key=value lines.

Exit codes: 0 success, 2 unreadable or malformed input or option values,
3 the pipeline produced nothing to continue with, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import canlog, matcher, metrics, roadnet, simulate, trajgraph
from ._kernels import backend
from .errors import (
    BadOption,
    CanMatchError,
    DanglingNodeRef,
    InputError,
    NothingProduced,
    SchemaMismatch,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_INVARIANT = 4


def _log(stage: str, **kv) -> None:
    parts = [f"stage={stage}"] + [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts), file=sys.stderr)


def _write_json(doc: dict, path: str) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path: str, what: str, decode=None):
    """The JSON document in a file named on the command line, through decode if given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{what} file {path} is not UTF-8 text: {exc}") from None
    try:
        return decode(doc) if decode else doc
    except (KeyError, TypeError, ValueError) as exc:
        msg = f"{what} file {path} has a missing or malformed field: {exc}"
        raise SchemaMismatch(msg) from None


# --- options ---


def _tuple_of(kind):
    """Converter of comma-separated flag text or a JSON list to a tuple of kind."""

    def convert(value) -> tuple:
        return tuple(kind(x) for x in (value.split(",") if isinstance(value, str) else value))

    return convert


def _int(value) -> int:
    """An integer option's value: the flag's text, or a config file's integer."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"an integer option takes an integer, not {value!r}")
    return int(value)


def _float(value) -> float:
    """A float option's value: the flag's text, or a config file's number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"a float option takes a number, not {value!r}")
    return float(value)


_floats, _ints = _tuple_of(_float), _tuple_of(_int)


def _switch(value) -> bool:
    """A switch's value: a config file's true or false."""
    if not isinstance(value, bool):
        raise TypeError(f"a switch takes true or false, not {value!r}")
    return value


# Each option once: the converter of its flag's text or its config value, and
# the argparse settings of its flag (None: only a config file sets it).
_OPTIONS = {
    "bbox": (_floats, {"help": "lat,lon,side_km square window"}),
    "n": (_int, {}),
    "spacing-m": (_float, {}),
    "jitter": (_float, {}),
    "seed": (_int, {}),
    "origin": (_floats, {"help": "lat,lon of grid corner"}),
    "q": (_int, {}),
    "cruise-mps": (_float, {}),
    "sample-period-s": (_float, {}),
    "dwell-s": (_floats, {"help": "lo,hi stop dwell seconds"}),
    "turn-slowdown": (_float, {}),
    "turn-window-s": (_float, {}),
    "pedal-idle": (_float, {}),
    "pedal-cruise": (_float, {}),
    "noise-std": (_float, {"help": "speed noise stdev, m/s"}),
    "stop-offset-m": (_float, {}),
    "event-pattern": (str, {"choices": simulate.EVENT_PATTERNS}),
    "k": (_int, {}),
    "sigma-ladder": (_floats, {"help": "comma-separated ascending fractions"}),
    "max-candidates": (_int, {}),
    "allow-node-reuse": (_switch, None),
    "pedal-idle-tol": (_float, {}),
    "sides-km": (_floats, {"help": "comma-separated map sizes"}),
    "qs": (_ints, {"help": "comma-separated route lengths"}),
    "ks": (_ints, {"help": "comma-separated top-K values"}),
    "trials": (_int, {}),
    "workers": (_int, {}),
    "grid-jitter": (_float, {}),
}

# the options each library entry point takes
_PROFILE = (
    "cruise-mps", "sample-period-s", "dwell-s", "turn-slowdown", "turn-window-s",
    "pedal-idle", "pedal-cruise", "noise-std", "stop-offset-m", "event-pattern",
)
_MATCH = ("k", "sigma-ladder", "max-candidates", "allow-node-reuse")
_TRAJECTORY = ("pedal-idle-tol",)

# library keywords not spelled like their option
_KEYWORDS = {
    "cruise-mps": "cruise_speed_mps", "dwell-s": "stop_dwell_s", "noise-std": "speed_noise_std",
}


def _options(args) -> dict:
    """The options of args' command that a flag or the config file gave.

    A flag beats the config file, and a null in the file leaves the option
    unset. A config key that no command's option can take is an error; the
    keys of other commands are ignored, so one file can serve every command.
    """
    config = _read_json(args.config, "config") if args.config else {}
    if not isinstance(config, dict):
        raise SchemaMismatch("config file must hold a JSON object")
    for key in config:
        if key not in _OPTIONS:
            raise BadOption(f"unknown config key {key!r}")
    opts = {}
    for name in args.options:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            value = config.get(name)
        if value is not None:
            with _option_values(name):
                opts[name] = _OPTIONS[name][0](value)
    return opts


@contextlib.contextmanager
def _option_values(name: str = "option"):
    """Raise BadOption for a type, value or overflow error of values built from options."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadOption(f"bad {name} value: {exc}") from exc


def _given(opts: dict, *names: str) -> dict:
    """The given options among names, as the library's keyword arguments."""
    return {_KEYWORDS.get(n, n.replace("-", "_")): opts[n] for n in names if n in opts}


# --- subcommands ---


def cmd_ingest_osm(args, opts) -> int:
    bbox = opts.get("bbox")
    if bbox is not None and not (len(bbox) == 3 and all(map(math.isfinite, bbox)) and bbox[2] > 0):
        raise BadOption("bbox must be lat,lon,side_km: finite, with a positive side_km")
    t0 = time.monotonic()
    g = roadnet.read_osm_xml(args.infile)
    _log("ingest_osm", nodes=len(g.ids), edges=g.edge_count)
    if bbox is not None:
        g = roadnet.bbox_filter(g, *bbox)
        _log("bbox_filter", nodes=len(g.ids), edges=g.edge_count, side_km=bbox[2])
    roadnet.save_graph(g, args.out)
    _log("write_graph", path=args.out, elapsed_s=f"{time.monotonic() - t0:.3f}")
    return EXIT_OK


def cmd_make_grid(args, opts) -> int:
    n = opts.get("n", 10)
    with _option_values():
        g = simulate.make_synthetic_grid(
            n,
            opts.get("spacing-m", 300.0),
            opts.get("jitter", 0.1),
            **_given(opts, "seed", "origin"),
        )
    roadnet.save_graph(g, args.out)
    _log("make_grid", n=n, nodes=len(g.ids), edges=g.edge_count, path=args.out)
    return EXIT_OK


def cmd_simulate(args, opts) -> int:
    q = opts.get("q", 10)
    if q < 2:
        raise BadOption("q must be at least 2")
    with _option_values():
        profile = simulate.DriveProfile(**_given(opts, "seed", *_PROFILE))
    g = roadnet.load_graph(args.graph)
    gt = simulate.sample_route(g, q, **_given(opts, "seed"))
    scenario = simulate.synthesize_can(gt, g, profile)
    canlog.write_can_csv(scenario.log, args.out_log)
    _write_json(gt.to_dict(), args.out_truth)
    _log(
        "simulate",
        q=q,
        samples=scenario.log.speed.count,
        duration_s=f"{scenario.log.duration_s:.1f}",
        log=args.out_log,
        truth=args.out_truth,
    )
    return EXIT_OK


def cmd_build_trajectory(args, opts) -> int:
    log = canlog.read_can_csv(args.log)
    g = roadnet.load_graph(args.graph)
    _log("parse_log", speed_rows=log.speed.count, pedal_rows=log.pedal.count)
    traj = trajgraph.build_trajectory(log, g.min_edge_length_m, **_given(opts, *_TRAJECTORY))
    _write_json(traj.to_dict(), args.out)
    _log("build_trajectory", nodes=traj.node_count, edges=len(traj.edge_weights_m))
    return EXIT_OK


def cmd_attack(args, opts) -> int:
    with _option_values():
        mcfg = matcher.MatchConfig(**_given(opts, *_MATCH))
    t0 = time.monotonic()
    log = canlog.read_can_csv(args.log)
    g = roadnet.load_graph(args.graph)
    _log("parse", speed_rows=log.speed.count, graph_nodes=len(g.ids), kernel=backend())
    traj = trajgraph.build_trajectory(log, g.min_edge_length_m, **_given(opts, *_TRAJECTORY))
    _log("build_trajectory", nodes=traj.node_count)
    result = matcher.run_attack(g, traj, mcfg)
    _log(
        "match",
        candidates=len(result.candidates),
        sigma_used=result.sigma_used,
        truncated=result.truncated,
        elapsed_s=f"{time.monotonic() - t0:.3f}",
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(result.to_dict(), f"{args.out_dir}/result.json")
    _write_json(
        matcher.result_to_geojson(result, g), f"{args.out_dir}/candidates.geojson"
    )
    _log("write", result=f"{args.out_dir}/result.json")
    return EXIT_OK


def cmd_evaluate(args, opts) -> int:
    result = _read_json(args.result, "result", matcher.result_from_dict)
    gt = _read_json(args.truth, "truth", metrics.GroundTruth.from_dict)
    g = roadnet.load_graph(args.graph)
    # scoring looks every id up in the graph; an unknown one is an input error
    known = set(g.ids)
    named = [("result", nid) for c in result.candidates for nid in c.node_ids]
    named += [("truth", nid) for nid in gt.node_ids]
    for doc, nid in named:
        if nid not in known:
            raise DanglingNodeRef(f"{doc} names node {nid!r}, which is not in the graph")
    report = metrics.evaluate(result, gt, g)
    _write_json(report.to_dict(), args.out)
    fmt = lambda v: "na" if v is None else f"{v:.4f}"
    _log(
        "evaluate",
        psi=fmt(report.psi),
        precision=fmt(report.precision),
        offset_m=fmt(report.offset_m),
        fnr=fmt(report.fnr),
    )
    return EXIT_OK


# --- sweep ---


def _trial_seed(master: int, *parts: int) -> int:
    ss = np.random.SeedSequence((master,) + parts)
    return int(ss.generate_state(1)[0])


def _sweep_trial(
    master: int,
    spacing_m: float,
    grid_jitter: float,
    profile: simulate.DriveProfile,
    task: tuple,
) -> tuple:
    """One (cell, trial) run; module-level so worker processes can pick it up."""
    side_km, q, trial, mcfg = task
    si = int(round(side_km * 1000))
    grid_n = max(2, int(round(side_km * 1000.0 / spacing_m)) + 1)
    g = simulate.make_synthetic_grid(
        grid_n,
        spacing_m,
        grid_jitter,
        seed=_trial_seed(master, si, q, trial, 1),
    )
    try:
        gt = simulate.sample_route(g, q, seed=_trial_seed(master, si, q, trial, 2))
        profile = replace(profile, seed=_trial_seed(master, si, q, trial, 3))
        scenario = simulate.synthesize_can(gt, g, profile)
        traj = trajgraph.build_trajectory(scenario.log, g.min_edge_length_m)
        result = matcher.run_attack(g, traj, mcfg)
        report = metrics.evaluate(result, gt, g)
    except NothingProduced:
        return (0.0, None, None, None, 0)
    if not result.candidates:
        return (report.psi, None, None, None, 0)
    return (report.psi, report.precision, report.offset_m, report.fnr, 1)


def cmd_sweep(args, opts) -> int:
    sides = opts.get("sides-km", (1.5, 2.4, 3.3, 4.2))
    qs = opts.get("qs", (5, 10, 15))
    ks = opts.get("ks", (3,))
    trials = opts.get("trials", 5)
    workers = opts.get("workers", 1)
    master = opts.get("seed", 0)
    spacing = opts.get("spacing-m", 300.0)
    grid_jitter = opts.get("grid-jitter", 0.1)
    if not all(0 < s < math.inf for s in sides):
        raise BadOption("sides-km values must be positive and finite")
    if not all(q >= 2 for q in qs):
        raise BadOption("qs values must be at least 2")
    if trials < 1 or workers < 1:
        raise BadOption("trials and workers must be at least 1")
    with _option_values():
        profile = simulate.DriveProfile(**_given(opts, *_PROFILE))
        mcfg = matcher.MatchConfig(**_given(opts, *_MATCH))
        config_of_k = {k: replace(mcfg, k=k) for k in ks}
        # rejects the spacing and jitter that every trial's grid would reject
        simulate.make_synthetic_grid(2, spacing, grid_jitter)

    cells = [(s, q, k) for s in sides for q in qs for k in ks]
    tasks = [
        (side_km, q, trial, config_of_k[k]) for side_km, q, k in cells for trial in range(trials)
    ]
    run_trial = functools.partial(_sweep_trial, master, spacing, grid_jitter, profile)
    t0 = time.monotonic()
    if workers > 1:
        # the pool forks all its workers at the first submit, so never ask for more than can run
        n_procs = min(workers, len(tasks), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_procs) as pool:
            rows = list(pool.map(run_trial, tasks, chunksize=1))
    else:
        rows = [run_trial(t) for t in tasks]

    lines = [
        "side_km,q,k,trials,matched,psi_mean,precision_mean,offset_m_mean,fnr_mean"
    ]
    for ci, (side_km, q, k) in enumerate(cells):
        chunk = rows[ci * trials : (ci + 1) * trials]
        psi = np.mean([r[0] for r in chunk])
        matched = [r for r in chunk if r[4]]
        n_matched = len(matched)
        # unmatched trials pin coverage metrics to their floor values
        prec = np.mean([r[1] if r[4] else 0.0 for r in chunk])
        fnr = np.mean([r[3] if r[4] else 1.0 for r in chunk])
        offset = np.mean([r[2] for r in matched]) if matched else None
        lines.append(
            f"{side_km:g},{q},{k},{trials},{n_matched},"
            f"{psi:.6f},{prec:.6f},"
            + (f"{offset:.6f}," if offset is not None else "na,")
            + f"{fnr:.6f}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _log(
        "sweep",
        cells=len(cells),
        trials_per_cell=trials,
        workers=workers,
        elapsed_s=f"{time.monotonic() - t0:.3f}",
        out=args.out,
    )
    return EXIT_OK


# --- argument wiring ---

# command: (help, function, required path flags, options in --help order)
_COMMANDS = {
    "ingest-osm": ("OSM XML to road-graph JSON", cmd_ingest_osm, ("in", "out"), ("bbox",)),
    "make-grid": (
        "synthetic jittered grid graph", cmd_make_grid, ("out",),
        ("n", "spacing-m", "jitter", "seed", "origin"),
    ),
    "simulate": (
        "drive a random route, write CAN log", cmd_simulate,
        ("graph", "out-log", "out-truth"), ("q", "seed", *_PROFILE),
    ),
    "build-trajectory": (
        "CAN log to trajectory JSON", cmd_build_trajectory, ("log", "graph", "out"), _TRAJECTORY,
    ),
    "attack": (
        "log + graph to ranked candidate paths", cmd_attack,
        ("log", "graph", "out-dir"), (*_MATCH, *_TRAJECTORY),
    ),
    "evaluate": (
        "score a result against ground truth", cmd_evaluate,
        ("result", "truth", "graph", "out"), (),
    ),
    "sweep": (
        "grid of synthetic experiments to CSV", cmd_sweep, ("out",),
        (
            "sides-km", "qs", "ks", "trials", "seed", "workers", "spacing-m", "grid-jitter",
            "sigma-ladder", "max-candidates", "allow-node-reuse", *_PROFILE,
        ),
    ),
}

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canmatch",
        description="CAN-log trajectory reconstruction and road-network matching",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, func, paths, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for path in paths:
            # `in` is a Python keyword, so its value is read as args.infile
            p.add_argument(f"--{path}", dest="infile" if path == "in" else None, required=True)
        for name in names:
            flag = _OPTIONS[name][1]
            if flag is not None:
                p.add_argument(f"--{name}", **flag)
        p.add_argument("--config", help="JSON file of option defaults")
        p.set_defaults(func=func, options=names)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main() call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _options(args))
    except (CanMatchError, OSError, ValueError) as exc:
        if isinstance(exc, (InputError, OSError, json.JSONDecodeError)):
            code = EXIT_INPUT
        elif isinstance(exc, NothingProduced):
            code = EXIT_EMPTY
        else:
            code = EXIT_INVARIANT
        _log("error", kind=type(exc).__name__, exit=code)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
