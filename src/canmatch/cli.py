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
    EmptyLog,
    EmptyResult,
    InsufficientData,
    MalformedRow,
    NoDrivableWays,
    NonMonotonicTime,
    NoSuchPath,
    SchemaMismatch,
    TooFewNodes,
    TrajectoryTooShort,
    UnknownSignal,
    VersionUnsupported,
    XmlMalformed,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_INVARIANT = 4

_INPUT_ERRORS = (
    BadOption,
    EmptyLog,
    MalformedRow,
    UnknownSignal,
    NonMonotonicTime,
    XmlMalformed,
    NoDrivableWays,
    DanglingNodeRef,
    SchemaMismatch,
    VersionUnsupported,
    OSError,
    json.JSONDecodeError,
)
_EMPTY_ERRORS = (
    TooFewNodes,
    EmptyResult,
    InsufficientData,
    NoSuchPath,
    TrajectoryTooShort,
)


def _log(stage: str, **kv) -> None:
    parts = [f"stage={stage}"] + [f"{k}={v}" for k, v in kv.items()]
    print(" ".join(parts), file=sys.stderr)


def _write_json(doc: dict, path: str) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaMismatch("config file must hold a JSON object")
    return doc


def _setting(args, config: dict, name: str, default):
    """Flag beats config file beats default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(","))


def _profile_from(args, config: dict) -> simulate.DriveProfile:
    dwell = _setting(args, config, "dwell-s", "4,8")
    lo, hi = _parse_floats(dwell) if isinstance(dwell, str) else tuple(dwell)
    return simulate.DriveProfile(
        cruise_speed_mps=float(_setting(args, config, "cruise-mps", 10.0)),
        sample_period_s=float(_setting(args, config, "sample-period-s", 0.1)),
        stop_dwell_s=(lo, hi),
        turn_slowdown=float(_setting(args, config, "turn-slowdown", 0.3)),
        turn_window_s=float(_setting(args, config, "turn-window-s", 3.0)),
        pedal_idle=float(_setting(args, config, "pedal-idle", 14.0)),
        pedal_cruise=float(_setting(args, config, "pedal-cruise", 30.0)),
        speed_noise_std=float(_setting(args, config, "noise-std", 0.0)),
        stop_offset_m=float(_setting(args, config, "stop-offset-m", 0.0)),
        event_pattern=str(_setting(args, config, "event-pattern", "alternate")),
        seed=int(_setting(args, config, "seed", 0)),
    )


def _match_config_from(args, config: dict) -> matcher.MatchConfig:
    try:
        ladder = _setting(args, config, "sigma-ladder", matcher.DEFAULT_SIGMA_LADDER)
        if isinstance(ladder, str):
            ladder = _parse_floats(ladder)
        return matcher.MatchConfig(
            sigma_ladder=tuple(ladder),
            k=int(_setting(args, config, "k", 5)),
            max_candidates=int(
                _setting(args, config, "max-candidates", matcher.DEFAULT_MAX_CANDIDATES)
            ),
            allow_node_reuse=bool(_setting(args, config, "allow-node-reuse", False)),
        )
    except (TypeError, ValueError) as exc:
        raise BadOption(f"bad match option: {exc}") from exc


# --- subcommands ---


def cmd_ingest_osm(args) -> int:
    config = _load_config(args.config)
    t0 = time.monotonic()
    g = roadnet.read_osm_xml(args.infile)
    _log("ingest_osm", nodes=len(g.ids), edges=g.edge_count)
    bbox = _setting(args, config, "bbox", None)
    if bbox:
        lat, lon, side = _parse_floats(bbox) if isinstance(bbox, str) else tuple(bbox)
        g = roadnet.bbox_filter(g, lat, lon, side)
        _log("bbox_filter", nodes=len(g.ids), edges=g.edge_count, side_km=side)
    roadnet.save_graph(g, args.out)
    _log("write_graph", path=args.out, elapsed_s=f"{time.monotonic() - t0:.3f}")
    return EXIT_OK


def cmd_make_grid(args) -> int:
    config = _load_config(args.config)
    n = int(_setting(args, config, "n", 10))
    spacing = float(_setting(args, config, "spacing-m", 300.0))
    jitter = float(_setting(args, config, "jitter", 0.1))
    seed = int(_setting(args, config, "seed", 0))
    origin = _setting(args, config, "origin", (0.0, 0.0))
    if isinstance(origin, str):
        origin = _parse_floats(origin)
    g = simulate.make_synthetic_grid(
        n, spacing, jitter, seed=seed, origin=tuple(origin)
    )
    roadnet.save_graph(g, args.out)
    _log("make_grid", n=n, nodes=len(g.ids), edges=g.edge_count, path=args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    g = roadnet.load_graph(args.graph)
    q = int(_setting(args, config, "q", 10))
    seed = int(_setting(args, config, "seed", 0))
    profile = _profile_from(args, config)
    gt = simulate.sample_route(g, q, seed=seed)
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


def _build_traj(args, config, log, g):
    return trajgraph.build_trajectory(
        log,
        g.min_edge_length_m,
        pedal_idle_tol=float(_setting(args, config, "pedal-idle-tol", 0.5)),
        include_first_event=bool(
            _setting(args, config, "include-first-event", False)
        ),
    )


def cmd_build_trajectory(args) -> int:
    config = _load_config(args.config)
    log = canlog.read_can_csv(args.log)
    g = roadnet.load_graph(args.graph)
    stats = canlog.series_stats(log)
    _log(
        "parse_log",
        speed_rows=stats["speed"]["count"],
        pedal_rows=stats["pedal"]["count"],
    )
    traj = _build_traj(args, config, log, g)
    _write_json(traj.to_dict(), args.out)
    _log("build_trajectory", nodes=traj.node_count, edges=len(traj.edge_weights_m))
    return EXIT_OK


def cmd_attack(args) -> int:
    config = _load_config(args.config)
    mcfg = _match_config_from(args, config)
    t0 = time.monotonic()
    log = canlog.read_can_csv(args.log)
    g = roadnet.load_graph(args.graph)
    _log("parse", speed_rows=log.speed.count, graph_nodes=len(g.ids), kernel=backend())
    traj = _build_traj(args, config, log, g)
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


def cmd_evaluate(args) -> int:
    with open(args.result, "r", encoding="utf-8") as fh:
        result = matcher.result_from_dict(json.load(fh))
    with open(args.truth, "r", encoding="utf-8") as fh:
        gt = metrics.GroundTruth.from_dict(json.load(fh))
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
    idx, side_km, q, trial, mcfg = task
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
    except _EMPTY_ERRORS:
        return (idx, 0.0, None, None, None, 0)
    if not result.candidates:
        return (idx, report.psi, None, None, None, 0)
    return (idx, report.psi, report.precision, report.offset_m, report.fnr, 1)


def _sweep_settings(args, config: dict) -> tuple:
    """The sweep's grid and run settings, checked before any trial runs."""
    try:
        sides = _setting(args, config, "sides-km", (1.5, 2.4, 3.3, 4.2))
        if isinstance(sides, str):
            sides = _parse_floats(sides)
        qs = _setting(args, config, "qs", (5, 10, 15))
        if isinstance(qs, str):
            qs = _parse_ints(qs)
        ks = _setting(args, config, "ks", (3,))
        if isinstance(ks, str):
            ks = _parse_ints(ks)
        trials = int(_setting(args, config, "trials", 5))
        workers = int(_setting(args, config, "workers", 1))
        if not all(0 < s < math.inf for s in sides):
            raise BadOption("sides-km values must be positive and finite")
        if not all(q >= 2 for q in qs):
            raise BadOption("qs values must be at least 2")
        if not all(k >= 1 for k in ks):
            raise BadOption("ks values must be at least 1")
        if trials < 1 or workers < 1:
            raise BadOption("trials and workers must be at least 1")
    except (TypeError, ValueError) as exc:
        raise BadOption(f"bad sweep option: {exc}") from exc
    return sides, qs, ks, trials, workers


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    sides, qs, ks, trials, workers = _sweep_settings(args, config)
    master = int(_setting(args, config, "seed", 0))
    spacing = float(_setting(args, config, "spacing-m", 300.0))
    grid_jitter = float(_setting(args, config, "grid-jitter", 0.1))
    profile = _profile_from(args, config)
    mcfg = _match_config_from(args, config)

    cells = [(s, q, k) for s in sides for q in qs for k in ks]
    tasks = [
        (ci * trials + trial, side_km, q, trial, replace(mcfg, k=k))
        for ci, (side_km, q, k) in enumerate(cells)
        for trial in range(trials)
    ]
    run_trial = functools.partial(_sweep_trial, master, spacing, grid_jitter, profile)
    t0 = time.monotonic()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_trial, tasks, chunksize=1))
    else:
        rows = [run_trial(t) for t in tasks]
    rows.sort(key=lambda r: r[0])

    lines = [
        "side_km,q,k,trials,matched,psi_mean,precision_mean,offset_m_mean,fnr_mean"
    ]
    for ci, (side_km, q, k) in enumerate(cells):
        chunk = rows[ci * trials : (ci + 1) * trials]
        psi = np.mean([r[1] for r in chunk])
        matched = [r for r in chunk if r[5]]
        n_matched = len(matched)
        # unmatched trials pin coverage metrics to their floor values
        prec = np.mean([r[2] if r[5] else 0.0 for r in chunk])
        fnr = np.mean([r[4] if r[5] else 1.0 for r in chunk])
        offset = np.mean([r[3] for r in matched]) if matched else None
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


def _add_config(p) -> None:
    p.add_argument("--config", help="JSON file of option defaults")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canmatch",
        description="CAN-log trajectory reconstruction and road-network matching",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-osm", help="OSM XML to road-graph JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bbox", help="lat,lon,side_km square window")
    _add_config(p)
    p.set_defaults(func=cmd_ingest_osm)

    p = sub.add_parser("make-grid", help="synthetic jittered grid graph")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--spacing-m", type=float)
    p.add_argument("--jitter", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--origin", help="lat,lon of grid corner")
    _add_config(p)
    p.set_defaults(func=cmd_make_grid)

    p = sub.add_parser("simulate", help="drive a random route, write CAN log")
    p.add_argument("--graph", required=True)
    p.add_argument("--out-log", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--seed", type=int)
    _add_profile_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build-trajectory", help="CAN log to trajectory JSON")
    p.add_argument("--log", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pedal-idle-tol", type=float)
    p.add_argument("--include-first-event", action="store_const", const=True)
    _add_config(p)
    p.set_defaults(func=cmd_build_trajectory)

    p = sub.add_parser("attack", help="log + graph to ranked candidate paths")
    p.add_argument("--log", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--sigma-ladder", help="comma-separated ascending fractions")
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--pedal-idle-tol", type=float)
    p.add_argument("--include-first-event", action="store_const", const=True)
    _add_config(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="score a result against ground truth")
    p.add_argument("--result", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _add_config(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid of synthetic experiments to CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--sides-km", help="comma-separated map sizes")
    p.add_argument("--qs", help="comma-separated route lengths")
    p.add_argument("--ks", help="comma-separated top-K values")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--spacing-m", type=float)
    p.add_argument("--grid-jitter", type=float)
    p.add_argument("--sigma-ladder")
    p.add_argument("--max-candidates", type=int)
    _add_profile_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_sweep)

    return ap


def _add_profile_flags(p) -> None:
    p.add_argument("--cruise-mps", type=float)
    p.add_argument("--sample-period-s", type=float)
    p.add_argument("--dwell-s", help="lo,hi stop dwell seconds")
    p.add_argument("--turn-slowdown", type=float)
    p.add_argument("--turn-window-s", type=float)
    p.add_argument("--pedal-idle", type=float)
    p.add_argument("--pedal-cruise", type=float)
    p.add_argument("--noise-std", type=float, help="speed noise stdev, m/s")
    p.add_argument("--stop-offset-m", type=float)
    p.add_argument("--event-pattern", choices=simulate.EVENT_PATTERNS)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main() call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _log("error", kind=type(exc).__name__, exit=EXIT_INPUT)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _EMPTY_ERRORS as exc:
        _log("error", kind=type(exc).__name__, exit=EXIT_EMPTY)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (CanMatchError, ValueError) as exc:
        _log("error", kind=type(exc).__name__, exit=EXIT_INVARIANT)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
