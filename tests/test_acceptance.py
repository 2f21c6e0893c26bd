"""Release gate: each test pins one headline guarantee of the toolkit.

These are deliberately heavier than the per-module suites; together they
exercise the full pipeline (simulate -> reconstruct -> match -> score) and
the CLI at the scales the library is meant to handle.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from canmatch.canlog import SpeedSeries
from canmatch.cli import main as cli_main
from canmatch.errors import InsufficientData, NoSuchPath, TooFewNodes
from canmatch.matcher import (
    DEFAULT_SIGMA_LADDER,
    CandidatePath,
    MatchConfig,
    brute_force_match,
    match_paths,
    run_attack,
)
from canmatch.metrics import GroundTruth, evaluate
from canmatch.roadnet import RoadGraph
from canmatch.simulate import (
    DriveProfile,
    make_synthetic_grid,
    sample_route,
    synthesize_can,
)
from canmatch.trajgraph import build_trajectory, compute_threshold, positions_m
from helpers import equator_node, path_weights, random_graph, some_path, traj_of


# --- 1: the pruned search returns exactly what exhaustive enumeration does


def test_matcher_equals_exhaustive_oracle_on_1000_instances():
    # compile the enumeration kernel once before the clock starts
    match_paths(random_graph(np.random.default_rng(0), 9), traj_of([100.0]), 0.05)
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        n_hint = int(rng.integers(9, 201))
        # long queries only on small graphs; keeps the oracle side tractable
        hi = 4 if n_hint > 100 else (6 if n_hint > 49 else 9)
        n_edges = int(rng.integers(2, hi))
        g = random_graph(rng, n_hint)
        sigma = float(DEFAULT_SIGMA_LADDER[rng.integers(len(DEFAULT_SIGMA_LADDER))])
        if rng.random() < 0.5:
            path = some_path(g, n_edges + 1, rng)
            if path is None:
                continue
            wr = np.array(path_weights(g, path)) * rng.uniform(
                1 - sigma / 2, 1 + sigma / 2, size=n_edges
            )
        else:
            wr = rng.uniform(50.0, 600.0, size=n_edges)
        done += 1
        fast = match_paths(g, traj_of(list(wr)), sigma)
        slow = brute_force_match(g, traj_of(list(wr)), sigma)
        assert [c.node_ids for c in fast] == [c.node_ids for c in slow]
        for a, b in zip(fast, slow):
            assert a.edge_lengths_m == b.edge_lengths_m
            assert a.theta_m == b.theta_m
    assert time.perf_counter() - t0 < 60.0


# --- 2 and 3: closed-loop route recovery on jittered grids


def _closed_loop_trial(master: int, i: int, noise_std: float):
    ss = np.random.SeedSequence([master, i]).generate_state(3)
    g = make_synthetic_grid(10, 300.0, 0.10, seed=int(ss[0]))
    q = (5, 10, 15)[i % 3]
    gt = sample_route(g, q, seed=int(ss[1]))
    prof = DriveProfile(speed_noise_std=noise_std, seed=int(ss[2]))
    scen = synthesize_can(gt, g, prof)
    traj = build_trajectory(scen.log, g.min_edge_length_m)
    res = run_attack(g, traj, MatchConfig(k=1))
    return res, gt, evaluate(res, gt, g)


def test_noise_free_closed_loop_recovers_every_route():
    t0 = time.perf_counter()
    for i in range(100):
        res, gt, rep = _closed_loop_trial(7, i, 0.0)
        top = res.candidates[0].node_ids
        assert top in (gt.node_ids, gt.node_ids[::-1])
        assert (rep.psi, rep.precision, rep.offset_m, rep.fnr) == (1.0, 1.0, 0.0, 0.0)
    assert time.perf_counter() - t0 < 120.0


def test_noisy_closed_loop_recovers_at_least_95_of_100():
    # speed noise sigma = 2% of the 10 m/s cruise
    wins = sum(
        _closed_loop_trial(13, i, 0.2)[2].psi == 1.0 for i in range(100)
    )
    assert wins >= 95


# --- 4: rectangle-method distance is analytic for piecewise-constant speed


def test_piecewise_constant_distance_is_analytically_exact():
    rng = np.random.default_rng(43)
    for _ in range(50):
        k = int(rng.integers(3, 9))
        speeds = rng.uniform(0.0, 130.0, size=k)
        counts = rng.integers(5, 51, size=k)
        dt = float(rng.choice([0.05, 0.1, 0.2, 0.5, 1.0]))
        # one closing sample so the last segment has a full right edge
        values = np.concatenate([np.repeat(speeds, counts), [0.0]])
        times = np.arange(values.size) * dt
        series = SpeedSeries(times=times, values=values)
        bounds = np.concatenate(([0], np.cumsum(counts))) * dt
        segs = list(zip(bounds[:-1], bounds[1:], speeds))

        def analytic(a: float, b: float) -> float:
            return math.fsum(
                v / 3.6 * max(0.0, min(b, e) - max(a, s)) for s, e, v in segs
            )

        spans = [(0.0, float(times[-1]))]
        for _ in range(3):
            i, j = sorted(rng.choice(times.size, size=2, replace=False))
            spans.append((float(times[i]), float(times[j])))
        for a, b in spans:
            pos_a, pos_b = positions_m(series, [a, b])
            assert pos_b - pos_a == pytest.approx(analytic(a, b), rel=1e-9, abs=1e-9)


# --- 5: gap clustering always lands in the support gap


def test_threshold_splits_bimodal_gaps_in_100_of_100_draws():
    # many sub-second within-event gaps, a few tightly grouped travel gaps
    rng = np.random.default_rng(5)
    for _ in range(100):
        lo_a = rng.uniform(0.02, 0.1)
        low = rng.uniform(lo_a, lo_a + rng.uniform(0.02, 0.3), size=rng.integers(20, 201))
        hi_a = rng.uniform(20.0, 60.0)
        high = rng.uniform(hi_a, hi_a + rng.uniform(2.0, hi_a / 3), size=rng.integers(2, 15))
        gaps = np.concatenate([low, high])
        rng.shuffle(gaps)
        delta = compute_threshold(gaps)
        assert low.max() <= delta < high.min()


# --- 6: scoring identities on arbitrary ranked results


class _Result:
    """Bare candidate holder; only .candidates is read by the metrics."""

    def __init__(self, id_lists):
        self.candidates = [
            CandidatePath(tuple(ids), (), (), 0.0, 0.05) for ids in id_lists
        ]


@pytest.mark.filterwarnings("ignore::canmatch.errors.PairingTruncated")
def test_metric_identities_on_random_ranked_results():
    rng = np.random.default_rng(83)
    pool = [f"v{i}" for i in range(30)]
    g = RoadGraph([equator_node(v, 100.0 * i) for i, v in enumerate(pool)], [])
    for _ in range(100):
        q = int(rng.integers(2, 9))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        ranked = [
            tuple(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
            for _ in range(10)
        ]
        prev = 0.0
        for k in range(1, 11):
            rep = evaluate(_Result(ranked[:k]), gt, g)
            assert rep.precision + rep.fnr == 1.0
            assert rep.psi >= prev
            prev = rep.psi


# --- 7: widening the tolerance never loses a candidate


def test_candidate_sets_grow_monotonically_with_tolerance():
    rng = np.random.default_rng(71)
    done = 0
    while done < 100:
        g = random_graph(rng, int(rng.integers(9, 60)))
        n_edges = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            path = some_path(g, n_edges + 1, rng)
            if path is None:
                continue
            wr = list(
                np.array(path_weights(g, path))
                * rng.uniform(0.9, 1.1, size=n_edges)
            )
        else:
            wr = list(rng.uniform(50.0, 500.0, size=n_edges))
        done += 1
        prev: set[tuple[str, ...]] = set()
        for sigma in DEFAULT_SIGMA_LADDER:
            keys = {
                min(c.node_ids, c.node_ids[::-1])
                for c in match_paths(g, traj_of(wr), sigma)
            }
            assert prev <= keys
            prev = keys


# --- 8: recovery degrades with map area and improves with route length


def _spearman(x, y) -> float:
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size, dtype=np.float64)
        r[order] = np.arange(1, v.size + 1, dtype=np.float64)
        for val in np.unique(v):
            m = v == val
            if m.sum() > 1:
                r[m] = r[m].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return 0.0 if denom == 0.0 else float((rx @ ry) / denom)


def _trend_trial_psi(master: int, side_km: float, q: int) -> list[float]:
    """Mean-ready psi values for one sweep cell, 24 displaced-stop trials."""
    spacing = 300.0
    n = max(2, round(side_km * 1000 / spacing) + 1)
    out = []
    for trial in range(24):
        ss = np.random.SeedSequence(
            [master, int(side_km * 1000), q, trial]
        ).generate_state(3)
        g = make_synthetic_grid(n, spacing, 0.10, seed=int(ss[0]))
        try:
            gt = sample_route(g, q, seed=int(ss[1]))
        except NoSuchPath:
            continue
        prof = DriveProfile(stop_offset_m=20.0, seed=int(ss[2]))
        scen = synthesize_can(gt, g, prof)
        try:
            traj = build_trajectory(scen.log, g.min_edge_length_m)
        except (TooFewNodes, InsufficientData):
            out.append(0.0)
            continue
        res = run_attack(g, traj, MatchConfig(k=5))
        out.append(evaluate(res, gt, g).psi)
    return out


@pytest.mark.filterwarnings("ignore::canmatch.errors.PairingTruncated")
def test_success_trends_down_with_area_and_up_with_route_length():
    sides = [0.9, 1.5, 2.4, 3.0]
    qs = [5, 10, 15]
    area_sign_ok = 0
    length_sign_ok = 0
    for master in range(10):
        by_side = [float(np.mean(_trend_trial_psi(master, s, 8))) for s in sides]
        by_q = [float(np.mean(_trend_trial_psi(master, 2.4, q))) for q in qs]
        if _spearman(sides, by_side) < 0.0:
            area_sign_ok += 1
        if _spearman(qs, by_q) > 0.0:
            length_sign_ok += 1
    assert area_sign_ok >= 9
    assert length_sign_ok >= 9


# --- 9: attack and sweep are reproducible to the byte


def test_attack_and_sweep_outputs_are_byte_deterministic(tmp_path):
    graph = tmp_path / "grid.json"
    log = tmp_path / "drive.csv"
    truth = tmp_path / "truth.json"
    assert cli_main(
        ["make-grid", "--out", str(graph), "--n", "6", "--spacing-m", "300",
         "--jitter", "0.1", "--seed", "11"]
    ) == 0
    assert cli_main(
        ["simulate", "--graph", str(graph), "--out-log", str(log),
         "--out-truth", str(truth), "--q", "6", "--seed", "11"]
    ) == 0

    attack_runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(
            ["attack", "--log", str(log), "--graph", str(graph),
             "--out-dir", str(out), "--k", "3"]
        ) == 0
        attack_runs.append(
            ((out / "result.json").read_bytes(),
             (out / "candidates.geojson").read_bytes())
        )
    assert attack_runs[0] == attack_runs[1]

    sweep_args = [
        "--sides-km", "0.9,1.2", "--qs", "5", "--ks", "1,3",
        "--trials", "2", "--seed", "5", "--spacing-m", "300",
    ]
    sweeps = []
    for name, workers in (("s1", 1), ("s2", 1), ("p", 2)):
        csv_path = tmp_path / f"{name}.csv"
        assert cli_main(
            ["sweep", "--out", str(csv_path), "--workers", str(workers), *sweep_args]
        ) == 0
        sweeps.append(csv_path.read_bytes())
    assert sweeps[0] == sweeps[1] == sweeps[2]
