"""Matcher tests: admission, escalation, ranking, oracle equivalence."""
from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from canmatch import _kernels
from canmatch.errors import OracleTooLarge, TrajectoryTooShort, Truncated
from canmatch.matcher import (
    DEFAULT_SIGMA_LADDER,
    AttackResult,
    CandidatePath,
    MatchConfig,
    brute_force_match,
    match_paths,
    result_from_dict,
    result_to_geojson,
    run_attack,
    top_k,
)
from canmatch.roadnet import RoadEdge, RoadGraph, RoadNode
from canmatch.simulate import make_synthetic_grid
from helpers import (
    equator_node,
    line_graph,
    path_weights,
    random_graph,
    reference_enumerate,
    some_path,
    traj_of,
    triangle_graph,
)


def _ids(cands) -> list[tuple[str, ...]]:
    return sorted(c.node_ids for c in cands)


# --- config validation


def test_config_defaults_valid():
    cfg = MatchConfig()
    assert cfg.sigma_ladder == DEFAULT_SIGMA_LADDER
    assert cfg.k == 5


@pytest.mark.parametrize(
    "ladder",
    [(), (0.1, 0.05), (0.1, 0.1), (0.0, 0.1), (-0.05,), (0.5, 1.2)],
)
def test_config_rejects_bad_ladder(ladder):
    with pytest.raises(ValueError):
        MatchConfig(sigma_ladder=ladder)


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        MatchConfig(k=0)
    with pytest.raises(ValueError):
        MatchConfig(max_candidates=0)


# --- admission (match_paths)


def test_triangle_single_edge_two_candidates():
    g = triangle_graph(100.0, 103.0, 200.0)
    cands = match_paths(g, traj_of([100.0]), 0.05)
    assert _ids(cands) == [("x", "y"), ("y", "z")]
    assert _ids(brute_force_match(g, traj_of([100.0]), 0.05)) == _ids(cands)


def test_tolerance_is_road_relative():
    # bound is sigma * road length, not sigma * trajectory weight
    g_long, _ = line_graph([105.1])
    assert len(match_paths(g_long, traj_of([100.0]), 0.05)) == 1
    g_short, _ = line_graph([100.0])
    assert len(match_paths(g_short, traj_of([105.1]), 0.05)) == 0


def test_trajectory_longer_than_any_simple_path():
    g, _ = line_graph([100.0, 100.0])
    assert match_paths(g, traj_of([100.0] * 5), 0.5) == []


def test_empty_graph_matches_nothing():
    g = RoadGraph([], [])
    assert match_paths(g, traj_of([100.0]), 0.05) == []
    assert brute_force_match(g, traj_of([100.0]), 0.05) == []


def test_sigma_must_be_positive():
    g = triangle_graph()
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            match_paths(g, traj_of([100.0]), bad)
        with pytest.raises(ValueError):
            brute_force_match(g, traj_of([100.0]), bad)


def test_trajectory_needs_an_edge():
    g = triangle_graph()
    with pytest.raises(TrajectoryTooShort):
        match_paths(g, traj_of([]), 0.05)


def test_truncation_warns_and_flags():
    g, _ = line_graph([100.0, 100.0, 100.0])
    with pytest.warns(Truncated):
        cands = match_paths(g, traj_of([100.0]), 0.05, max_candidates=1)
    assert len(cands) == 1
    res = run_attack(g, traj_of([100.0]), MatchConfig(k=5, max_candidates=1))
    assert res.truncated


def test_reversed_trajectory_stored_in_matching_orientation():
    g, _ = line_graph([100.0, 200.0, 300.0])
    cands = match_paths(g, traj_of([300.0, 200.0, 100.0]), 0.01)
    assert len(cands) == 1
    assert cands[0].node_ids == ("n3", "n2", "n1", "n0")
    assert cands[0].theta_m == 0.0
    assert cands[0].edge_lengths_m == (300.0, 200.0, 100.0)


def test_symmetric_weights_not_duplicated():
    g, _ = line_graph([100.0, 100.0, 100.0])
    cands = match_paths(g, traj_of([100.0, 100.0]), 0.05)
    keys = [min(c.node_ids, c.node_ids[::-1]) for c in cands]
    assert len(keys) == len(set(keys))
    assert _ids(cands) == _ids(brute_force_match(g, traj_of([100.0, 100.0]), 0.05))


def test_node_reuse_flag_admits_loops():
    nodes = [equator_node(f"p{i}", x) for i, x in enumerate([0.0, 100.0, 210.0, 330.0])]
    edges = [
        RoadEdge("p0", "p1", 100.0),
        RoadEdge("p1", "p2", 110.0),
        RoadEdge("p2", "p3", 120.0),
        RoadEdge("p3", "p1", 130.0),
    ]
    g = RoadGraph(nodes, edges)
    wr = [100.0, 110.0, 120.0, 130.0]
    assert match_paths(g, traj_of(wr), 0.01) == []
    looped = match_paths(g, traj_of(wr), 0.01, allow_node_reuse=True)
    assert _ids(looped) == [("p0", "p1", "p2", "p3", "p1")]
    oracle = brute_force_match(g, traj_of(wr), 0.01, allow_node_reuse=True)
    assert _ids(oracle) == _ids(looped)


# --- escalation


def test_escalate_stops_at_first_sufficient_rung():
    g, ids = line_graph([100.0, 150.0, 200.0])
    wr = path_weights(g, ids)
    cfg = MatchConfig(sigma_ladder=(0.02, 0.1), k=1)
    res = run_attack(g, traj_of(wr), cfg)
    assert len(res.candidates) >= 1
    assert res.sigma_used == 0.02
    assert all(c.sigma_used == 0.02 for c in res.candidates)


def test_escalate_exhausted_returns_empty():
    g, _ = line_graph([100.0])
    cfg = MatchConfig(sigma_ladder=(0.02, 0.1), k=1)
    res = run_attack(g, traj_of([5000.0]), cfg)
    assert res.candidates == []
    assert res.sigma_used == 0.1


def test_candidate_sets_nest_along_ladder():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(9, 40)))
        n_edges = int(rng.integers(1, 4))
        wr = list(rng.uniform(50.0, 500.0, size=n_edges))
        prev: set[tuple[str, ...]] = set()
        for sigma in (0.05, 0.15, 0.50):
            keys = {
                min(c.node_ids, c.node_ids[::-1])
                for c in match_paths(g, traj_of(wr), sigma)
            }
            assert prev <= keys
            prev = keys


# --- theta and ranking


def test_theta_examples():
    # theta is the mean absolute weight deviation per edge
    for road, wr, theta in (
        ([110.0, 190.0], [100.0, 200.0], 10.0),
        ([100.0, 200.0], [100.0, 200.0], 0.0),
        ([107.0], [100.0], 7.0),
    ):
        g, ids = line_graph(road)
        (c,) = match_paths(g, traj_of(wr), 0.1)
        assert c.node_ids == tuple(ids)
        assert c.residuals_m == (theta,) * len(road)
        assert c.theta_m == theta


def _cand(ids: tuple[str, ...], th: float) -> CandidatePath:
    lens = tuple(100.0 for _ in range(len(ids) - 1))
    return CandidatePath(ids, lens, lens, th, 0.05)


def test_top_k_sorts_and_cuts():
    cands = [_cand(("a", "b"), 5.0), _cand(("b", "c"), 0.0), _cand(("c", "d"), 9.0)]
    res = top_k(cands, 2)
    assert [c.theta_m for c in res.candidates] == [0.0, 5.0]
    assert len(top_k(cands, 10).candidates) == 3


def test_top_k_breaks_ties_by_node_ids():
    cands = [_cand(("z", "y"), 3.0), _cand(("a", "b"), 3.0)]
    first = top_k(cands, 2).candidates
    second = top_k(list(reversed(cands)), 2).candidates
    assert [c.node_ids for c in first] == [("a", "b"), ("z", "y")]
    assert first == second


def test_top_k_rejects_k_below_one():
    with pytest.raises(ValueError):
        top_k([], 0)


def test_self_match_ranks_first():
    rng = np.random.default_rng(47)
    done = 0
    while done < 20:
        g = random_graph(rng, int(rng.integers(9, 50)))
        path = some_path(g, int(rng.integers(3, 6)), rng)
        if path is None:
            continue
        done += 1
        traj = traj_of(path_weights(g, path))
        cands = match_paths(g, traj, 0.01)
        key = min(tuple(path), tuple(reversed(path)))
        selves = [c for c in cands if min(c.node_ids, c.node_ids[::-1]) == key]
        assert len(selves) == 1 and selves[0].theta_m == 0.0
        best = top_k(cands, 1).candidates[0]
        assert best.theta_m == 0.0


# --- oracle equivalence and admission invariant


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(9, 60)))
        n_edges = int(rng.integers(2, 6))
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
        fast = match_paths(g, traj_of(list(wr)), sigma)
        slow = brute_force_match(g, traj_of(list(wr)), sigma)
        assert [c.node_ids for c in fast] == [c.node_ids for c in slow]
        for a, b in zip(fast, slow):
            assert a.edge_lengths_m == b.edge_lengths_m
            assert a.theta_m == b.theta_m
        for c in fast:
            lens = np.array(c.edge_lengths_m)
            assert np.all(np.array(c.residuals_m) <= sigma * lens)


def test_oracle_refuses_large_graphs():
    g, _ = line_graph([100.0] * 205)
    with pytest.raises(OracleTooLarge):
        brute_force_match(g, traj_of([100.0]), 0.05)


# --- result packaging


def test_attack_result_round_trips_through_json():
    g = triangle_graph()
    res = run_attack(g, traj_of([100.0]), MatchConfig(k=2))
    doc = json.loads(json.dumps(res.to_dict()))
    back = result_from_dict(doc)
    assert back.candidates == res.candidates
    assert back.config == res.config
    assert back.sigma_used == res.sigma_used
    assert back.truncated == res.truncated
    assert back.trajectory.to_dict() == res.trajectory.to_dict()


def test_result_document_spells_out_every_config_and_candidate_field():
    traj = traj_of([100.0])
    cfg = MatchConfig(sigma_ladder=(0.1, 0.3), k=2, max_candidates=7, allow_node_reuse=True)
    cand = CandidatePath(("a", "b"), (101.0,), (1.0,), 1.0, 0.1)
    doc = AttackResult([cand], traj, cfg, sigma_used=0.1).to_dict()
    assert json.loads(json.dumps(doc)) == {
        "sigma_used": 0.1,
        "truncated": False,
        "config": {
            "sigma_ladder": [0.1, 0.3],
            "k": 2,
            "max_candidates": 7,
            "allow_node_reuse": True,
        },
        "trajectory": traj.to_dict(),
        "candidates": [
            {
                "rank": 1,
                "node_ids": ["a", "b"],
                "edge_lengths_m": [101.0],
                "residuals_m": [1.0],
                "theta_m": 1.0,
                "sigma_used": 0.1,
            }
        ],
    }


def test_run_attack_reports_sigma_used():
    g = triangle_graph()
    res = run_attack(g, traj_of([100.0]), MatchConfig(sigma_ladder=(0.05, 0.1), k=2))
    assert res.sigma_used == 0.05
    assert [c.theta_m for c in res.candidates] == [0.0, 3.0]


def test_geojson_lists_candidates_as_linestrings():
    g = triangle_graph()
    res = run_attack(g, traj_of([100.0]), MatchConfig(k=2))
    gj = result_to_geojson(res, g)
    assert gj["type"] == "FeatureCollection"
    assert [f["properties"]["rank"] for f in gj["features"]] == [1, 2]
    for f, c in zip(gj["features"], res.candidates):
        geom = f["geometry"]
        assert geom["type"] == "LineString"
        assert len(geom["coordinates"]) == len(c.node_ids)
        for (lon, lat), nid in zip(geom["coordinates"], c.node_ids):
            assert (lon, lat) == (g.nodes[nid].lon, g.nodes[nid].lat)


# --- ranking shortcut


def _tied_graph(rng: np.random.Generator) -> RoadGraph:
    """Random graph whose edges take one of three lengths, so thetas tie often."""
    g = random_graph(rng, int(rng.integers(9, 40)))
    edges = [
        RoadEdge(e.u, e.v, float(rng.choice([100.0, 110.0, 120.0]))) for e in g.edges
    ]
    return RoadGraph(list(g.nodes.values()), edges)


def test_run_attack_ranks_like_top_k_over_the_full_list():
    rng = np.random.default_rng(59)
    tied = truncated = 0
    for _ in range(60):
        g = _tied_graph(rng)
        wr = list(rng.choice([100.0, 110.0, 120.0], size=int(rng.integers(1, 5))))
        cfg = MatchConfig(
            sigma_ladder=(0.05, 0.15),
            k=int(rng.integers(1, 9)),
            max_candidates=int(rng.choice([7, 100_000])),
        )
        res = run_attack(g, traj_of(wr), cfg)
        # reference: climb the ladder one rung at a time, rank the full list
        for sigma in cfg.sigma_ladder:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                full = match_paths(
                    g, traj_of(wr), sigma, max_candidates=cfg.max_candidates
                )
            if len(full) >= cfg.k:
                break
        ref = top_k(full, cfg.k)
        assert res.candidates == ref.candidates
        assert res.sigma_used == sigma
        assert res.truncated == any(w.category is Truncated for w in caught)
        thetas = [c.theta_m for c in res.candidates]
        tied += len(set(thetas)) < len(thetas)
        truncated += res.truncated
    assert tied > 0 and truncated > 0


# --- search kernel


def test_backend_reports_a_known_name():
    assert _kernels.backend() == "numpy"


@pytest.mark.parametrize("block_rows", [3, _kernels.BLOCK_ROWS])
def test_block_kernel_matches_reference_dfs(monkeypatch, block_rows):
    # small blocks make the kernel split and stack blocks even on small graphs
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(9, 50)))
        indptr, nbrs, lens = g.indptr, g.nbrs, g.lens
        n_edges = int(rng.integers(1, 5))
        path = some_path(g, n_edges + 1, rng)
        if path is None:
            continue
        sigma = float(rng.choice([0.1, 0.3, 0.5]))
        wr = np.array(path_weights(g, path)) * rng.uniform(0.9, 1.1, size=n_edges)
        q = n_edges + 1
        for reuse in (False, True):
            args = (indptr, nbrs, lens, wr, sigma)
            exact, _ = reference_enumerate(
                *args, 100_000, reuse, np.empty(100_000 * q, dtype=np.int64)
            )
            for cap in (1, 37, exact, 100_000):
                want_out = np.empty(cap * q, dtype=np.int64)
                got_out = np.empty(cap * q, dtype=np.int64)
                want = reference_enumerate(*args, cap, reuse, want_out)
                got = _kernels.enumerate_matches(*args, cap, reuse, got_out)
                assert got == want
                count = want[0]
                assert np.array_equal(got_out[: count * q], want_out[: count * q])
                checked += count > 0
    assert checked > 0


def test_hostile_query_stops_at_the_cap_in_bounded_memory():
    # 40x40 grid, 15-node query at sigma 0.5: far more than 100k paths match
    g = make_synthetic_grid(40, 300.0, 0.1, seed=1)
    indptr, nbrs, lens = g.indptr, g.nbrs, g.lens
    wr = np.full(14, 300.0)
    cap = 100_000
    out = np.empty(cap * 15, dtype=np.int64)
    tracemalloc.start()
    try:
        got = _kernels.enumerate_matches(indptr, nbrs, lens, wr, 0.5, cap, False, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (100_000, True)
    assert peak < 256 * 2**20
