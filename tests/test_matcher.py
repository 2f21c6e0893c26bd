"""Matcher tests: admission, escalation, ranking, oracle equivalence."""
from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from canmatch import _kernels
from canmatch.errors import TrajectoryTooShort
from canmatch.matcher import (
    DEFAULT_SIGMA_LADDER,
    AttackResult,
    CandidatePath,
    MatchConfig,
    result_from_dict,
    result_to_geojson,
    run_attack,
)
from canmatch.roadnet import RoadEdge, RoadGraph, RoadNode
from canmatch.simulate import make_synthetic_grid
from helpers import (
    OracleTooLarge,
    all_matches,
    brute_force_match,
    equator_node,
    graph_of,
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
    [
        (), (0.1, 0.05), (0.1, 0.1), (0.0, 0.1), (-0.05,), (0.5, 1.2),
        (math.nan,), (0.05, math.nan),
    ],
)
def test_config_rejects_bad_ladder(ladder):
    with pytest.raises(ValueError):
        MatchConfig(sigma_ladder=ladder)


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        MatchConfig(k=0)
    with pytest.raises(ValueError):
        MatchConfig(max_candidates=0)


# --- admission (one rung, nothing cut)


def test_triangle_single_edge_two_candidates():
    g = triangle_graph(100.0, 103.0, 200.0)
    cands = all_matches(g, traj_of([100.0]), 0.05)
    assert _ids(cands) == [("x", "y"), ("y", "z")]
    assert _ids(brute_force_match(g, traj_of([100.0]), 0.05)) == _ids(cands)


def test_tolerance_is_road_relative():
    # bound is sigma * road length, not sigma * trajectory weight
    g_long, _ = line_graph([105.1])
    assert len(all_matches(g_long, traj_of([100.0]), 0.05)) == 1
    g_short, _ = line_graph([100.0])
    assert len(all_matches(g_short, traj_of([105.1]), 0.05)) == 0


def test_trajectory_longer_than_any_simple_path():
    g, _ = line_graph([100.0, 100.0])
    assert all_matches(g, traj_of([100.0] * 5), 0.5) == []


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("extra", [0, 1, 5])
def test_kernel_query_with_more_nodes_than_the_map(extra, reuse):
    # a simple path cannot have more nodes than the map, and the line itself
    # has as many; with reuse, paths bounce back and forth along the line
    g, _ = line_graph([100.0, 100.0])
    wr = np.full(len(g.ids) + extra - 1, 100.0)
    exact = _assert_kernel_equals_reference(g.indptr, g.nbrs, g.lens, wr, 0.5, reuse)
    assert (exact > 0) == (reuse or extra == 0)


def test_empty_graph_matches_nothing():
    g = graph_of([], [])
    assert all_matches(g, traj_of([100.0]), 0.05) == []
    assert brute_force_match(g, traj_of([100.0]), 0.05) == []


def test_sigma_must_be_positive():
    g = triangle_graph()
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            all_matches(g, traj_of([100.0]), bad)
        with pytest.raises(ValueError):
            brute_force_match(g, traj_of([100.0]), bad)


def test_trajectory_needs_an_edge():
    g = triangle_graph()
    with pytest.raises(TrajectoryTooShort):
        all_matches(g, traj_of([]), 0.05)


def test_truncation_flags_the_result():
    g, _ = line_graph([100.0, 100.0, 100.0])
    rung = run_attack(g, traj_of([100.0]), MatchConfig((0.05,), k=1, max_candidates=1))
    assert rung.truncated
    assert len(rung.candidates) == 1
    res = run_attack(g, traj_of([100.0]), MatchConfig(k=5, max_candidates=1))
    assert res.truncated


def test_cap_larger_than_memory_gives_the_default_result():
    # nothing is sized by the cap, so a cap no memory could hold is no error
    g = make_synthetic_grid(6, 300.0, 0.1, seed=3)
    wr = path_weights(g, some_path(g, 7, np.random.default_rng(3)))
    want = run_attack(g, traj_of(wr), MatchConfig(max_candidates=100_000))
    got = run_attack(g, traj_of(wr), MatchConfig(max_candidates=10**18))
    assert want.candidates
    assert (got.candidates, got.sigma_used, got.truncated) == (
        want.candidates, want.sigma_used, want.truncated
    )


def test_reversed_trajectory_stored_in_matching_orientation():
    g, _ = line_graph([100.0, 200.0, 300.0])
    cands = all_matches(g, traj_of([300.0, 200.0, 100.0]), 0.01)
    assert len(cands) == 1
    assert cands[0].node_ids == ("n3", "n2", "n1", "n0")
    assert cands[0].theta_m == 0.0
    assert cands[0].edge_lengths_m == (300.0, 200.0, 100.0)


def test_symmetric_weights_not_duplicated():
    g, _ = line_graph([100.0, 100.0, 100.0])
    cands = all_matches(g, traj_of([100.0, 100.0]), 0.05)
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
    g = graph_of(nodes, edges)
    wr = [100.0, 110.0, 120.0, 130.0]
    assert all_matches(g, traj_of(wr), 0.01) == []
    looped = all_matches(g, traj_of(wr), 0.01, allow_node_reuse=True)
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
                for c in all_matches(g, traj_of(wr), sigma)
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
        (c,) = all_matches(g, traj_of(wr), 0.1)
        assert c.node_ids == tuple(ids)
        assert c.residuals_m == (theta,) * len(road)
        assert c.theta_m == theta


def test_top_k_sorts_and_cuts():
    # in node-id order the thetas are 5, 0, 9
    g, _ = line_graph([105.0, 100.0, 109.0])
    cfg = MatchConfig((0.1,), k=2)
    res = run_attack(g, traj_of([100.0]), cfg)
    assert [c.theta_m for c in res.candidates] == [0.0, 5.0]
    res = run_attack(g, traj_of([100.0]), dataclasses.replace(cfg, k=10))
    assert [c.theta_m for c in res.candidates] == [0.0, 5.0, 9.0]


def test_top_k_breaks_ties_by_node_ids():
    # every edge ties at theta 0, and the ids run against the line's order
    names = ["e", "d", "c", "b", "a"]
    nodes = [equator_node(n, 100.0 * i) for i, n in enumerate(names)]
    edges = [RoadEdge(u, v, 100.0) for u, v in zip(names, names[1:])]
    res = run_attack(graph_of(nodes, edges), traj_of([100.0]), MatchConfig(k=3))
    assert [c.node_ids for c in res.candidates] == [("a", "b"), ("b", "c"), ("c", "d")]


def test_replaced_config_rejects_k_below_one():
    # sweep derives each cell's config this way
    with pytest.raises(ValueError):
        dataclasses.replace(MatchConfig(), k=0)


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
        cands = all_matches(g, traj, 0.01)
        key = min(tuple(path), tuple(reversed(path)))
        selves = [c for c in cands if min(c.node_ids, c.node_ids[::-1]) == key]
        assert len(selves) == 1 and selves[0].theta_m == 0.0
        best = run_attack(g, traj, MatchConfig((0.01,), k=1)).candidates[0]
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
        fast = all_matches(g, traj_of(list(wr)), sigma)
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
    return graph_of(list(g.nodes.values()), edges)


def test_run_attack_ranks_like_top_k_over_the_full_list():
    rng = np.random.default_rng(59)
    tied = truncated = oracled = 0
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
        cap = cfg.max_candidates
        for sigma in cfg.sigma_ladder:
            rung = run_attack(g, traj_of(wr), MatchConfig((sigma,), k=cap, max_candidates=cap))
            if len(rung.candidates) >= cfg.k:
                break
        by_rank = lambda c: (c.theta_m, c.node_ids)
        assert res.candidates == sorted(rung.candidates, key=by_rank)[: cfg.k]
        assert res.sigma_used == sigma
        assert res.truncated == rung.truncated
        if cap == 100_000:
            # and against the exhaustive oracle, field by field
            assert not res.truncated
            oracle = brute_force_match(g, traj_of(wr), sigma)
            assert res.candidates == sorted(oracle, key=by_rank)[: cfg.k]
            oracled += 1
        thetas = [c.theta_m for c in res.candidates]
        tied += len(set(thetas)) < len(thetas)
        truncated += res.truncated
    assert tied > 0 and truncated > 0 and oracled > 0


# --- search kernel


def test_backend_reports_a_known_name():
    assert _kernels.backend() == "numpy"


def _assert_kernel_equals_reference(indptr, nbrs, lens, wr, sigma, reuse) -> int:
    """Kernel against reference_enumerate at caps 1, 37, exact and 100,000;
    returns the exact count."""
    q = wr.shape[0] + 1
    args = (indptr, nbrs, lens, wr, sigma)
    exact, _ = reference_enumerate(
        *args, 100_000, reuse, np.empty(100_000 * q, dtype=np.int64)
    )
    for cap in (1, 37, exact, 100_000):
        want_out = np.empty(cap * q, dtype=np.int64)
        found = []
        want = reference_enumerate(*args, cap, reuse, want_out)
        got = _kernels.enumerate_matches(*args, cap, reuse, found)
        assert got == want
        count = want[0]
        # a row is the start node, then the CSR slot of each edge taken
        rows = np.concatenate(found) if found else np.empty((0, q), dtype=np.int64)
        assert rows.shape == (count, q) and rows.dtype == np.int64
        slots = rows[:, 1:]
        nodes = np.concatenate((rows[:, :1], nbrs[slots]), axis=1)
        assert np.array_equal(nodes.ravel(), want_out[: count * q])
        prev = nodes[:, :-1]
        assert ((indptr[prev] <= slots) & (slots < indptr[prev + 1])).all()
        assert (np.abs(lens[slots] - wr) <= sigma * lens[slots]).all()
    return exact


@pytest.mark.parametrize("block_rows", [3, _kernels.BLOCK_ROWS])
def test_block_kernel_matches_reference_dfs(monkeypatch, block_rows):
    # small blocks make the kernel split and stack blocks even on small graphs
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(9, 50)))
        n_edges = int(rng.integers(1, 5))
        path = some_path(g, n_edges + 1, rng)
        if path is None:
            continue
        sigma = float(rng.choice([0.1, 0.3, 0.5]))
        wr = np.array(path_weights(g, path)) * rng.uniform(0.9, 1.1, size=n_edges)
        for reuse in (False, True):
            exact = _assert_kernel_equals_reference(g.indptr, g.nbrs, g.lens, wr, sigma, reuse)
            checked += exact > 0
    assert checked > 0


@pytest.mark.parametrize("block_rows", [3, _kernels.BLOCK_ROWS])
def test_block_kernel_matches_reference_dfs_where_most_prefixes_die(monkeypatch, block_rows):
    # Random graphs plus isolated nodes and leaves hung off them by edges
    # over twice as long as any other, so that a weight fitting a leaf edge
    # fits no other edge. The query follows a walk out of a leaf, reversed:
    # as is, only walks into a leaf complete; followed by its own reverse,
    # the walk goes into a leaf and back out, which only node reuse admits;
    # with a weight no edge fits, no node is alive at depth 0.
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(19)
    checked = {"last": 0, "middle": 0, "none": 0}
    for trial in range(30):
        g = random_graph(rng, int(rng.integers(9, 50)))
        spacing = float(g.lens.max())
        nodes, edges = list(g.nodes.values()), g.edges
        for i in range(int(rng.integers(1, 4))):
            nodes.append(equator_node(f"iso{i}", -spacing * (i + 1), lat=1.0))
        leaves = int(rng.integers(1, 4))
        for i in range(leaves):
            nodes.append(equator_node(f"leaf{i}", -spacing * (i + 1), lat=-1.0))
            hub = g.ids[int(rng.integers(len(g.ids)))]
            edges.append(RoadEdge(hub, f"leaf{i}", spacing * float(rng.uniform(2.5, 2.7))))
        g = graph_of(nodes, edges)
        n_edges = int(rng.integers(2, 6))
        walk = [int(g.index([f"leaf{int(rng.integers(leaves))}"])[0])]
        while len(walk) <= n_edges:
            row = g.nbrs[g.indptr[walk[-1]] : g.indptr[walk[-1] + 1]].tolist()
            fresh = [v for v in row if v not in walk]
            if not fresh:
                break
            walk.append(fresh[int(rng.integers(len(fresh)))])
        if len(walk) <= n_edges:
            continue
        wr = np.array(path_weights(g, [g.ids[i] for i in reversed(walk)]))
        wr *= rng.uniform(0.97, 1.03, size=n_edges)
        mode = ("last", "middle", "none")[trial % 3]
        if mode == "middle":
            wr = np.concatenate((wr, wr[::-1]))
        elif mode == "none":
            wr[int(rng.integers(n_edges))] = spacing * 10.0
        for reuse in (False, True):
            exact = _assert_kernel_equals_reference(g.indptr, g.nbrs, g.lens, wr, 0.1, reuse)
            assert (exact > 0) == (mode == "last" or (mode == "middle" and reuse))
        checked[mode] += 1
    assert min(checked.values()) > 0


def test_hostile_query_stops_at_the_cap_in_bounded_memory():
    # 40x40 grid, 15-node query at sigma 0.5: far more than 100k paths match
    g = make_synthetic_grid(40, 300.0, 0.1, seed=1)
    indptr, nbrs, lens = g.indptr, g.nbrs, g.lens
    wr = np.full(14, 300.0)
    cap = 100_000
    found = []
    tracemalloc.start()
    try:
        got = _kernels.enumerate_matches(indptr, nbrs, lens, wr, 0.5, cap, False, found)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (100_000, True)
    assert np.concatenate(found).shape == (100_000, 15)
    # the found rows count too: tracemalloc sees every block appended
    assert peak < 256 * 2**20
