"""Simulator tests: grids, routes, and CAN log synthesis."""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from canmatch import (
    DriveProfile,
    MatchConfig,
    build_trajectory,
    evaluate,
    make_synthetic_grid,
    run_attack,
    sample_route,
    save_graph,
    synthesize_can,
)
from canmatch import simulate
from canmatch.canlog import to_csv
from canmatch.errors import NoSuchPath
from canmatch.simulate import EVENT_PATTERNS
from canmatch.trajgraph import positions_m
from helpers import (
    line_graph,
    path_weights,
    reference_synthesize_can,
    reference_synthetic_grid,
)


# --- profile validation


def test_profile_defaults_valid():
    p = DriveProfile()
    assert p.cruise_speed_mps == 10.0
    assert p.sample_period_s == 0.1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cruise_speed_mps": 0.0},
        {"sample_period_s": -0.1},
        {"stop_dwell_s": (0.0, 5.0)},
        {"stop_dwell_s": (6.0, 5.0)},
        {"turn_slowdown": 1.0},
        {"turn_window_s": 0.05},
        {"pedal_cruise": 15.0},
        {"speed_noise_std": -1.0},
        {"stop_offset_m": -1.0},
        {"event_pattern": "weave"},
        {"lead_in_m": 10.0},
        # non-finite values
        {"cruise_speed_mps": math.nan},
        {"cruise_speed_mps": math.inf},
        {"sample_period_s": math.nan},
        {"stop_dwell_s": (1.0, math.inf)},
        {"stop_dwell_s": (math.nan, 5.0)},
        {"turn_slowdown": math.nan},
        {"turn_window_s": math.nan},
        {"turn_window_s": math.inf},
        {"pedal_idle": math.nan},
        {"pedal_idle": -math.inf},
        {"pedal_cruise": math.inf},
        {"speed_noise_std": math.nan},
        {"speed_noise_std": math.inf},
        {"stop_offset_m": math.nan},
        {"lead_in_m": math.nan},
        {"lead_in_m": math.inf},
        {"tail_m": math.nan},
        {"tail_m": math.inf},
    ],
)
def test_profile_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DriveProfile(**kwargs)


# --- synthetic grids


def test_smallest_grid_shape():
    g = make_synthetic_grid(2, 100.0, 0.0)
    assert len(g.nodes) == 4
    assert len(g.edges) == 4
    assert all(e.length_m == pytest.approx(100.0, rel=1e-9) for e in g.edges)


def test_unjittered_grid_min_edge_is_spacing():
    # east-west edges shrink sub-micrometer with latitude on the sphere
    g = make_synthetic_grid(3, 250.0, 0.0)
    assert g.min_edge_length_m == pytest.approx(250.0, abs=1e-4)


def test_grid_is_seed_deterministic():
    a = make_synthetic_grid(5, 300.0, 0.2, seed=42)
    b = make_synthetic_grid(5, 300.0, 0.2, seed=42)
    assert a == b
    c = make_synthetic_grid(5, 300.0, 0.2, seed=43)
    assert c != a


def test_grid_equals_per_node_reference():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        spacing = float(rng.uniform(50.0, 500.0))
        jitter = float(rng.choice([0.0, 0.1, 0.3, 0.49]))
        origin = (float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0)))
        seed = int(rng.integers(2**32))
        got = make_synthetic_grid(n, spacing, jitter, seed=seed, origin=origin)
        assert got == reference_synthetic_grid(n, spacing, jitter, seed, origin)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_synthetic_grid(1, 100.0, 0.0)
    with pytest.raises(ValueError):
        make_synthetic_grid(3, 100.0, 0.6)
    # a node at or past a pole has no east-west direction
    for origin in ((90.0, 0.0), (95.0, 0.0), (-90.0, 0.0), (89.999, 0.0)):
        with pytest.raises(ValueError, match="latitudes"):
            make_synthetic_grid(3, 300.0, 0.0, origin=origin)
    # past the antimeridian, or so large that the longitude step is lost in float
    for lon in (540.0, -180.5, 1e308, float("nan")):
        with pytest.raises(ValueError, match="longitude"):
            make_synthetic_grid(3, 300.0, 0.0, origin=(0.0, lon))


def test_grid_edge_count_formula():
    # n*(n-1) horizontal plus n*(n-1) vertical
    g = make_synthetic_grid(4, 200.0, 0.1, seed=3)
    assert len(g.nodes) == 16
    assert len(g.edges) == 24


# --- route sampling


def test_route_on_single_edge_graph():
    g, ids = line_graph([500.0])
    gt = sample_route(g, 2, seed=1)
    assert sorted(gt.node_ids) == sorted(ids)


def test_route_nodes_are_adjacent():
    g = make_synthetic_grid(10, 300.0, 0.1, seed=5)
    for seed in range(10):
        gt = sample_route(g, 5, seed=seed)
        assert len(gt.node_ids) == 5
        for a, b in zip(gt.node_ids, gt.node_ids[1:]):
            assert g.edge_slot(a, b) >= 0


def test_route_longer_than_graph_raises():
    g, _ = line_graph([100.0, 100.0])
    with pytest.raises(NoSuchPath):
        sample_route(g, 10, seed=0)
    with pytest.raises(ValueError):
        sample_route(g, 1, seed=0)


def test_route_walk_needs_no_recursion_depth():
    # a recursive walk would pass the interpreter's recursion limit here
    g, ids = line_graph([10.0] * 1199)
    gt = sample_route(g, 1000, seed=0)
    steps = np.diff([ids.index(nid) for nid in gt.node_ids])
    assert len(gt.node_ids) == 1000
    assert (steps == steps[0]).all() and abs(steps[0]) == 1


def test_route_walk_stops_at_its_expansion_budget(monkeypatch):
    g = make_synthetic_grid(6, 300.0, 0.1, seed=1)
    monkeypatch.setattr(simulate, "ROUTE_EXPANSIONS", 50)
    # a Hamiltonian path takes more than 50 expansions to find here
    with pytest.raises(NoSuchPath, match="50 expansions"):
        sample_route(g, 36, seed=0)
    assert len(sample_route(g, 8, seed=0).node_ids) == 8


# --- log synthesis


def _two_edge_scenario(dwell: float = 5.0):
    g, ids = line_graph([500.0, 500.0])
    gt = sample_route(g, 3, seed=0)
    profile = DriveProfile(stop_dwell_s=(dwell, dwell), event_pattern="stops")
    return g, synthesize_can(gt, g, profile)


def test_two_edge_route_duration_and_distances():
    # 200 lead-in + 1000 route + 80 tail at 10 m/s = 128 s moving,
    # plus 3 dwells of 5 s
    g, scen = _two_edge_scenario()
    assert scen.log.duration_s == pytest.approx(143.0, abs=2.0)
    zero = np.flatnonzero(scen.log.speed.values == 0.0)
    splits = np.flatnonzero(np.diff(zero) > 1)
    groups = np.split(zero, splits + 1)
    assert len(groups) == 3
    t = scen.log.speed.times
    pos = positions_m(scen.log.speed, [t[grp[0]] for grp in groups])
    for d in np.diff(pos):
        assert d == pytest.approx(500.0, rel=0.01)


def test_same_seed_logs_are_byte_identical():
    g = make_synthetic_grid(6, 300.0, 0.1, seed=9)
    gt = sample_route(g, 6, seed=9)
    p = DriveProfile(speed_noise_std=0.4, seed=123)
    a = to_csv(synthesize_can(gt, g, p).log)
    b = to_csv(synthesize_can(gt, g, p).log)
    assert a == b
    c = to_csv(synthesize_can(gt, g, replace(p, seed=124)).log)
    assert c != a


def test_all_stop_pattern_recovers_exactly_q_nodes():
    g = make_synthetic_grid(8, 300.0, 0.1, seed=21)
    for q, seed in ((5, 1), (10, 2), (15, 3)):
        gt = sample_route(g, q, seed=seed)
        scen = synthesize_can(gt, g, DriveProfile(event_pattern="stops"))
        traj = build_trajectory(scen.log, g.min_edge_length_m)
        assert len(traj.nodes) == q
        assert all(n.kind == "stop" for n in traj.nodes)


def test_alternating_pattern_recovers_both_kinds():
    g = make_synthetic_grid(8, 300.0, 0.1, seed=22)
    gt = sample_route(g, 7, seed=4)
    scen = synthesize_can(gt, g, DriveProfile())
    traj = build_trajectory(scen.log, g.min_edge_length_m)
    kinds = [n.kind for n in traj.nodes]
    assert kinds == ["stop", "turn", "stop", "turn", "stop", "turn", "stop"]


def test_synthesis_equals_per_sample_reference():
    # the same draws in the same order and the same float arithmetic, over
    # speeds and periods whose per-sample step is not a whole number of meters
    rng = np.random.default_rng(31)
    g = make_synthetic_grid(8, 300.0, 0.2, seed=31)
    for trial in range(40):
        cruise = float(rng.uniform(4.0, 20.0))
        slowdown, window = float(rng.uniform(0.1, 0.9)), float(rng.uniform(2.0, 4.0))
        offset = float(rng.choice([0.0, 4.0, 15.0]))
        profile = DriveProfile(
            cruise_speed_mps=cruise,
            sample_period_s=float(rng.choice([0.02, 0.05, 0.1, 0.3, 1 / 3])),
            stop_dwell_s=(1.0, float(rng.uniform(1.0, 6.0))),
            turn_slowdown=slowdown,
            turn_window_s=window,
            speed_noise_std=float(rng.choice([0.0, 0.0, 0.3, 2.0])),
            stop_offset_m=offset,
            # the shortest lead-in the profile accepts, plus a random margin
            lead_in_m=offset + slowdown * cruise * window + cruise + float(rng.uniform(0.5, 30.0)),
            tail_m=float(rng.choice([0.0, 0.5, 80.0])),
            event_pattern=str(rng.choice(EVENT_PATTERNS)),
            seed=trial,
        )
        gt = sample_route(g, int(rng.integers(2, 9)), seed=trial)
        want = to_csv(reference_synthesize_can(gt, g, profile))
        assert to_csv(synthesize_can(gt, g, profile).log) == want


def test_zero_speed_only_during_dwells():
    g = make_synthetic_grid(6, 300.0, 0.1, seed=30)
    gt = sample_route(g, 5, seed=30)
    p = DriveProfile(speed_noise_std=0.556, seed=30)
    scen = synthesize_can(gt, g, p)
    v = scen.log.speed.values
    zero = np.flatnonzero(v == 0.0)
    # zero-speed samples come in dwell-length runs, never as isolated dips
    splits = np.flatnonzero(np.diff(zero) > 1)
    for grp in np.split(zero, splits + 1):
        assert grp.size >= 2


def test_route_distance_conserved_within_one_percent():
    g = make_synthetic_grid(7, 280.0, 0.15, seed=40)
    gt = sample_route(g, 8, seed=40)
    scen = synthesize_can(gt, g, DriveProfile(event_pattern="stops"))
    traj = build_trajectory(scen.log, g.min_edge_length_m)
    true_total = sum(path_weights(g, list(gt.node_ids)))
    assert float(np.sum(traj.edge_weights_m)) == pytest.approx(true_total, rel=0.01)


def test_noise_free_closed_loop_single_instance():
    g = make_synthetic_grid(10, 300.0, 0.1, seed=50)
    gt = sample_route(g, 10, seed=50)
    scen = synthesize_can(gt, g, DriveProfile())
    traj = build_trajectory(scen.log, g.min_edge_length_m)
    res = run_attack(g, traj, MatchConfig(k=1))
    rep = evaluate(res, gt, g)
    top = res.candidates[0].node_ids
    assert top in (gt.node_ids, gt.node_ids[::-1])
    assert (rep.psi, rep.precision, rep.offset_m, rep.fnr) == (1.0, 1.0, 0.0, 0.0)


def test_route_hopping_missing_edge_rejected():
    g, _ = line_graph([100.0, 100.0])
    from canmatch.metrics import GroundTruth

    fake = GroundTruth(node_ids=("n0", "n2"))
    with pytest.raises(ValueError):
        synthesize_can(fake, g, DriveProfile())


# --- pinned bytes
# SHA-256 of the text the simulator and the writers produce. Any change to the
# draws, the arithmetic or the formatting of a drive or a map shows here.

LOG_SHA256 = {
    "noise_free": ({}, "ae3efa44002d83912709f35c8249924ea03c28d7c41fa5cf492c5af9e4795163"),
    "stop_offset": (
        {"stop_offset_m": 10.0},
        "69989ed48abbdf874087bb125b4fab226519bdad0f7904d2e1ea7342cf77608d",
    ),
    "speed_noise": (
        {"speed_noise_std": 0.2},
        "d3ff586d5a897cf6ca7a2090df1c03488e035a0e7f991b1ff95751f953272204",
    ),
    "stops": (
        {"event_pattern": "stops"},
        "f82f1ce38b55f8f46daa08c1471f9566a726a9581edcf3837ee552428372993b",
    ),
}


@pytest.mark.parametrize("name", sorted(LOG_SHA256))
def test_synthesized_log_bytes_are_pinned(name):
    kwargs, want = LOG_SHA256[name]
    g = make_synthetic_grid(9, 300.0, 0.1, seed=3)
    gt = sample_route(g, 8, seed=3)
    assert gt.node_ids == ("n7_2", "n6_2", "n5_2", "n5_3", "n5_4", "n5_5", "n6_5", "n6_4")
    text = to_csv(synthesize_can(gt, g, DriveProfile(seed=11, **kwargs)).log)
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "n, seed, want",
    [
        (9, 3, "8c7a8106e0b2818d0eda3c58ab614186a3e33a197c894f8854eab28df8e3ee74"),
        (40, 5, "738ab9886d8f05ed441c84cc28df9d7847812f8ede7515bc3344c876d3f77b20"),
    ],
)
def test_grid_map_bytes_are_pinned(tmp_path, n, seed, want):
    path = tmp_path / "grid.json"
    save_graph(make_synthetic_grid(n, 300.0, 0.1, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
