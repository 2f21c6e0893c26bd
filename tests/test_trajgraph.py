"""Trajectory reconstruction: candidates, clustering, extraction, merge."""
from __future__ import annotations

import numpy as np
import pytest

from canmatch.canlog import CanLog, PedalSeries, SpeedSeries
from canmatch.errors import (
    BadOption,
    DegenerateClusters,
    InsufficientData,
    NoCandidates,
    TooFewNodes,
)
from canmatch.simulate import DriveProfile, make_synthetic_grid, sample_route, synthesize_can
from canmatch.trajgraph import (
    TrajectoryGraph,
    TrajectoryNode,
    build_trajectory,
    candidate_points,
    compute_threshold,
    extract_nodes,
    merge_nodes,
    positions_m,
)

from helpers import constant_speed_log, reference_merge_nodes


def _speed(times, values) -> SpeedSeries:
    return SpeedSeries(
        times=np.asarray(times, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
    )


def _pedal(times, values) -> PedalSeries:
    return PedalSeries(
        times=np.asarray(times, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
    )


def _distance(series, t_a, t_b) -> float:
    """Meters driven over [t_a, t_b)."""
    a, b = positions_m(series, [t_a, t_b])
    return float(b - a)


def _merge(nodes, speed, min_edge_m) -> list[TrajectoryNode]:
    """merge_nodes on the arrays of a node list, back as nodes; the positions
    it returns must be those of the survivors."""
    times = np.array([n.event_time_s for n in nodes], dtype=np.float64)
    is_turn = np.array([n.kind == "turn" for n in nodes], dtype=bool)
    rows, pos = merge_nodes(times, is_turn, speed, min_edge_m)
    assert pos.tobytes() == positions_m(speed, times[rows]).tobytes()
    return [nodes[i] for i in rows]


def _stops_at(times, stops) -> SpeedSeries:
    """Speed series over times: zero at the given stops, 36 km/h elsewhere."""
    times = np.asarray(times, dtype=np.float64)
    return _speed(times, np.where(np.isin(times, stops), 0.0, 36.0))


# --- candidate extraction


def test_speed_candidates_are_zero_samples():
    c = candidate_points(_speed([0.0, 0.1, 0.2], [0.0, 5.0, 0.0]))
    assert c.tolist() == [0.0, 0.2]


def test_pedal_candidates_near_idle():
    c = candidate_points(_pedal([0.0, 0.1, 0.2], [14.0, 14.0, 30.0]))
    assert c.tolist() == [0.0, 0.1]


def test_no_candidates_warns():
    with pytest.warns(NoCandidates):
        c = candidate_points(_speed([0.0, 0.1], [3.0, 5.0]))
    assert c.size == 0


def test_pedal_tolerance_is_configurable():
    series = _pedal([0.0, 0.1, 0.2], [14.0, 15.0, 30.0])
    assert candidate_points(series).size == 1
    assert candidate_points(series, pedal_idle_tol=1.5).size == 2


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_pedal_tolerance_must_be_finite_and_non_negative(tol):
    series = _pedal([0.0, 0.1, 0.2], [14.0, 15.0, 30.0])
    with pytest.raises(BadOption):
        candidate_points(series, pedal_idle_tol=tol)
    assert candidate_points(series, pedal_idle_tol=0.0).size == 1


# --- gaps and threshold


def test_candidate_gaps_example():
    c = candidate_points(_stops_at([0.0, 0.1, 20.0, 45.3], [0.0, 0.1, 45.3]))
    assert np.diff(c).tolist() == pytest.approx([0.1, 45.2])
    # midway between the short cluster's 0.1 and the long cluster's 45.2
    assert compute_threshold(np.diff(c)) == pytest.approx(22.65)


def _skipped_branch(stops, count):
    # one idle pedal sample skips the turn branch too, so no event survives
    times = np.arange(0.0, 100.0)
    pedal = np.where(times == 50.0, 14.0, 30.0)
    log = CanLog(speed=_stops_at(times, stops), pedal=_pedal(times.copy(), pedal))
    with pytest.warns(NoCandidates, match=f"only {count} stop candidate"):
        with pytest.raises(TooFewNodes):
            build_trajectory(log, min_edge_m=50.0)


@pytest.mark.filterwarnings("ignore::canmatch.errors.NoCandidates")
def test_two_candidates_give_one_gap_and_no_threshold():
    c = candidate_points(_stops_at([0.0, 1.0, 2.5, 9.0], [1.0, 2.5]))
    assert np.diff(c).tolist() == [1.5]
    with pytest.raises(InsufficientData):
        compute_threshold(np.diff(c))
    _skipped_branch([1.0, 3.0], 2)


@pytest.mark.filterwarnings("ignore::canmatch.errors.NoCandidates")
def test_single_candidate_gives_no_gap():
    c = candidate_points(_stops_at([0.0, 1.0, 2.0], [1.0]))
    assert np.diff(c).size == 0
    with pytest.raises(InsufficientData):
        compute_threshold(np.diff(c))
    _skipped_branch([1.0], 1)


def test_threshold_bimodal_example():
    gaps = np.array([0.1] * 9 + [60.0, 61.0])
    assert compute_threshold(gaps) == pytest.approx(30.05)


def test_threshold_degenerate_equal_gaps():
    with pytest.warns(DegenerateClusters):
        delta = compute_threshold(np.array([5.0, 5.0, 5.0, 5.0]))
    assert delta == 5.0


def test_threshold_empty():
    with pytest.raises(InsufficientData):
        compute_threshold(np.array([]))


def test_threshold_separates_disjoint_supports():
    # gap mix mirroring a real log: many sub-second jitter gaps within one
    # event, a handful of travel gaps whose spread is small next to their
    # distance from zero
    rng = np.random.default_rng(11)
    for _ in range(40):
        lo_a = rng.uniform(0.02, 0.1)
        low = rng.uniform(lo_a, lo_a + rng.uniform(0.02, 0.3), size=rng.integers(20, 201))
        hi_a = rng.uniform(20.0, 60.0)
        high = rng.uniform(hi_a, hi_a + rng.uniform(2.0, hi_a / 3), size=rng.integers(2, 15))
        gaps = np.concatenate([low, high])
        rng.shuffle(gaps)
        delta = compute_threshold(gaps)
        assert delta >= low.max()
        assert delta < high.min()


# --- node extraction


def test_extract_nodes_hand_trace():
    # three runs, each firing at its last candidate
    fired = extract_nodes(np.array([0.0, 0.1, 0.2, 45.3, 45.4, 99.0]), delta=1.0)
    assert fired.tolist() == [0.2, 45.4, 99.0]


def test_extract_single_candidate_fires():
    assert extract_nodes(np.array([3.0]), delta=0.5).tolist() == [3.0]


def test_extract_all_gaps_below_delta():
    # one run, so one event
    assert extract_nodes(np.array([0.0, 0.1, 0.2]), delta=1.0).tolist() == [0.2]


def test_extract_fires_on_float_equal_gap():
    # gaps equal to delta must fire even when 0.1-grid arithmetic wobbles
    times = np.arange(50) * 0.1
    assert extract_nodes(times, delta=0.1).size == 50


def _run_ends(mask) -> np.ndarray:
    """Indices of the last sample of each run of consecutive True samples."""
    mask = np.asarray(mask, dtype=bool)
    return np.flatnonzero(mask & ~np.append(mask[1:], False))


@pytest.mark.parametrize("pattern", ["alternate", "stops"])
@pytest.mark.parametrize("noise_std, stop_offset_m", [(0.0, 0.0), (0.2, 0.0), (0.0, 10.0)])
def test_extraction_fires_once_per_stop_or_turn(pattern, noise_std, stop_offset_m):
    # a dwell is a run of consecutive zero-speed samples, and the pedal idles
    # through each dwell and on one sample at each turn; each branch fires
    # exactly once per run, at the run's last sample
    g = make_synthetic_grid(5, 300.0, 0.1, seed=3)
    for seed in range(5):
        gt = sample_route(g, 8, seed=seed)
        profile = DriveProfile(
            event_pattern=pattern, speed_noise_std=noise_std,
            stop_offset_m=stop_offset_m, seed=seed,
        )
        log = synthesize_can(gt, g, profile).log
        idle = np.abs(log.pedal.values - log.pedal.idle_value) <= 0.5
        for series, mask, events in (
            (log.speed, log.speed.values == 0.0, 8 if pattern == "stops" else 4),
            (log.pedal, idle, 8),
        ):
            cands = candidate_points(series)
            fired = extract_nodes(cands, compute_threshold(np.diff(cands)))
            assert fired.tolist() == series.times[_run_ends(mask)].tolist()
            assert fired.size == events


# --- distance integration


def test_segment_distance_constant_speed():
    log = constant_speed_log(36.0, 100.0)
    assert _distance(log.speed, 0.0, 100.0) == pytest.approx(1000.0)


def test_segment_distance_piecewise():
    times = np.arange(0.0, 101.0)
    values = np.where(times < 50, 36.0, 72.0)
    d = _distance(_speed(times, values), 0.0, 100.0)
    assert d == pytest.approx(1500.0)


def test_segment_distance_zero_speed():
    times = np.arange(0.0, 10.0)
    assert _distance(_speed(times, np.zeros(10)), 0.0, 9.0) == 0.0


def test_rectangle_method_exact_on_aligned_steps():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        dt = float(rng.choice([0.1, 0.5, 1.0]))
        times = np.arange(n) * dt
        values = rng.uniform(0, 130, size=n)
        a_i, b_i = sorted(rng.choice(n, size=2, replace=False))
        if a_i == b_i:
            continue
        exact = float(np.sum(values[a_i:b_i] / 3.6 * dt))
        got = _distance(_speed(times, values), times[a_i], times[b_i])
        assert got == pytest.approx(exact, rel=1e-9)


# --- merging


def test_merge_hand_trace():
    # 10 m/s at 1 s sampling; nodes at 0/50/52/82 -> distances 500, 20, 300
    log = constant_speed_log(36.0, 120.0)
    nodes = [TrajectoryNode(t, "stop") for t in (0.0, 50.0, 52.0, 82.0)]
    merged = _merge(nodes, log.speed, 50.0)
    assert [n.event_time_s for n in merged] == [0.0, 52.0, 82.0]
    d1 = _distance(log.speed, 0.0, 52.0)
    d2 = _distance(log.speed, 52.0, 82.0)
    assert d1 == pytest.approx(520.0)
    assert d2 == pytest.approx(300.0)


def test_merge_noop_when_all_far():
    log = constant_speed_log(36.0, 100.0)
    nodes = [TrajectoryNode(t, "stop") for t in (0.0, 30.0, 70.0)]
    assert _merge(nodes, log.speed, 50.0) == nodes


def test_merge_co_timed_pair_keeps_the_stop():
    # a stopped vehicle reads pedal-idle too; the zero-speed node wins
    log = constant_speed_log(36.0, 10.0)
    nodes = [TrajectoryNode(2.0, "stop"), TrajectoryNode(2.0, "turn")]
    merged = _merge(nodes, log.speed, 1.0)
    assert len(merged) == 1
    assert merged[0].kind == "stop"


def test_merge_keeps_distance_equal_to_cutoff():
    # exactly min_edge apart must survive, not fall to float dust
    log = constant_speed_log(36.0, 40.0)
    nodes = [TrajectoryNode(0.0, "stop"), TrajectoryNode(10.0, "stop")]
    assert len(_merge(nodes, log.speed, 100.0)) == 2
    assert len(_merge(nodes, log.speed, 100.001)) == 1


def test_merge_postcondition_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(60, 300))
        times = np.arange(n) * 1.0
        speeds = rng.uniform(0, 90, size=n)
        series = _speed(times, speeds)
        k = int(rng.integers(2, 12))
        node_times = np.sort(rng.choice(n - 1, size=k, replace=False)).astype(float)
        nodes = [TrajectoryNode(float(t), "stop") for t in node_times]
        min_edge = float(rng.uniform(10, 400))
        merged = _merge(nodes, series, min_edge)
        for a, b in zip(merged, merged[1:]):
            d = _distance(series, a.event_time_s, b.event_time_s)
            assert d >= min_edge * (1 - 1e-9)


def _flood_drive(rng):
    """Speed series with stops and slow stretches, plus a node at every
    sample of them (up to about 900), so that long chains merge, and a few
    co-timed stop/turn pairs and off-grid node times, shuffled."""
    n = int(rng.integers(400, 2500))
    times = np.arange(n) * float(rng.choice([0.1, 0.5, 1.0]))
    speeds = rng.uniform(20.0, 60.0, size=n)
    nodes = []
    for _ in range(int(rng.integers(2, 12))):
        a = int(rng.integers(n - 1))
        b = min(n - 1, a + int(rng.integers(5, 150)))
        kind = "stop" if rng.random() < 0.5 else "turn"
        speeds[a:b] = 0.0 if kind == "stop" else rng.uniform(0.0, 8.0)
        nodes += [TrajectoryNode(float(t), kind) for t in times[a:b]]
    for t in rng.choice(times, size=int(rng.integers(0, 20))):
        nodes += [TrajectoryNode(float(t), "stop"), TrajectoryNode(float(t), "turn")]
    for t in rng.uniform(times[0], times[-1], size=int(rng.integers(0, 20))):
        nodes.append(TrajectoryNode(float(t), "turn"))
    nodes = list({(nd.event_time_s, nd.kind): nd for nd in nodes}.values())
    rng.shuffle(nodes)
    return _speed(times, speeds), nodes


def test_merge_matches_pairwise_reference():
    rng = np.random.default_rng(57)
    for _ in range(60):
        series, nodes = _flood_drive(rng)
        if rng.random() < 0.5:
            min_edge = float(rng.uniform(1.0, 150.0))
        else:  # a cutoff float-equal to the distance between two near nodes
            ts = sorted(nd.event_time_s for nd in nodes)
            a = int(rng.integers(len(ts) - 1))
            b = min(len(ts) - 1, a + int(rng.integers(1, 4)))
            min_edge = _distance(series, ts[a], ts[b]) or 1.0
        assert _merge(nodes, series, min_edge) == reference_merge_nodes(
            nodes, series, min_edge
        )


def test_build_weights_equal_pairwise_distances_bit_for_bit():
    for seed in range(12):
        g = make_synthetic_grid(6, 300.0, 0.1, seed=seed)
        gt = sample_route(g, 6, seed=seed)
        profile = DriveProfile(
            speed_noise_std=0.2 * (seed % 2), stop_offset_m=10.0 * (seed % 3), seed=seed
        )
        log = synthesize_can(gt, g, profile).log
        traj = build_trajectory(log, g.min_edge_length_m)
        pairs = zip(traj.nodes, traj.nodes[1:])
        expected = [_distance(log.speed, a.event_time_s, b.event_time_s) for a, b in pairs]
        assert traj.edge_weights_m.tobytes() == np.array(expected).tobytes()


def test_merge_requires_positive_cutoff():
    log = constant_speed_log(36.0, 10.0)
    with pytest.raises(ValueError):
        merge_nodes([], [], log.speed, 0.0)


# --- full pipeline


def _two_stop_log() -> CanLog:
    # dwell 3 samples, cruise 10 m/s for 80 s, dwell 3 samples; 1 Hz
    speeds, pedals = [], []
    for _ in range(3):
        speeds.append(0.0)
        pedals.append(14.0)
    for _ in range(80):
        speeds.append(36.0)
        pedals.append(30.0)
    for _ in range(3):
        speeds.append(0.0)
        pedals.append(14.0)
    times = np.arange(len(speeds), dtype=np.float64)
    return CanLog(
        speed=_speed(times, speeds), pedal=_pedal(times.copy(), pedals)
    )


def test_build_trajectory_two_stops():
    # the pedal idles at both stops too; each co-timed pair keeps its stop
    traj = build_trajectory(_two_stop_log(), min_edge_m=100.0)
    assert [(n.event_time_s, n.kind) for n in traj.nodes] == [(2.0, "stop"), (85.0, "stop")]
    assert traj.edge_weights_m[0] == pytest.approx(800.0)


@pytest.mark.filterwarnings("ignore::canmatch.errors.NoCandidates")
@pytest.mark.filterwarnings("ignore::canmatch.errors.DegenerateClusters")
def test_build_trajectory_constant_cruise_has_no_nodes():
    with pytest.raises(TooFewNodes):
        build_trajectory(constant_speed_log(36.0, 100.0), min_edge_m=50.0)


@pytest.mark.parametrize("min_edge_m", [50.0, 0.0])
def test_build_trajectory_without_events_raises_too_few_nodes(min_edge_m):
    # both branches skipped: no event reaches the merge's check of min_edge_m
    times = np.arange(0.0, 100.0)
    log = CanLog(speed=_speed(times, np.full(100, 36.0)), pedal=_pedal(times.copy(), times))
    with pytest.warns(NoCandidates) as caught:
        with pytest.raises(TooFewNodes, match=r"^0 node\(s\) after merging"):
            build_trajectory(log, min_edge_m=min_edge_m)
    assert [str(w.message) for w in caught] == [
        "no stop candidates in series",
        "only 1 turn candidate(s); branch skipped",
    ]


def _first_turn_log() -> CanLog:
    # 1 Hz cruise at 10 m/s; the pedal idles alone at t=30, then with the
    # vehicle at the stops t=81-83 and t=144-146
    times = np.arange(180.0)
    speeds, pedals = np.full(180, 36.0), np.full(180, 30.0)
    pedals[30] = 14.0
    for a in (81, 144):
        speeds[a : a + 3] = 0.0
        pedals[a : a + 3] = 14.0
    return CanLog(speed=_speed(times, speeds), pedal=_pedal(times.copy(), pedals))


def test_build_trajectory_fires_on_the_first_run():
    # the idle pedal at t=30 is the turn branch's first run, a single
    # candidate; it yields its event like every later run
    traj = build_trajectory(_first_turn_log(), min_edge_m=100.0)
    assert [(n.event_time_s, n.kind) for n in traj.nodes] == [
        (30.0, "turn"), (83.0, "stop"), (146.0, "stop")
    ]
    assert traj.edge_weights_m.tolist() == [510.0, 600.0]


def test_build_trajectory_simulator_route():
    from canmatch.metrics import GroundTruth
    from canmatch.simulate import DriveProfile, make_synthetic_grid, synthesize_can

    g = make_synthetic_grid(4, 300.0, 0.0, seed=0)
    gt = GroundTruth(node_ids=("n0_0", "n0_1", "n0_2", "n1_2", "n2_2"))
    scen = synthesize_can(gt, g, DriveProfile(seed=5))
    traj = build_trajectory(scen.log, g.min_edge_length_m)
    assert traj.node_count == 5
    for w in traj.edge_weights_m:
        assert w == pytest.approx(300.0, rel=0.05)


def test_both_branches_derive_a_threshold():
    log = _two_stop_log()
    for series in (log.speed, log.pedal):
        delta = compute_threshold(np.diff(candidate_points(series)))
        assert 0.0 < delta < 80.0


def test_trajectory_graph_dict_round_trip():
    traj = TrajectoryGraph(
        nodes=[TrajectoryNode(1.0, "stop"), TrajectoryNode(9.0, "turn")],
        edge_weights_m=np.array([123.5]),
    )
    back = TrajectoryGraph.from_dict(traj.to_dict())
    assert back.nodes == traj.nodes
    assert np.array_equal(back.edge_weights_m, traj.edge_weights_m)
