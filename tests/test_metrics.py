"""Metric tests: coverage, precision, displacement, miss rate."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from canmatch.errors import EmptyResult, PairingTruncated
from canmatch.matcher import CandidatePath
from canmatch.metrics import (
    EvalReport,
    GroundTruth,
    distance_offset,
    evaluate,
    false_negative_rate,
    precision,
    success_rate,
)
from canmatch.roadnet import RoadGraph
from helpers import equator_node, line_graph


class _Result:
    """Bare candidate holder; only .candidates is read by the metrics."""

    def __init__(self, id_lists):
        self.candidates = [
            CandidatePath(tuple(ids), (), (), 0.0, 0.05) for ids in id_lists
        ]


def _gt(*ids: str) -> GroundTruth:
    return GroundTruth(node_ids=ids)


# --- ground truth type


def test_ground_truth_validates():
    with pytest.raises(ValueError):
        GroundTruth(node_ids=("a",))
    with pytest.raises(ValueError):
        GroundTruth(node_ids=("a", "b", "a"))
    gt = _gt("a", "b", "c")
    assert gt.q_star == 3


def test_ground_truth_round_trips():
    gt = _gt("a", "b", "c")
    assert GroundTruth.from_dict(gt.to_dict()) == gt


# --- success rate


def test_success_rate_perfect_candidate():
    gt = _gt("a", "b", "c")
    assert success_rate(_Result([("a", "b", "c")]), gt) == 1.0


def test_success_rate_union_of_partial_covers():
    # one candidate holds 4 of 5 true nodes, the other a subset of those 4
    gt = _gt("a", "b", "c", "d", "e")
    res = _Result([("a", "b", "c", "d", "x"), ("a", "b", "y", "z", "w")])
    assert success_rate(res, gt) == 0.8


def test_success_rate_empty_result_is_zero():
    assert success_rate(_Result([]), _gt("a", "b")) == 0.0


# --- precision


def test_precision_perfect():
    assert precision(_Result([("a", "b")]), _gt("a", "b")) == 1.0


def test_precision_averages_per_candidate_coverage():
    gt = _gt("a", "b", "c", "d", "e")
    res = _Result([("a", "b", "c", "d", "x"), ("a", "b", "y", "z", "w")])
    assert precision(res, gt) == pytest.approx(0.6)


def test_precision_fully_wrong_candidate():
    assert precision(_Result([("x", "y")]), _gt("a", "b")) == 0.0


def test_precision_empty_raises():
    with pytest.raises(EmptyResult):
        precision(_Result([]), _gt("a", "b"))


# --- false negative rate


def test_fnr_perfect_candidate():
    assert false_negative_rate(_Result([("a", "b")]), _gt("a", "b")) == 0.0


def test_fnr_averages_missed_fractions():
    # misses {1, 3} of 5 -> (0.2 + 0.6) / 2
    gt = _gt("a", "b", "c", "d", "e")
    res = _Result([("a", "b", "c", "d", "x"), ("a", "b", "y", "z", "w")])
    assert false_negative_rate(res, gt) == pytest.approx(0.4)


def test_fnr_fully_wrong_candidate():
    assert false_negative_rate(_Result([("x", "y")]), _gt("a", "b")) == 1.0


def test_fnr_empty_raises():
    with pytest.raises(EmptyResult):
        false_negative_rate(_Result([]), _gt("a", "b"))


# --- distance offset


def _offset_graph() -> RoadGraph:
    # two true nodes at x=0 and x=5000, both candidate nodes 1000 m off
    nodes = [
        equator_node("t0", 0.0),
        equator_node("t1", 5000.0),
        equator_node("c0", 1000.0),
        equator_node("c1", 6000.0),
    ]
    return RoadGraph(nodes, [])


def test_offset_zero_for_identical_candidate():
    g, ids = line_graph([500.0, 600.0])
    gt = GroundTruth(node_ids=tuple(ids))
    assert distance_offset(_Result([tuple(ids)]), gt, g) == 0.0


def test_offset_sums_pair_distances_then_normalizes():
    g = _offset_graph()
    gt = _gt("t0", "t1")
    res = _Result([("c0", "c1")])
    assert distance_offset(res, gt, g) == pytest.approx(1000.0, rel=1e-9)


def test_offset_uses_better_orientation():
    g = _offset_graph()
    gt = _gt("t0", "t1")
    # reversed candidate pairs c1-t0/c0-t1 unless the orientation flips
    res = _Result([("c1", "c0")])
    assert distance_offset(res, gt, g) == pytest.approx(1000.0, rel=1e-9)


def test_offset_unequal_lengths_warns_and_truncates():
    g = _offset_graph()
    gt = _gt("t0", "t1")
    with pytest.warns(PairingTruncated):
        d = distance_offset(_Result([("c0",)]), gt, g)
    assert d == pytest.approx(1000.0 / 2, rel=1e-9)


def test_offset_empty_raises():
    with pytest.raises(EmptyResult):
        distance_offset(_Result([]), _gt("a", "b"), _offset_graph())


# --- evaluate


def test_evaluate_empty_result_reports_zero_psi():
    rep = evaluate(_Result([]), _gt("a", "b"), _offset_graph())
    assert rep.psi == 0.0
    assert rep.precision is None and rep.offset_m is None and rep.fnr is None
    assert rep.per_candidate == []


def test_evaluate_per_candidate_tallies():
    g = _offset_graph()
    gt = _gt("t0", "t1")
    rep = evaluate(_Result([("t0", "c1")]), gt, g)
    assert rep.per_candidate == [
        {
            "correct_count": 1,
            "missed_count": 1,
            "mean_pair_distance_m": pytest.approx(500.0, rel=1e-9),
        }
    ]
    assert rep.to_dict()["psi"] == 0.5


def test_evaluate_pairs_each_candidate_once_and_matches_the_standalone_metrics():
    rng = np.random.default_rng(61)
    xs = rng.uniform(0.0, 5000.0, size=30)
    g = RoadGraph([equator_node(f"v{i}", float(x)) for i, x in enumerate(xs)], [])
    pool = sorted(g.nodes)
    for _ in range(50):
        q = int(rng.integers(2, 9))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        res = _Result(
            [
                tuple(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
                for _ in range(int(rng.integers(1, 6)))
            ]
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = evaluate(res, gt, g)
        unequal = sum(len(c.node_ids) != q for c in res.candidates)
        assert sum(w.category is PairingTruncated for w in caught) == unequal
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingTruncated)
            offset = distance_offset(res, gt, g)
        assert rep.precision == precision(res, gt)
        assert rep.offset_m == offset
        assert rep.fnr == false_negative_rate(res, gt)


def test_precision_and_fnr_sum_to_one_exactly():
    rng = np.random.default_rng(59)
    pool = [f"v{i}" for i in range(30)]
    for _ in range(200):
        q = int(rng.integers(2, 9))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        k = int(rng.integers(1, 6))
        lists = []
        for _ in range(k):
            m = int(rng.integers(1, 9))
            lists.append(tuple(rng.choice(pool, size=m, replace=False)))
        res = _Result(lists)
        assert precision(res, gt) + false_negative_rate(res, gt) == 1.0


def test_success_rate_never_decreases_with_k():
    rng = np.random.default_rng(61)
    pool = [f"v{i}" for i in range(20)]
    for _ in range(100):
        q = int(rng.integers(2, 8))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        ranked = [
            tuple(rng.choice(pool, size=int(rng.integers(1, 8)), replace=False))
            for _ in range(10)
        ]
        prev = 0.0
        for k in range(1, 11):
            psi = success_rate(_Result(ranked[:k]), gt)
            assert psi >= prev
            prev = psi


def test_success_rate_equals_precision_at_k1():
    rng = np.random.default_rng(67)
    pool = [f"v{i}" for i in range(15)]
    for _ in range(50):
        q = int(rng.integers(2, 7))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        res = _Result([tuple(rng.choice(pool, size=int(rng.integers(1, 7)), replace=False))])
        assert success_rate(res, gt) == precision(res, gt)


def test_metrics_survive_consistent_relabeling():
    g = _offset_graph()
    gt = _gt("t0", "t1")
    res = _Result([("t0", "c1")])
    before = evaluate(res, gt, g)

    relabel = {"t0": "A", "t1": "B", "c0": "C", "c1": "D"}
    renamed_nodes = [
        type(n)(id=relabel[n.id], lat=n.lat, lon=n.lon) for n in g.nodes.values()
    ]
    g2 = RoadGraph(renamed_nodes, [])
    gt2 = _gt(*(relabel[n] for n in gt.node_ids))
    res2 = _Result([tuple(relabel[n] for n in ids) for ids in [("t0", "c1")]])
    after = evaluate(res2, gt2, g2)
    assert (before.psi, before.precision, before.fnr) == (
        after.psi,
        after.precision,
        after.fnr,
    )
    assert before.offset_m == pytest.approx(after.offset_m, rel=1e-12)
