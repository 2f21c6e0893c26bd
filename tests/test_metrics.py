"""Metric tests: coverage, precision, displacement, miss rate."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from canmatch.errors import PairingTruncated
from canmatch.geo import haversine_m
from canmatch.matcher import CandidatePath
from canmatch.metrics import EvalReport, GroundTruth, evaluate, success_rate
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


# --- precision: the mean fraction of true nodes each candidate gets right


def _letters_graph() -> RoadGraph:
    # one node for each id below; precision and FNR do not depend on where they lie
    return RoadGraph([equator_node(n, 100.0 * i) for i, n in enumerate("abcdexyzw")], [])


def _report(id_lists, gt: GroundTruth) -> EvalReport:
    return evaluate(_Result(id_lists), gt, _letters_graph())


def test_precision_perfect():
    assert _report([("a", "b")], _gt("a", "b")).precision == 1.0


def test_precision_averages_per_candidate_coverage():
    # covers {4, 2} of 5 -> (0.8 + 0.4) / 2
    gt = _gt("a", "b", "c", "d", "e")
    rep = _report([("a", "b", "c", "d", "x"), ("a", "b", "y", "z", "w")], gt)
    assert rep.precision == pytest.approx(0.6)


def test_precision_fully_wrong_candidate():
    assert _report([("x", "y")], _gt("a", "b")).precision == 0.0


def test_precision_empty_result_is_none():
    assert _report([], _gt("a", "b")).precision is None


# --- false negative rate: the mean fraction of true nodes each candidate misses


def test_fnr_perfect_candidate():
    assert _report([("a", "b")], _gt("a", "b")).fnr == 0.0


def test_fnr_averages_missed_fractions():
    # misses {1, 3} of 5 -> (0.2 + 0.6) / 2
    gt = _gt("a", "b", "c", "d", "e")
    rep = _report([("a", "b", "c", "d", "x"), ("a", "b", "y", "z", "w")], gt)
    assert rep.fnr == pytest.approx(0.4)


def test_fnr_fully_wrong_candidate():
    assert _report([("x", "y")], _gt("a", "b")).fnr == 1.0


def test_fnr_empty_result_is_none():
    assert _report([], _gt("a", "b")).fnr is None


# --- distance offset: the mean summed node displacement over Q*


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
    assert evaluate(_Result([tuple(ids)]), gt, g).offset_m == 0.0


def test_offset_sums_pair_distances_then_normalizes():
    rep = evaluate(_Result([("c0", "c1")]), _gt("t0", "t1"), _offset_graph())
    assert rep.offset_m == pytest.approx(1000.0, rel=1e-9)


def test_offset_uses_better_orientation():
    # reversed candidate pairs c1-t0/c0-t1 unless the orientation flips
    rep = evaluate(_Result([("c1", "c0")]), _gt("t0", "t1"), _offset_graph())
    assert rep.offset_m == pytest.approx(1000.0, rel=1e-9)


def test_offset_unequal_lengths_warns_and_truncates():
    with pytest.warns(PairingTruncated):
        rep = evaluate(_Result([("c0",)]), _gt("t0", "t1"), _offset_graph())
    assert rep.offset_m == pytest.approx(1000.0 / 2, rel=1e-9)


def test_offset_empty_result_is_none():
    assert evaluate(_Result([]), _gt("t0", "t1"), _offset_graph()).offset_m is None


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
    assert rep.to_dict() == {
        "psi": 0.5,
        "precision": 0.5,
        "offset_m": pytest.approx(500.0, rel=1e-9),
        "fnr": 0.5,
        "per_candidate": rep.per_candidate,
    }


def test_evaluate_pairs_each_candidate_once_and_matches_metrics_recomputed_pair_by_pair():
    rng = np.random.default_rng(61)
    xs = rng.uniform(0.0, 5000.0, size=30)
    nodes = [equator_node(f"v{i}", float(x)) for i, x in enumerate(xs)]
    g = RoadGraph(nodes, [])
    at = {n.id: (n.lat, n.lon) for n in nodes}
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

        truth = set(gt.node_ids)
        correct = missed = 0
        distance = 0.0
        for c in res.candidates:
            correct += len(truth & set(c.node_ids))
            missed += len(truth - set(c.node_ids))
            n = min(q, len(c.node_ids))
            sums = []
            for ids in (c.node_ids, c.node_ids[::-1]):
                s = 0.0
                for a, b in zip(gt.node_ids[:n], ids[:n]):
                    s += float(haversine_m(*at[a], *at[b]))
                sums.append(s)
            distance += min(sums)
        scale = len(res.candidates) * q
        assert rep.precision == correct / scale
        assert rep.offset_m == distance / scale
        assert rep.fnr == missed / scale


@pytest.mark.filterwarnings("ignore::canmatch.errors.PairingTruncated")
def test_precision_and_fnr_sum_to_one_exactly():
    rng = np.random.default_rng(59)
    pool = [f"v{i}" for i in range(30)]
    g = RoadGraph([equator_node(v, 100.0 * i) for i, v in enumerate(pool)], [])
    for _ in range(200):
        q = int(rng.integers(2, 9))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        k = int(rng.integers(1, 6))
        lists = []
        for _ in range(k):
            m = int(rng.integers(1, 9))
            lists.append(tuple(rng.choice(pool, size=m, replace=False)))
        rep = evaluate(_Result(lists), gt, g)
        assert rep.precision + rep.fnr == 1.0


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


@pytest.mark.filterwarnings("ignore::canmatch.errors.PairingTruncated")
def test_success_rate_equals_precision_at_k1():
    rng = np.random.default_rng(67)
    pool = [f"v{i}" for i in range(15)]
    g = RoadGraph([equator_node(v, 100.0 * i) for i, v in enumerate(pool)], [])
    for _ in range(50):
        q = int(rng.integers(2, 7))
        gt = GroundTruth(node_ids=tuple(rng.choice(pool, size=q, replace=False)))
        res = _Result([tuple(rng.choice(pool, size=int(rng.integers(1, 7)), replace=False))])
        rep = evaluate(res, gt, g)
        assert rep.psi == rep.precision


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
