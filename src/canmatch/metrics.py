"""Scoring of ranked candidates against a known route.

All four figures are normalized by Q*, the ground-truth node count:
success rate (union coverage across candidates), precision (mean per-
candidate coverage), distance offset (mean summed node displacement), and
false-negative rate (mean per-candidate miss fraction). Precision and
false-negative rate are computed from integer tallies with a single
division each, so their sum is exactly 1.0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import EmptyResult, PairingTruncated
from .geo import haversine_m


@dataclass(frozen=True)
class GroundTruth:
    """The route actually driven, as an ordered node-id path."""

    node_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(str(n) for n in self.node_ids))
        if len(self.node_ids) < 2:
            raise ValueError("ground truth needs at least 2 nodes")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("ground truth node ids must be unique")

    @property
    def q_star(self) -> int:
        return len(self.node_ids)

    def to_dict(self) -> dict:
        return {"node_ids": list(self.node_ids)}

    @classmethod
    def from_dict(cls, doc: dict) -> "GroundTruth":
        return cls(node_ids=tuple(doc["node_ids"]))


@dataclass
class EvalReport:
    psi: float
    precision: float | None
    offset_m: float | None
    fnr: float | None
    per_candidate: list[dict]

    def to_dict(self) -> dict:
        return {
            "psi": self.psi,
            "precision": self.precision,
            "offset_m": self.offset_m,
            "fnr": self.fnr,
            "per_candidate": self.per_candidate,
        }


def _candidate_id_lists(result) -> list[tuple[str, ...]]:
    return [c.node_ids for c in result.candidates]


def success_rate(result, gt: GroundTruth) -> float:
    """Fraction of ground-truth nodes covered by any candidate (0 if none)."""
    gt_set = set(gt.node_ids)
    covered: set[str] = set()
    for ids in _candidate_id_lists(result):
        covered |= set(ids) & gt_set
    return len(covered) / gt.q_star


def precision(result, gt: GroundTruth) -> float:
    """Mean fraction of ground-truth nodes each candidate gets right.

    Raises:
        EmptyResult: there are no candidates to score.
    """
    cands = _candidate_id_lists(result)
    if not cands:
        raise EmptyResult("no candidates to score")
    gt_set = set(gt.node_ids)
    correct = sum(len(set(ids) & gt_set) for ids in cands)
    return correct / (len(cands) * gt.q_star)


def false_negative_rate(result, gt: GroundTruth) -> float:
    """Mean fraction of ground-truth nodes each candidate misses.

    Raises:
        EmptyResult: there are no candidates to score.
    """
    cands = _candidate_id_lists(result)
    if not cands:
        raise EmptyResult("no candidates to score")
    gt_set = set(gt.node_ids)
    missed = sum(len(gt_set - set(ids)) for ids in cands)
    return missed / (len(cands) * gt.q_star)


def _pair_distance_m(gt_ids, cand_ids, g) -> tuple[float, int]:
    """Summed haversine over index-aligned pairs, best of both orientations."""
    n = min(len(gt_ids), len(cand_ids))
    if len(gt_ids) != len(cand_ids):
        warnings.warn(
            f"pairing {len(cand_ids)}-node candidate against "
            f"{len(gt_ids)}-node truth over first {n}",
            PairingTruncated,
            stacklevel=3,
        )
    gt = g.index(gt_ids[:n])
    gt_lat, gt_lon = g.lat[gt].tolist(), g.lon[gt].tolist()

    def total(seq) -> float:
        # pair by pair: haversine's scalar squares round differently from an array's
        at = g.index(seq[:n])
        s = 0.0
        for pair in zip(gt_lat, gt_lon, g.lat[at].tolist(), g.lon[at].tolist()):
            s += float(haversine_m(*pair))
        return s

    return min(total(cand_ids), total(cand_ids[::-1])), n


def distance_offset(result, gt: GroundTruth, g) -> float:
    """Mean per-candidate summed node displacement, normalized by Q*.

    Candidate nodes pair with ground-truth nodes by index; each candidate
    is tried in both travel directions and the smaller sum counts.

    Raises:
        EmptyResult: there are no candidates to score.
    """
    cands = _candidate_id_lists(result)
    if not cands:
        raise EmptyResult("no candidates to score")
    total = 0.0
    for ids in cands:
        d, _n = _pair_distance_m(gt.node_ids, ids, g)
        total += d
    return total / (len(cands) * gt.q_star)


def evaluate(result, gt: GroundTruth, g) -> EvalReport:
    """All four metrics plus per-candidate tallies.

    An empty result is a valid finding: psi is 0 and the per-candidate
    metrics are None.
    """
    cands = _candidate_id_lists(result)
    psi = success_rate(result, gt)
    if not cands:
        return EvalReport(psi=psi, precision=None, offset_m=None, fnr=None, per_candidate=[])
    gt_set = set(gt.node_ids)
    per = []
    correct_total = missed_total = 0
    distance_total = 0.0
    # the totals accumulate in the standalone metrics' order, so the
    # report carries their exact values
    for ids in cands:
        correct = len(set(ids) & gt_set)
        missed = len(gt_set - set(ids))
        d, n = _pair_distance_m(gt.node_ids, ids, g)
        correct_total += correct
        missed_total += missed
        distance_total += d
        per.append(
            {
                "correct_count": correct,
                "missed_count": missed,
                "mean_pair_distance_m": d / n if n else None,
            }
        )
    scale = len(cands) * gt.q_star
    return EvalReport(
        psi=psi,
        precision=correct_total / scale,
        offset_m=distance_total / scale,
        fnr=missed_total / scale,
        per_candidate=per,
    )
