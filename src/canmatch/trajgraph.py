"""Trajectory reconstruction: from a CAN log to a weighted line graph.

Stops (zero speed) and turns (pedal at idle) become graph nodes; the edge
between consecutive nodes is weighted with the driven distance obtained by
rectangle-integrating the speed signal between the two event times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .canlog import CanLog, PedalSeries, SpeedSeries
from .errors import DegenerateClusters, InsufficientData, NoCandidates, TooFewNodes

KIND_STOP = "stop"
KIND_TURN = "turn"

KMH_TO_MS = 1.0 / 3.6

# relative slack for the gap >= threshold test: the threshold is itself the
# largest low-cluster gap, so gaps float-equal to it must fire
_GAP_RTOL = 1e-9


@dataclass(frozen=True)
class TrajectoryNode:
    event_time_s: float
    kind: str


@dataclass(frozen=True)
class CandidateSet:
    """Times of samples that look like one kind of driving event."""

    times: np.ndarray
    kind: str

    @property
    def count(self) -> int:
        return int(self.times.size)


@dataclass
class TrajectoryGraph:
    """Line graph of trajectory nodes with driven-distance edge weights."""

    nodes: list[TrajectoryNode]
    edge_weights_m: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def to_dict(self) -> dict:
        return {
            "nodes": [{"t": n.event_time_s, "kind": n.kind} for n in self.nodes],
            "edge_weights_m": [float(w) for w in self.edge_weights_m],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrajectoryGraph":
        nodes = [TrajectoryNode(float(n["t"]), str(n["kind"])) for n in doc["nodes"]]
        weights = np.asarray(doc["edge_weights_m"], dtype=np.float64)
        return cls(nodes=nodes, edge_weights_m=weights)


def candidate_points(series, *, pedal_idle_tol: float = 0.5) -> CandidateSet:
    """Samples marking potential stops or turns.

    A SpeedSeries yields stop candidates (speed exactly zero). A PedalSeries
    yields turn candidates (value within pedal_idle_tol of the series
    minimum, the resting pedal level).
    """
    if isinstance(series, SpeedSeries):
        mask = series.values == 0.0
        kind = KIND_STOP
    elif isinstance(series, PedalSeries):
        mask = np.abs(series.values - series.idle_value) <= pedal_idle_tol
        kind = KIND_TURN
    else:
        raise TypeError(f"expected SpeedSeries or PedalSeries, got {type(series)!r}")
    times = series.times[mask]
    if times.size == 0:
        warnings.warn(f"no {kind} candidates in series", NoCandidates, stacklevel=2)
    return CandidateSet(times=times, kind=kind)


def gap_series(cands: CandidateSet) -> np.ndarray:
    """Time differences between consecutive candidates.

    Raises:
        InsufficientData: fewer than 2 candidates, so no gap exists.
    """
    if cands.count < 2:
        raise InsufficientData(f"need at least 2 candidates, got {cands.count}")
    return np.diff(cands.times)


def compute_threshold(gaps) -> float:
    """Split gaps into short and long by 1-D 2-means; return the boundary.

    In one dimension both clusters are contiguous once the gaps are
    sorted, so the 2-means optimum is found exactly by scanning every
    split point and minimizing the summed within-cluster variance. No
    iteration, no initialization sensitivity, fully deterministic. The
    threshold is the largest gap in the cluster with the smaller mean:
    gaps at or above it indicate travel between events rather than
    jitter within one event.

    Raises:
        InsufficientData: fewer than 2 gaps.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    if gaps.size < 2:
        raise InsufficientData(f"need at least 2 gaps, got {gaps.size}")
    xs = np.sort(gaps)
    if xs[0] == xs[-1]:
        warnings.warn(
            f"all {gaps.size} gaps equal {xs[0]}; threshold degenerates to it",
            DegenerateClusters,
            stacklevel=2,
        )
        return float(xs[0])
    n = xs.size
    s = np.concatenate(([0.0], np.cumsum(xs)))
    s2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    k = np.arange(1, n)
    sse_lo = s2[k] - s[k] ** 2 / k
    sse_hi = (s2[n] - s2[k]) - (s[n] - s[k]) ** 2 / (n - k)
    split = int(k[np.argmin(sse_lo + sse_hi)])
    return float(xs[split - 1])


def extract_nodes(cands: CandidateSet, delta: float) -> list[TrajectoryNode]:
    """Emit a node at every candidate whose gap to the previous one is >= delta.

    The first candidate never fires: it has no predecessor gap.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = cands.times
    if t.size < 2:
        return []
    fire = np.diff(t) >= delta * (1.0 - _GAP_RTOL)
    return [TrajectoryNode(float(ts), cands.kind) for ts in t[1:][fire]]


def positions_m(speed: SpeedSeries, times) -> np.ndarray:
    """Meters driven before each time; a span's distance is their difference.

    Rectangle method: sample l contributes value_l/3.6 * (t_{l+1} - t_l)
    meters, so the span [t_a, t_b) counts the samples with t_a <= t < t_b.
    The final sample, having no successor, contributes nothing.
    """
    contrib = np.zeros(speed.count, dtype=np.float64)
    if speed.count > 1:
        contrib[:-1] = speed.values[:-1] * KMH_TO_MS * np.diff(speed.times)
    cum = np.concatenate(([0.0], np.cumsum(contrib)))
    return cum[np.searchsorted(speed.times, times, side="left")]


def _node_order(n: TrajectoryNode) -> tuple[float, int]:
    """Time order; co-timed pairs put the turn first so merging deletes it.

    A stopped vehicle reads pedal-idle too, so one physical stop yields a
    stop node and a turn node at the same instant. Zero speed is the
    unambiguous signal: the stop must be the survivor of that pair.
    """
    return (n.event_time_s, 0 if n.kind == KIND_TURN else 1)


def merge_nodes(
    nodes: list[TrajectoryNode], speed: SpeedSeries, min_edge_m: float
) -> list[TrajectoryNode]:
    """Collapse nodes closer than the shortest road edge.

    In time order, a node is deleted when the driven distance to the node
    after it falls below min_edge_m. Driven distance never decreases, so
    the survivor before a deleted node is at least as far from that next
    node: deletions never cascade, and walking pairs with a step back after
    each deletion keeps the same nodes. Afterwards every remaining
    inter-node distance is >= min_edge_m.
    """
    if min_edge_m <= 0:
        raise ValueError("min_edge_m must be positive")
    ordered = sorted(nodes, key=_node_order)
    pos = positions_m(speed, [n.event_time_s for n in ordered])
    # relative slack: a distance float-equal to the cutoff must survive
    cutoff = min_edge_m * (1.0 - _GAP_RTOL)
    keep = np.ones(len(ordered), dtype=bool)
    keep[:-1] = ~(np.diff(pos) < cutoff)
    return [ordered[i] for i in np.flatnonzero(keep)]


def build_trajectory(
    log: CanLog,
    min_edge_m: float,
    *,
    pedal_idle_tol: float = 0.5,
    include_first_event: bool = False,
) -> TrajectoryGraph:
    """Full reconstruction: candidates, thresholds, extraction, merge, weights.

    Args:
        log: parsed CAN log.
        min_edge_m: shortest road edge length; nodes closer than this merge.
        pedal_idle_tol: how far from the idle level still counts as idle.
        include_first_event: also emit a node at each branch's first
            candidate, which the gap walk alone never fires on.

    Returns:
        TrajectoryGraph with nodes in time order and one weight per
        consecutive pair.

    Raises:
        TooFewNodes: fewer than 2 nodes survive merging.
    """
    nodes: list[TrajectoryNode] = []
    for series in (log.speed, log.pedal):
        cands = candidate_points(series, pedal_idle_tol=pedal_idle_tol)
        if cands.count < 3:
            if cands.count:
                warnings.warn(
                    f"only {cands.count} {cands.kind} candidate(s); branch skipped",
                    NoCandidates,
                    stacklevel=2,
                )
            continue
        try:
            delta = compute_threshold(gap_series(cands))
        except InsufficientData:
            continue
        branch = extract_nodes(cands, delta)
        if include_first_event:
            branch.insert(0, TrajectoryNode(float(cands.times[0]), cands.kind))
        nodes.extend(branch)

    merged = merge_nodes(nodes, log.speed, min_edge_m) if nodes else []
    if len(merged) < 2:
        raise TooFewNodes(
            f"{len(merged)} node(s) after merging; need at least 2 for one edge"
        )
    pos = positions_m(log.speed, [n.event_time_s for n in merged])
    return TrajectoryGraph(nodes=merged, edge_weights_m=np.diff(pos))
