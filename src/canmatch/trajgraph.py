"""Trajectory reconstruction: from a CAN log to a weighted line graph.

Stops (zero speed) and turns (pedal at idle) become graph nodes. Each
branch's candidate samples fall into runs, one per stop or turn, and each
run yields one event at its last sample. The edge between consecutive
nodes is weighted with the driven distance obtained by rectangle-
integrating the speed signal between the two event times. Candidates,
extraction and merging work on arrays of event times and a turn flag; only
the events that survive merging become TrajectoryNodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .canlog import CanLog, PedalSeries, SpeedSeries
from .errors import BadOption, DegenerateClusters, InsufficientData, NoCandidates, TooFewNodes

KIND_STOP = "stop"
KIND_TURN = "turn"
_KINDS = (KIND_STOP, KIND_TURN)  # indexed by the turn flag

KMH_TO_MS = 1.0 / 3.6

# relative slack for the >= tests against a cutoff: the gaps of a 0.1 s
# sample grid differ in their last bits, so a value float-equal to the
# cutoff must count as reaching it
_GAP_RTOL = 1e-9


@dataclass(frozen=True)
class TrajectoryNode:
    event_time_s: float
    kind: str


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


def candidate_points(series, *, pedal_idle_tol: float = 0.5) -> np.ndarray:
    """Times of the samples marking potential stops or turns.

    A SpeedSeries yields stop candidates (speed exactly zero). A PedalSeries
    yields turn candidates (value within pedal_idle_tol of the series
    minimum, the resting pedal level). Raises BadOption for a tolerance
    that is negative or not finite.
    """
    if not 0 <= pedal_idle_tol < math.inf:
        raise BadOption(f"pedal_idle_tol must be finite and non-negative, not {pedal_idle_tol}")
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
    return times


def compute_threshold(gaps) -> float:
    """Split gaps into short and long by 1-D 2-means; return the boundary.

    In one dimension both clusters are contiguous once the gaps are
    sorted, so the 2-means optimum is found exactly by scanning every
    split point and minimizing the summed within-cluster variance. No
    iteration, no initialization sensitivity, fully deterministic. The
    threshold lies midway between the largest short gap and the smallest
    long gap: gaps at or above it are travel between events, gaps below
    it the sample spacing within one event. When all gaps are equal there
    is no split; DegenerateClusters is warned and the common gap returned.

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
    return float((xs[split - 1] + xs[split]) / 2)


def extract_nodes(times, delta: float) -> np.ndarray:
    """The last candidate of each run: one event per stop or turn.

    Candidates closer than delta form one run. A candidate fires when the
    gap to the next one is >= delta, and the final candidate always fires,
    so a run of one candidate yields its event too.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = np.asarray(times, dtype=np.float64)
    return t[np.append(np.diff(t) >= delta * (1.0 - _GAP_RTOL), True)]


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


def merge_nodes(
    times, is_turn, speed: SpeedSeries, min_edge_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse events closer than the shortest road edge.

    Events are taken in time order, co-timed turns first: a stopped vehicle
    reads pedal-idle too, so one physical stop yields a stop and a turn at
    the same instant, and zero speed, the unambiguous signal, must survive
    that pair. An event is deleted when the driven distance to the event
    after it falls below min_edge_m. Driven distance never decreases, so
    the survivor before a deleted event is at least as far from that next
    event: deletions never cascade, and walking pairs with a step back
    after each deletion keeps the same events. Afterwards every remaining
    inter-event distance is >= min_edge_m.

    Returns:
        The indices into times and is_turn of the surviving events, in time
        order, and their positions_m.
    """
    if min_edge_m <= 0:
        raise ValueError("min_edge_m must be positive")
    times = np.asarray(times, dtype=np.float64)
    order = np.lexsort((~np.asarray(is_turn, dtype=bool), times))
    pos = positions_m(speed, times[order])
    # relative slack: a distance float-equal to the cutoff must survive
    cutoff = min_edge_m * (1.0 - _GAP_RTOL)
    keep = np.ones(order.size, dtype=bool)
    keep[:-1] = ~(np.diff(pos) < cutoff)
    return order[keep], pos[keep]


def build_trajectory(
    log: CanLog,
    min_edge_m: float,
    *,
    pedal_idle_tol: float = 0.5,
) -> TrajectoryGraph:
    """Full reconstruction: candidates, thresholds, extraction, merge, weights.

    Each branch with at least 3 candidates splits its candidate gaps by
    compute_threshold and yields one event per run of candidates. The
    merge then drops the turn that a stop co-times, since a stopped
    vehicle also reads pedal-idle, and any event closer than min_edge_m
    to the next.

    Args:
        log: parsed CAN log.
        min_edge_m: shortest road edge length; nodes closer than this merge.
        pedal_idle_tol: how far from the idle level still counts as idle.

    Returns:
        TrajectoryGraph with nodes in time order and one weight per
        consecutive pair.

    Raises:
        TooFewNodes: fewer than 2 nodes survive merging.
    """
    times, is_turn = np.empty(0), np.empty(0, dtype=bool)
    for series, turn in ((log.speed, False), (log.pedal, True)):
        cands = candidate_points(series, pedal_idle_tol=pedal_idle_tol)
        if cands.size < 3:
            if cands.size:
                msg = f"only {cands.size} {_KINDS[turn]} candidate(s); branch skipped"
                warnings.warn(msg, NoCandidates, stacklevel=2)
            continue
        fired = extract_nodes(cands, compute_threshold(np.diff(cands)))
        times = np.concatenate((times, fired))
        is_turn = np.concatenate((is_turn, np.full(fired.size, turn)))

    rows, pos = merge_nodes(times, is_turn, log.speed, min_edge_m) if times.size else ([], [])
    if len(rows) < 2:
        raise TooFewNodes(f"{len(rows)} node(s) after merging; need at least 2 for one edge")
    kinds = [_KINDS[turn] for turn in is_turn[rows].tolist()]
    nodes = [TrajectoryNode(t, k) for t, k in zip(times[rows].tolist(), kinds)]
    return TrajectoryGraph(nodes=nodes, edge_weights_m=np.diff(pos))
