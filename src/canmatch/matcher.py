"""Locate a reconstructed trajectory on a road network.

A candidate is a simple path in the road graph whose consecutive edge
lengths all agree with the trajectory's edge weights within a tolerance
fraction sigma of the road length. Candidates are ranked by theta, the
mean absolute weight deviation per edge; smaller is better.

run_attack is the one matching pipeline: it climbs the sigma ladder one
rung at a time, and top_k, the one place that ranks, picks the deciding
rung's k best rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import BadOption, TrajectoryTooShort
from .roadnet import RoadGraph
from .trajgraph import TrajectoryGraph

DEFAULT_SIGMA_LADDER = (0.05, 0.10, 0.15, 0.20, 0.30, 0.50)
DEFAULT_MAX_CANDIDATES = 100_000


@dataclass(frozen=True)
class MatchConfig:
    sigma_ladder: tuple[float, ...] = DEFAULT_SIGMA_LADDER
    k: int = 5
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    allow_node_reuse: bool = False

    def __post_init__(self):
        ladder = tuple(float(s) for s in self.sigma_ladder)
        object.__setattr__(self, "sigma_ladder", ladder)
        if not ladder:
            raise ValueError("sigma_ladder must not be empty")
        if any(not 0 < s <= 1 for s in ladder):
            raise ValueError("sigma values must lie in (0, 1]")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("sigma_ladder must be strictly ascending")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")


@dataclass(frozen=True)
class CandidatePath:
    """One road path admitted by the tolerance test."""

    node_ids: tuple[str, ...]
    edge_lengths_m: tuple[float, ...]
    residuals_m: tuple[float, ...]
    theta_m: float
    sigma_used: float


@dataclass
class AttackResult:
    """Ranked candidates plus the inputs that produced them."""

    candidates: list[CandidatePath]
    trajectory: TrajectoryGraph
    config: MatchConfig
    sigma_used: float | None = None
    truncated: bool = False

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict: asdict deep-copies every leaf value,
        # and this runs on every attack
        return {
            "sigma_used": self.sigma_used,
            "truncated": self.truncated,
            "config": dict(vars(self.config)),
            "trajectory": self.trajectory.to_dict(),
            "candidates": [
                {"rank": rank, **vars(c)}
                for rank, c in enumerate(self.candidates, start=1)
            ],
        }


def result_from_dict(doc: dict) -> AttackResult:
    """Rebuild an AttackResult from its JSON form."""
    candidates = [
        CandidatePath(
            node_ids=tuple(c["node_ids"]),
            edge_lengths_m=tuple(c["edge_lengths_m"]),
            residuals_m=tuple(c["residuals_m"]),
            theta_m=float(c["theta_m"]),
            sigma_used=float(c["sigma_used"]),
        )
        for c in doc["candidates"]
    ]
    trajectory = TrajectoryGraph.from_dict(doc["trajectory"])
    return AttackResult(
        candidates=candidates,
        trajectory=trajectory,
        config=MatchConfig(**doc.get("config", {})),
        sigma_used=doc.get("sigma_used"),
        truncated=bool(doc.get("truncated", False)),
    )


def _edge_weights(traj: TrajectoryGraph) -> np.ndarray:
    wr = np.asarray(traj.edge_weights_m, dtype=np.float64)
    if wr.size < 1:
        raise TrajectoryTooShort("trajectory has no edges to match")
    return wr


def _dedup_orientations(paths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rows to keep: one per undirected path, its best-aligned orientation.

    The two traversal directions of one road path score the trajectory
    weights against opposite edge orders, so their thetas differ. The
    lower-theta orientation wins; exact ties keep the smaller node-id
    sequence. The rows of paths must be in node-id order, so a lower row
    index means a smaller node-id sequence; the kept indices ascend.
    """
    rows = np.arange(len(paths))
    rev = paths[:, ::-1]
    first = (paths != rev).argmax(axis=1)
    canon = np.where((paths[rows, first] <= rev[rows, first])[:, None], paths, rev)
    order = np.lexsort(canon.T[::-1])
    same = (canon[order[1:]] == canon[order[:-1]]).all(axis=1)
    a, b = order[:-1][same], order[1:][same]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo_wins = thetas[lo] <= thetas[hi]
    keep = np.ones(len(paths), dtype=np.bool_)
    keep[hi[lo_wins]] = False
    keep[lo[~lo_wins]] = False
    return rows[keep]


class _Rung(NamedTuple):
    """One sigma rung's deduplicated kernel rows and their thetas, in node-id order."""

    g: RoadGraph
    wr: np.ndarray  # (q-1,) trajectory edge weights
    rows: np.ndarray  # (count, q) start node, then the CSR slot of each edge
    thetas: np.ndarray  # (count,)
    sigma: float
    truncated: bool

    def candidates(self, picked) -> list[CandidatePath]:
        """The picked rows as candidates: only these get node ids, lengths and residuals."""
        g, rows = self.g, self.rows[picked]
        paths = np.concatenate((rows[:, :1], g.nbrs[rows[:, 1:]]), axis=1)
        lens = g.lens[rows[:, 1:]]
        return [
            CandidatePath(
                node_ids=tuple(g.ids[i] for i in p),
                edge_lengths_m=tuple(ls),
                residuals_m=tuple(res),
                theta_m=th,
                sigma_used=self.sigma,
            )
            for p, ls, res, th in zip(
                paths.tolist(),
                lens.tolist(),
                np.abs(lens - self.wr).tolist(),
                self.thetas[picked].tolist(),
            )
        ]


def _match_info(
    g: RoadGraph, traj, sigma: float, max_candidates: int, allow_node_reuse: bool
) -> _Rung:
    wr = _edge_weights(traj)
    q = wr.size + 1
    found = []
    try:
        _, truncated = _kernels.enumerate_matches(
            g.indptr, g.nbrs, g.lens, wr, float(sigma), max_candidates, allow_node_reuse, found
        )
        rows = np.concatenate(found) if found else np.empty((0, q), dtype=np.int64)
        found.clear()  # rows holds a copy; free the blocks before scoring
        thetas = np.abs(g.lens[rows[:, 1:]] - wr).sum(axis=1) / wr.size
        paths = np.concatenate((rows[:, :1], g.nbrs[rows[:, 1:]]), axis=1)
        keep = _dedup_orientations(paths, thetas)
    except MemoryError as exc:
        raise BadOption(
            f"--max-candidates {max_candidates} at q={q}: the candidates do not "
            f"fit in memory: {exc or type(exc).__name__}"
        ) from None
    return _Rung(g, wr, rows[keep], thetas[keep], sigma, bool(truncated))


def top_k(rung: _Rung, k: int) -> list[CandidatePath]:
    """The k best rows of a rung as candidates: the one place that ranks.

    Ascending theta; the rows are in node-id order and the sort is stable,
    so ties go to the smaller node-id sequence. Only these k rows become
    CandidatePath objects.
    """
    return rung.candidates(np.argsort(rung.thetas, kind="stable")[:k])


def run_attack(g: RoadGraph, traj: TrajectoryGraph, config: MatchConfig) -> AttackResult:
    """Climb the sigma ladder, rank, and package: the matching pipeline.

    Stops at the first rung yielding >= k candidates; if the ladder is
    exhausted, ranks whatever the largest sigma produced (possibly
    nothing). Every candidate is tagged with the sigma that admitted it.
    Ranking is top_k's alone.
    """
    for sigma in config.sigma_ladder:
        rung = _match_info(
            g, traj, sigma, config.max_candidates, config.allow_node_reuse
        )
        if len(rung.thetas) >= config.k:
            break
    return AttackResult(top_k(rung, config.k), traj, config, rung.sigma, rung.truncated)


def result_to_geojson(result: AttackResult, g: RoadGraph) -> dict:
    """Candidates as a GeoJSON FeatureCollection of LineStrings."""
    features = []
    for rank, c in enumerate(result.candidates, start=1):
        at = g.index(c.node_ids)
        coords = np.stack((g.lon[at], g.lat[at]), axis=1).tolist()
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "rank": rank,
                    "theta_m": c.theta_m,
                    "sigma_used": c.sigma_used,
                    "node_ids": list(c.node_ids),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
