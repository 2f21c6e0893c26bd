"""Locate a reconstructed trajectory on a road network.

A candidate is a simple path in the road graph whose consecutive edge
lengths all agree with the trajectory's edge weights within a tolerance
fraction sigma of the road length. Candidates are ranked by theta, the
mean absolute weight deviation per edge; smaller is better.
"""

from __future__ import annotations

import mmap
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import BadOption, OracleTooLarge, TrajectoryTooShort, Truncated
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
        if any(s <= 0 or s > 1 for s in ladder):
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
    """One sigma rung's deduplicated matches as row-aligned arrays, in node-id order."""

    ids: tuple[str, ...]
    paths: np.ndarray  # (count, q) node indices into ids
    lens: np.ndarray  # (count, q-1) road edge lengths
    residuals: np.ndarray  # (count, q-1) |lens - wr|
    thetas: np.ndarray  # (count,)
    sigma: float
    truncated: bool

    def candidates(self, rows=slice(None)) -> list[CandidatePath]:
        ids = self.ids
        return [
            CandidatePath(
                node_ids=tuple(ids[i] for i in p),
                edge_lengths_m=tuple(lens),
                residuals_m=tuple(res),
                theta_m=th,
                sigma_used=self.sigma,
            )
            for p, lens, res, th in zip(
                self.paths[rows].tolist(),
                self.lens[rows].tolist(),
                self.residuals[rows].tolist(),
                self.thetas[rows].tolist(),
            )
        ]


def _match_info(
    g: RoadGraph, traj, sigma: float, max_candidates: int, allow_node_reuse: bool
) -> _Rung:
    wr = _edge_weights(traj)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q = wr.size + 1
    nbytes = max_candidates * q * 8
    # An anonymous mapping commits only the pages the kernel writes and goes
    # back to the OS when freed; a malloc'd buffer this size can stay resident.
    try:
        buf = mmap.mmap(-1, nbytes)
    except (OverflowError, OSError) as exc:
        raise BadOption(
            f"--max-candidates {max_candidates} at q={q} needs a {nbytes}-byte "
            f"path buffer, which cannot be mapped: {exc}"
        ) from None
    out = np.frombuffer(buf, dtype=np.int64)
    count, truncated = _kernels.enumerate_matches(
        g.indptr, g.nbrs, g.lens, wr, float(sigma), max_candidates, allow_node_reuse, out
    )
    paths = out[: count * q].reshape(count, q)
    slots = np.searchsorted(g.keys, paths[:, :-1] * len(g.ids) + paths[:, 1:])
    edge_lens = g.lens[slots]
    residuals = np.abs(edge_lens - wr)
    thetas = residuals.sum(axis=1) / wr.size
    keep = _dedup_orientations(paths, thetas)
    return _Rung(
        g.ids,
        paths[keep],
        edge_lens[keep],
        residuals[keep],
        thetas[keep],
        sigma,
        bool(truncated),
    )


def match_paths(
    g: RoadGraph,
    traj,
    sigma: float,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    allow_node_reuse: bool = False,
) -> list[CandidatePath]:
    """All road paths matching the trajectory weights at tolerance sigma.

    Returns one candidate per undirected path, oriented whichever way
    aligns better with the trajectory, in node-id order. Warns Truncated
    and returns a deterministic prefix if more than max_candidates raw
    paths exist.
    """
    rung = _match_info(g, traj, sigma, max_candidates, allow_node_reuse)
    if rung.truncated:
        warnings.warn(
            f"enumeration stopped at {max_candidates} paths", Truncated, stacklevel=2
        )
    return rung.candidates()


def top_k(
    cands: list[CandidatePath],
    k: int,
    *,
    trajectory: TrajectoryGraph | None = None,
    config: MatchConfig | None = None,
) -> AttackResult:
    """Rank candidates by ascending theta (ties: node-id order), keep k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ranked = sorted(cands, key=lambda c: (c.theta_m, c.node_ids))[:k]
    sigma_used = ranked[0].sigma_used if ranked else None
    return AttackResult(
        candidates=ranked,
        trajectory=trajectory,
        config=config if config is not None else MatchConfig(k=k),
        sigma_used=sigma_used,
    )


def run_attack(g: RoadGraph, traj: TrajectoryGraph, config: MatchConfig) -> AttackResult:
    """Climb the sigma ladder, rank, and package: the full matching pipeline.

    Stops at the first rung yielding >= k candidates; if the ladder is
    exhausted, ranks whatever the largest sigma produced (possibly
    nothing). Every candidate is tagged with the sigma that admitted it.
    Only the k best rows become CandidatePath objects: a stable sort by
    theta over rows in node-id order picks what top_k would.
    """
    for sigma in config.sigma_ladder:
        rung = _match_info(
            g, traj, sigma, config.max_candidates, config.allow_node_reuse
        )
        if len(rung.thetas) >= config.k:
            break
    best = np.argsort(rung.thetas, kind="stable")[: config.k]
    result = top_k(rung.candidates(best), config.k, trajectory=traj, config=config)
    result.sigma_used = rung.sigma
    result.truncated = rung.truncated
    return result


def brute_force_match(
    g: RoadGraph,
    traj,
    sigma: float,
    *,
    allow_node_reuse: bool = False,
    node_limit: int = 200,
) -> list[CandidatePath]:
    """Reference matcher: enumerate every path, then filter.

    Recursively walks the graph's CSR neighbour lists to list all paths
    with the right node count, carrying each edge's length along, applies
    the tolerance test afterwards, and dedups orientations. Exists to check
    match_paths against; refuses graphs over node_limit.
    """
    if len(g.ids) > node_limit:
        raise OracleTooLarge(f"{len(g.ids)} nodes exceeds limit {node_limit}")
    wr = _edge_weights(traj)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q = wr.size + 1
    ids = g.ids
    indptr, nbrs, lens = g.indptr.tolist(), g.nbrs.tolist(), g.lens.tolist()

    complete: list[tuple[tuple[int, ...], tuple[float, ...]]] = []
    path: list[int] = []
    walked: list[float] = []

    def walk(u: int) -> None:
        path.append(u)
        if len(path) == q:
            complete.append((tuple(path), tuple(walked)))
        else:
            for slot in range(indptr[u], indptr[u + 1]):
                v = nbrs[slot]
                if allow_node_reuse or v not in path:
                    walked.append(lens[slot])
                    walk(v)
                    walked.pop()
        path.pop()

    for start in range(len(ids)):
        walk(start)

    # one candidate per undirected path: lower theta, then smaller node ids
    best: dict[tuple[str, ...], CandidatePath] = {}
    weights = wr.tolist()
    for at, lengths in complete:
        if not all(abs(l - w) <= sigma * l for l, w in zip(lengths, weights)):
            continue
        p = tuple(ids[i] for i in at)
        residuals = np.abs(np.array(lengths) - wr)
        c = CandidatePath(
            node_ids=p,
            edge_lengths_m=lengths,
            residuals_m=tuple(float(x) for x in residuals),
            theta_m=float(residuals.sum() / wr.size),
            sigma_used=float(sigma),
        )
        key = min(p, p[::-1])
        cur = best.get(key)
        if cur is None or (c.theta_m, c.node_ids) < (cur.theta_m, cur.node_ids):
            best[key] = c
    return sorted(best.values(), key=lambda c: c.node_ids)


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
