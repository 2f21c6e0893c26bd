"""Correctness checks on one attack's output, computed apart from the program.

Everything here is recomputed from the generated map and the true route
held by the benchmark: edge lengths, the tolerance test, theta, ranks and
coverage. Only ``metrics.evaluate``'s psi is taken from the program, and
only to be compared with the value recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass

THETA_TOL = 1e-9
EXACT_WEIGHT_TOL_M = 1e-6


class CheckFailed(Exception):
    """The attack's output contradicts the generated inputs."""


@dataclass(frozen=True)
class Outcome:
    top1: bool  # rank 1 is the true route, in either direction
    covered: int  # true-route nodes covered by the union of the top-k (psi * Q*)


def edge_lengths(g) -> dict[tuple[str, str], float]:
    """(u, v) -> length for both directions of every edge of the map."""
    lut = {}
    for e in g.edges:
        lut[(e.u, e.v)] = e.length_m
        lut[(e.v, e.u)] = e.length_m
    return lut


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _path_lengths(lut, node_ids) -> list[float]:
    out = []
    for a, b in zip(node_ids, node_ids[1:]):
        _require((a, b) in lut, f"{a}-{b} is not an edge of the map")
        out.append(lut[(a, b)])
    return out


def _theta(lens, wr) -> float:
    return sum(abs(w - r) for w, r in zip(lens, wr)) / len(wr)


def _admitted(lens, wr, sigma) -> bool:
    return all(abs(w - r) <= sigma * w for w, r in zip(lens, wr))


def check_result(
    result: dict,
    geojson: dict,
    *,
    truth: tuple[str, ...],
    lut: dict[tuple[str, str], float],
    coords: dict[str, tuple[float, float]],
    exact: bool,
) -> Outcome:
    """Check one result.json / candidates.geojson pair; raise CheckFailed.

    Args:
        result, geojson: the attack's two output documents.
        truth: the route the drive actually took.
        lut: edge lengths of the generated map, from ``edge_lengths``.
        coords: node id -> (lon, lat) of the generated map.
        exact: the drive is noise-free, so rank 1 must be the truth and the
            reconstructed weights must equal the true edge lengths.
    """
    cands = result["candidates"]
    wr = [float(w) for w in result["trajectory"]["edge_weights_m"]]
    q = len(result["trajectory"]["nodes"])
    _require(q == len(wr) + 1, "trajectory node and edge counts disagree")
    k = result["config"]["k"]
    sigma = result["sigma_used"]
    _require(sigma in result["config"]["sigma_ladder"], f"sigma_used {sigma} not on the ladder")
    _require(len(cands) <= k, f"{len(cands)} candidates exceed k={k}")

    thetas = []
    for rank, c in enumerate(cands, start=1):
        ids = tuple(c["node_ids"])
        _require(c["rank"] == rank, f"rank {c['rank']} at position {rank}")
        _require(len(ids) == q, f"rank {rank} has {len(ids)} nodes, trajectory {q}")
        _require(len(set(ids)) == len(ids), f"rank {rank} is not a simple path")
        lens = _path_lengths(lut, ids)
        _require(c["edge_lengths_m"] == lens, f"rank {rank} edge lengths differ from the map")
        _require(c["sigma_used"] == sigma, f"rank {rank} sigma differs from sigma_used")
        _require(_admitted(lens, wr, sigma), f"rank {rank} fails |w-wr| <= sigma*w")
        for res, w, r in zip(c["residuals_m"], lens, wr):
            _require(abs(res - abs(w - r)) <= THETA_TOL, f"rank {rank} residual is wrong")
        theta = _theta(lens, wr)
        _require(abs(c["theta_m"] - theta) <= THETA_TOL, f"rank {rank} theta is wrong")
        thetas.append(c["theta_m"])
    _require(
        all(a <= b for a, b in zip(thetas, thetas[1:])), "ranks are not in non-decreasing theta"
    )

    feats = geojson["features"]
    _require(len(feats) == len(cands), "GeoJSON and result hold different candidate counts")
    for c, f in zip(cands, feats):
        _require(f["properties"]["node_ids"] == c["node_ids"], "GeoJSON node ids differ")
        _require(f["properties"]["rank"] == c["rank"], "GeoJSON rank differs")
        want = [list(coords[n]) for n in c["node_ids"]]
        _require(f["geometry"]["coordinates"] == want, "GeoJSON coordinates differ from the map")

    both = (truth, truth[::-1])
    top1 = bool(cands) and tuple(cands[0]["node_ids"]) in both
    covered = len(set().union(*(c["node_ids"] for c in cands)) & set(truth))

    if exact:
        _require(top1, "noise-free drive: rank 1 is not the true route")
        true_lens = _path_lengths(lut, truth)
        _require(
            len(wr) == len(true_lens)
            and all(abs(w - r) <= EXACT_WEIGHT_TOL_M for w, r in zip(true_lens, wr)),
            "noise-free drive: reconstructed weights differ from the true edge lengths",
        )

    if q == len(truth) and not result["truncated"]:
        admitted = [
            _theta(lens, wr)
            for lens in (_path_lengths(lut, ids) for ids in both)
            if _admitted(lens, wr, sigma)
        ]
        if admitted:
            found = any(tuple(c["node_ids"]) in both for c in cands)
            outranked = len(cands) == k and thetas[-1] <= min(admitted)
            _require(found or outranked, "an admitted true route is missing from the top-k")
    return Outcome(top1=top1, covered=covered)


def check_psi(psi: float, covered: int, truth: tuple[str, ...]) -> None:
    """The program's psi must equal the coverage recomputed from node sets."""
    _require(psi == covered / len(truth), f"psi {psi} != {covered}/{len(truth)}")
