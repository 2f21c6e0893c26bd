"""Shared fixtures-by-hand for the test suite.

Graphs built here place nodes on the equator so that haversine distance
equals the intended meter offsets exactly, which keeps expected values
hand-computable.
"""
from __future__ import annotations

import io
import json
import math
import warnings

import numpy as np

from canmatch.canlog import HEADER, SIGNALS, CanLog, PedalSeries, SpeedSeries
from canmatch.errors import (
    CanMatchError,
    DanglingNodeRef,
    DuplicateTimestamp,
    EmptyLog,
    EmptyResult,
    MalformedRow,
    NonMonotonicTime,
    SchemaMismatch,
    UnknownSignal,
)
from canmatch.geo import EARTH_RADIUS_M, M_PER_DEG_LAT, haversine_m
from canmatch.matcher import (
    DEFAULT_MAX_CANDIDATES,
    CandidatePath,
    MatchConfig,
    _edge_weights,
    run_attack,
)
from canmatch.roadnet import RoadEdge, RoadGraph, RoadNode
from canmatch.simulate import MS_TO_KMH
from canmatch.trajgraph import (
    KIND_TURN,
    TrajectoryGraph,
    TrajectoryNode,
    _GAP_RTOL,
    positions_m,
)

M_TO_DEG_LON = 180.0 / (np.pi * EARTH_RADIUS_M)


def equator_node(node_id: str, x_m: float, lat: float = 0.0) -> RoadNode:
    """Node whose haversine distance from x=0 equals x_m meters."""
    return RoadNode(id=node_id, lat=lat, lon=x_m * M_TO_DEG_LON)


def graph_of(nodes: list[RoadNode], edges: list[RoadEdge]) -> RoadGraph:
    """RoadGraph of node and edge objects, passed to it as columns."""
    return RoadGraph(
        [n.id for n in nodes],
        [n.lat for n in nodes],
        [n.lon for n in nodes],
        [e.u for e in edges],
        [e.v for e in edges],
        [e.length_m for e in edges],
    )


def osm_xml(nodes: dict[str, tuple[float, float]], ways: list[tuple[list[str], str]]) -> str:
    """Minimal OSM XML document with the given nodes and tagged ways."""
    parts = ["<osm>"]
    for nid, (lat, lon) in nodes.items():
        parts.append(f'<node id="{nid}" lat="{lat}" lon="{lon}"/>')
    for i, (refs, highway) in enumerate(ways):
        parts.append(f'<way id="w{i}">')
        parts.extend(f'<nd ref="{r}"/>' for r in refs)
        parts.append(f'<tag k="highway" v="{highway}"/>')
        parts.append("</way>")
    parts.append("</osm>")
    return "".join(parts)


def line_graph(weights: list[float], prefix: str = "n") -> tuple[RoadGraph, list[str]]:
    """Path graph with the given exact edge lengths, ids n0, n1, ..."""
    xs = np.concatenate(([0.0], np.cumsum(weights)))
    ids = [f"{prefix}{i}" for i in range(len(xs))]
    nodes = [equator_node(i, x) for i, x in zip(ids, xs)]
    edges = [
        RoadEdge(a, b, float(w)) for a, b, w in zip(ids, ids[1:], weights)
    ]
    return graph_of(nodes, edges), ids


def triangle_graph(a: float = 100.0, b: float = 103.0, c: float = 200.0) -> RoadGraph:
    """Three nodes, edge lengths a (x-y), b (y-z), c (x-z)."""
    nodes = [equator_node("x", 0.0), equator_node("y", a), equator_node("z", a + b)]
    edges = [RoadEdge("x", "y", a), RoadEdge("y", "z", b), RoadEdge("x", "z", c)]
    return graph_of(nodes, edges)


def traj_of(weights: list[float]) -> TrajectoryGraph:
    """Trajectory with the given edge weights; node times/kinds are filler."""
    nodes = [
        TrajectoryNode(float(i), "stop" if i % 2 == 0 else "turn")
        for i in range(len(weights) + 1)
    ]
    return TrajectoryGraph(nodes=nodes, edge_weights_m=np.asarray(weights, dtype=np.float64))


def all_matches(
    g: RoadGraph,
    traj: TrajectoryGraph,
    sigma: float,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    allow_node_reuse: bool = False,
) -> list[CandidatePath]:
    """Every candidate run_attack admits at tolerance sigma, in node-id order.

    One rung and k equal to the cap, so the ranking cuts nothing.
    """
    cfg = MatchConfig(
        (sigma,), k=max_candidates, max_candidates=max_candidates,
        allow_node_reuse=allow_node_reuse,
    )
    return sorted(run_attack(g, traj, cfg).candidates, key=lambda c: c.node_ids)


class OracleTooLarge(CanMatchError):
    """The graph exceeds what the exhaustive reference matcher will accept."""


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
    run_attack against; refuses graphs over node_limit.
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


def path_weights(g: RoadGraph, ids: list[str]) -> list[float]:
    lut = {}
    for e in g.edges:
        lut[(e.u, e.v)] = e.length_m
        lut[(e.v, e.u)] = e.length_m
    return [lut[(u, v)] for u, v in zip(ids, ids[1:])]


def constant_speed_log(
    speed_kmh: float, duration_s: float, dt_s: float = 1.0, pedal: float = 30.0
) -> CanLog:
    """Flat speed and pedal series sampled on a regular grid."""
    times = np.arange(0.0, duration_s + dt_s / 2, dt_s)
    return CanLog(
        speed=SpeedSeries(times=times, values=np.full(times.size, speed_kmh)),
        pedal=PedalSeries(times=times.copy(), values=np.full(times.size, pedal)),
    )


def random_graph(rng: np.random.Generator, n_hint: int) -> RoadGraph:
    """Sparse connected-ish graph: jittered lattice minus random edges,
    plus a few random chords. Degree stays near 4 so exhaustive path
    enumeration in the oracle remains cheap."""
    from canmatch.simulate import make_synthetic_grid

    side = max(2, int(round(np.sqrt(n_hint))))
    spacing = float(rng.uniform(80.0, 400.0))
    jitter = float(rng.uniform(0.0, 0.25))
    g = make_synthetic_grid(side, spacing, jitter, seed=int(rng.integers(2**31)))
    edges = list(g.edges)
    if len(edges) > 4:
        drop = rng.random(len(edges)) < 0.15
        kept = [e for e, d in zip(edges, drop) if not d]
    else:
        kept = edges
    ids = sorted(g.nodes)
    for _ in range(int(rng.integers(0, 4))):
        u, v = rng.choice(len(ids), size=2, replace=False)
        kept.append(
            RoadEdge(ids[int(u)], ids[int(v)], float(rng.uniform(0.5, 1.5) * spacing))
        )
    return graph_of(list(g.nodes.values()), kept)


def some_path(g: RoadGraph, n_nodes: int, rng: np.random.Generator) -> list[str] | None:
    """A random simple path with n_nodes nodes, or None if unlucky."""
    ptr, nbrs = g.indptr.tolist(), g.nbrs.tolist()
    for _ in range(60):
        path = [int(rng.integers(len(g.ids)))]
        while len(path) < n_nodes:
            nxt = [v for v in nbrs[ptr[path[-1]] : ptr[path[-1] + 1]] if v not in path]
            if not nxt:
                break
            path.append(nxt[int(rng.integers(len(nxt)))])
        if len(path) == n_nodes:
            return [g.ids[i] for i in path]
    return None


def reference_enumerate(indptr, nbrs, lens, wr, sigma, max_count, allow_reuse, out):
    """Plain iterative DFS with the kernel's contract, one path at a time.

    From every start node in index order, a neighbor extends the path at
    depth d only when its edge length w satisfies |w - wr[d]| <= sigma*w.
    Complete paths are written flat into out; returns (count, truncated)
    and stops at the first path beyond max_count. The kernel under test
    must reproduce its output exactly.
    """
    n = indptr.shape[0] - 1
    q = wr.shape[0] + 1
    visited = np.zeros(n, dtype=np.bool_)
    path = np.empty(q, dtype=np.int64)
    cursor = np.empty(q, dtype=np.int64)
    count = 0
    for s in range(n):
        path[0] = s
        visited[s] = True
        cursor[0] = indptr[s]
        d = 0
        while d >= 0:
            u = path[d]
            i = cursor[d]
            if i < indptr[u + 1]:
                cursor[d] = i + 1
                v = nbrs[i]
                if (not allow_reuse) and visited[v]:
                    continue
                w = lens[i]
                diff = w - wr[d]
                if diff < 0.0:
                    diff = -diff
                if diff > sigma * w:
                    continue
                if d == q - 2:
                    if count >= max_count:
                        return count, True
                    base = count * q
                    for j in range(q - 1):
                        out[base + j] = path[j]
                    out[base + q - 1] = v
                    count += 1
                else:
                    d += 1
                    path[d] = v
                    visited[v] = True
                    cursor[d] = indptr[v]
            else:
                visited[u] = False
                d -= 1
    return count, False


def reference_parse_can_csv(text: str) -> CanLog:
    """Line-by-line parser with parse_can_csv's contract.

    Each non-blank line is split, stripped, converted and checked in
    turn, so the first faulty line raises. Each signal's rows are then
    sorted by (time, line number). The parser under test must return an
    equal CanLog, or raise the same error, and warn the same.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise MalformedRow(f"first line must be the header {HEADER!r}")
    rows: dict[str, list[tuple[float, float, int]]] = {name: [] for name in SIGNALS}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRow(f"line {lineno}: expected 3 fields, got {len(parts)}")
        t_str, signal, v_str = (p.strip() for p in parts)
        try:
            t = float(t_str)
            v = float(v_str)
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise MalformedRow(f"line {lineno}: non-finite field")
        if signal not in SIGNALS:
            raise UnknownSignal(f"line {lineno}: unknown signal {signal!r}")
        if t < 0.0:
            raise NonMonotonicTime(f"line {lineno}: negative timestamp {t}")
        if v < 0.0:
            raise MalformedRow(f"line {lineno}: negative {signal} value {v}")
        rows[signal].append((t, v, lineno))

    if not rows["speed"] and not rows["pedal"]:
        raise EmptyLog("log has a header but no data rows")
    series = []
    for cls, name in ((SpeedSeries, "speed"), (PedalSeries, "pedal")):
        if not rows[name]:
            raise EmptyLog(f"no {name} rows in log")
        ordered = sorted(rows[name], key=lambda r: (r[0], r[2]))
        times = np.array([r[0] for r in ordered], dtype=np.float64)
        values = np.array([r[1] for r in ordered], dtype=np.float64)
        dup = np.nonzero(np.diff(times) == 0.0)[0]
        if dup.size:
            warnings.warn(
                f"{dup.size} duplicate {name} timestamp(s); keeping first occurrence",
                DuplicateTimestamp,
                stacklevel=2,
            )
            keep = np.ones(times.size, dtype=bool)
            keep[dup + 1] = False
            times = times[keep]
            values = values[keep]
        series.append(cls(times=times, values=values))
    return CanLog(speed=series[0], pedal=series[1])


def reference_to_csv(log: CanLog) -> str:
    """Row-by-row serializer with to_csv's contract.

    Rows are sorted by (time, signal, position in the series) and each is
    written with its own f-string, floats by repr.
    """
    rows = [
        (t, s, i, v)
        for s, series in enumerate((log.speed, log.pedal))
        for i, (t, v) in enumerate(zip(series.times.tolist(), series.values.tolist()))
    ]
    rows.sort(key=lambda r: r[:3])
    return HEADER + "\n" + "".join(f"{t!r},{SIGNALS[s]},{v!r}\n" for t, s, _, v in rows)


def reference_synthetic_grid(
    n: int, spacing_m: float, jitter: float, seed: int, origin: tuple[float, float]
) -> RoadGraph:
    """make_synthetic_grid as one RoadNode per node and one RoadEdge per edge."""
    rng = np.random.default_rng(seed)
    lat0, lon0 = origin
    offsets = rng.uniform(-jitter * spacing_m, jitter * spacing_m, size=(n, n, 2))
    width = len(str(n - 1))
    nodes = {}
    for r in range(n):
        for c in range(n):
            nid = f"n{r:0{width}d}_{c:0{width}d}"
            north = r * spacing_m + offsets[r, c, 0]
            east = c * spacing_m + offsets[r, c, 1]
            lat = lat0 + north / M_PER_DEG_LAT
            lon = lon0 + east / (M_PER_DEG_LAT * np.cos(np.radians(lat0)))
            nodes[r, c] = RoadNode(nid, lat, lon)
    edges = []
    for (r, c), a in nodes.items():
        for b in (nodes.get((r, c + 1)), nodes.get((r + 1, c))):
            if b is not None:
                edges.append(RoadEdge(a.id, b.id, float(haversine_m(a.lat, a.lon, b.lat, b.lon))))
    return graph_of(list(nodes.values()), edges)


def reference_synthesize_can(gt, g: RoadGraph, p) -> CanLog:
    """synthesize_can as a loop of one sample and one generator call at a time."""
    rng = np.random.default_rng(p.seed)
    lengths = path_weights(g, list(gt.node_ids))
    anchors = np.concatenate(([p.lead_in_m], p.lead_in_m + np.cumsum(lengths)))
    if p.stop_offset_m > 0:
        anchors = anchors - rng.uniform(0.0, p.stop_offset_m, size=anchors.size)
    dt = p.sample_period_s
    amp = min(2.0, (p.pedal_cruise - p.pedal_idle) / 4.0)
    speeds: list[float] = []
    pedals: list[float] = []
    pos = 0.0

    def emit(v: float, pedal: float) -> None:
        nonlocal pos
        speeds.append(v)
        pedals.append(pedal)
        pos += v * dt

    def cruise_to(target: float) -> None:
        nonlocal pos
        if pos >= target - 1e-12:
            pos = max(pos, target)
            return
        while True:
            v = p.cruise_speed_mps
            if p.speed_noise_std > 0:
                v = max(0.1 * v, v + float(rng.normal(0.0, p.speed_noise_std)))
            if pos + v * dt >= target - 1e-12:
                if (target - pos) / dt > 1e-9:
                    emit((target - pos) / dt, p.pedal_cruise + float(rng.uniform(-amp, amp)))
                pos = target
                return
            emit(v, p.pedal_cruise + float(rng.uniform(-amp, amp)))

    n_turn = max(2, round(p.turn_window_s / dt))
    v_turn = p.turn_slowdown * p.cruise_speed_mps
    for i, anchor in enumerate(anchors):
        if p.event_pattern == "stops" or i % 2 == 0:
            cruise_to(float(anchor))
            for _ in range(max(2, round(float(rng.uniform(*p.stop_dwell_s)) / dt))):
                emit(0.0, p.pedal_idle)
        else:
            cruise_to(float(anchor) - (n_turn - 1) * v_turn * dt)
            for j in range(n_turn):
                emit(v_turn, p.pedal_idle if j == n_turn - 1 else p.pedal_idle + 2.0)
    if p.tail_m > 0:
        cruise_to(pos + p.tail_m)
    times = np.arange(len(speeds), dtype=np.float64) * dt
    return CanLog(
        speed=SpeedSeries(times=times, values=np.array(speeds) * MS_TO_KMH),
        pedal=PedalSeries(times=times.copy(), values=np.array(pedals)),
    )


def reference_merge_nodes(
    nodes: list[TrajectoryNode], speed: SpeedSeries, min_edge_m: float
) -> list[TrajectoryNode]:
    """Pairwise merge walk with merge_nodes' contract, on node objects.

    Walking consecutive pairs in time order, a co-timed turn before its
    stop, when the driven distance between a pair falls below min_edge_m
    the earlier node is deleted and comparison steps back to the pair
    before it. Distances are differences of positions_m, so this pins the
    walk, not the integral. The function under test must keep the same
    nodes.
    """
    merged = sorted(nodes, key=lambda n: (n.event_time_s, n.kind != KIND_TURN))
    pos = positions_m(speed, [n.event_time_s for n in merged]).tolist()
    cutoff = min_edge_m * (1.0 - _GAP_RTOL)
    k = 0
    while k + 1 < len(merged):
        if pos[k + 1] - pos[k] < cutoff:
            del merged[k]
            del pos[k]
            if k > 0:
                k -= 1
        else:
            k += 1
    return merged


def reference_road_graph(
    nodes: list[RoadNode], edges: list[RoadEdge]
) -> tuple[dict, list[RoadEdge]]:
    """Dict-based constructor with RoadGraph's contract: (nodes by id, edges).

    A repeated node id keeps its last node. Non-finite coordinates are
    checked over every node given, then each edge in turn: self loops are
    skipped unread, an unknown endpoint or a non-finite or non-positive
    length raises, and each endpoint pair keeps its shortest edge, the
    first one given on ties, in its given orientation. Edges come out in
    order of their sorted endpoint pair.
    """
    by_id = {n.id: n for n in nodes}
    for n in nodes:
        if not (math.isfinite(n.lat) and math.isfinite(n.lon)):
            raise SchemaMismatch(f"node {n.id} has a non-finite coordinate")
    best: dict = {}
    for e in edges:
        if e.u == e.v:
            continue
        if e.u not in by_id or e.v not in by_id:
            raise DanglingNodeRef(f"edge {e.u}-{e.v} references an unknown node")
        if not 0 < e.length_m < math.inf:
            raise SchemaMismatch(f"edge {e.u}-{e.v} has length {e.length_m}")
        k = (e.u, e.v) if e.u <= e.v else (e.v, e.u)
        if k not in best or e.length_m < best[k].length_m:
            best[k] = e
    return by_id, [best[k] for k in sorted(best)]


def reference_graph_json(by_id: dict, edges: list[RoadEdge]) -> str:
    """save_graph's file text for a reference_road_graph."""
    doc = {
        "version": 1,
        "nodes": [
            {"id": n.id, "lat": n.lat, "lon": n.lon}
            for n in sorted(by_id.values(), key=lambda n: n.id)
        ],
        "edges": [{"u": e.u, "v": e.v, "length_m": e.length_m} for e in edges],
    }
    out = io.StringIO()
    json.dump(doc, out, indent=1, sort_keys=True)
    out.write("\n")
    return out.getvalue()


def reference_graph_csr(by_id: dict, edges: list[RoadEdge]):
    """CSR arrays (indptr, nbrs, lens) of a reference_road_graph.

    Node indices follow sorted ids; each node's slots ascend by neighbour
    index.
    """
    ids = sorted(by_id)
    index = {nid: i for i, nid in enumerate(ids)}
    u = np.array([index[e.u] for e in edges], dtype=np.int64)
    v = np.array([index[e.v] for e in edges], dtype=np.int64)
    w = np.array([e.length_m for e in edges], dtype=np.float64)
    rows, nbrs = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((nbrs, rows))
    indptr = np.searchsorted(rows[order], np.arange(len(ids) + 1, dtype=np.int64))
    return indptr, nbrs[order], np.concatenate((w, w))[order]


def reference_bbox_filter(g: RoadGraph, center_lat: float, center_lon: float, side_km: float):
    """bbox_filter's square cut on node and edge objects.

    The nodes within half a side of the centre in both latitude and
    longitude are kept in id order, with the edges of g.edges whose two
    ends are both kept, as given; EmptyResult when no edge is left.
    """
    half_m = side_km * 1000.0 / 2.0
    dlat = half_m / M_PER_DEG_LAT
    dlon = half_m / (M_PER_DEG_LAT * np.cos(np.radians(center_lat)))
    nodes = g.nodes
    inside = {
        n.id
        for n in nodes.values()
        if abs(n.lat - center_lat) <= dlat and abs(n.lon - center_lon) <= dlon
    }
    edges = [e for e in g.edges if e.u in inside and e.v in inside]
    if not edges:
        raise EmptyResult(f"no road network within {side_km} km window")
    return graph_of([nodes[nid] for nid in sorted(inside)], edges)
