"""Road network graphs: OSM XML ingestion, JSON serialization, windowing.

The graph is undirected. Nodes are intersections and road endpoints; edges
carry the driven length in meters of the underlying way polyline.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingNodeRef,
    EmptyResult,
    NoDrivableWays,
    SchemaMismatch,
    VersionUnsupported,
    XmlMalformed,
)
from .geo import M_PER_DEG_LAT, haversine_m

GRAPH_FORMAT_VERSION = 1

# highway= values a passenger car can drive on
DRIVABLE_HIGHWAYS = frozenset(
    base
    for name in (
        "motorway",
        "trunk",
        "primary",
        "secondary",
        "tertiary",
        "residential",
        "unclassified",
        "living_street",
        "service",
    )
    for base in (name, name + "_link")
)


@dataclass(frozen=True)
class RoadNode:
    id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class RoadEdge:
    u: str
    v: str
    length_m: float

    def key(self) -> tuple[str, str]:
        """Unordered endpoint pair in canonical order."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class RoadGraph:
    """Immutable undirected graph with haversine edge lengths.

    Parallel edges between the same endpoints are collapsed to the
    shortest; self loops are dropped. A non-finite coordinate or a
    non-finite or non-positive edge length raises SchemaMismatch.
    """

    def __init__(self, nodes: list[RoadNode], edges: list[RoadEdge]):
        self.nodes: dict[str, RoadNode] = {n.id: n for n in nodes}
        for n in nodes:
            if not (math.isfinite(n.lat) and math.isfinite(n.lon)):
                raise SchemaMismatch(f"node {n.id} has a non-finite coordinate")
        best: dict[tuple[str, str], RoadEdge] = {}
        for e in edges:
            if e.u == e.v:
                continue
            if e.u not in self.nodes or e.v not in self.nodes:
                raise DanglingNodeRef(f"edge {e.u}-{e.v} references an unknown node")
            if not 0 < e.length_m < math.inf:
                raise SchemaMismatch(f"edge {e.u}-{e.v} has length {e.length_m}")
            k = e.key()
            if k not in best or e.length_m < best[k].length_m:
                best[k] = e
        self.edges: list[RoadEdge] = [best[k] for k in sorted(best)]
        self._adj: dict[str, list[tuple[str, float]]] | None = None

    @property
    def min_edge_length_m(self) -> float:
        if not self.edges:
            raise EmptyResult("graph has no edges")
        return min(e.length_m for e in self.edges)

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        """Neighbor lists (neighbor id, edge length), sorted for determinism."""
        if self._adj is None:
            adj: dict[str, list[tuple[str, float]]] = {nid: [] for nid in self.nodes}
            for e in self.edges:
                adj[e.u].append((e.v, e.length_m))
                adj[e.v].append((e.u, e.length_m))
            for lst in adj.values():
                lst.sort()
            self._adj = adj
        return self._adj

    def __eq__(self, other):
        if not isinstance(other, RoadGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


def _polyline_length_m(coords: list[tuple[float, float]]) -> float:
    lats = np.array([c[0] for c in coords])
    lons = np.array([c[1] for c in coords])
    return float(np.sum(haversine_m(lats[:-1], lons[:-1], lats[1:], lons[1:])))


def parse_osm_xml(xml_text) -> RoadGraph:
    """Build a RoadGraph from OSM XML.

    Ways tagged with a drivable highway value are split at junction nodes
    (nodes used by more than one retained way position); interior nodes of
    degree 2 vanish and their polyline length is summed into the edge.

    Args:
        xml_text: str or bytes of an OSM XML document.

    Raises:
        XmlMalformed: input is not well-formed XML.
        NoDrivableWays: nothing drivable in the input.
        DanglingNodeRef: a way references an undefined node.
    """
    if isinstance(xml_text, bytes):
        xml_text = xml_text.decode("utf-8")
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise XmlMalformed(f"cannot parse OSM XML: {exc}") from None

    coords: dict[str, tuple[float, float]] = {}
    for nd in root.iter("node"):
        coords[nd.attrib["id"]] = (float(nd.attrib["lat"]), float(nd.attrib["lon"]))

    ways: list[list[str]] = []
    for way in root.iter("way"):
        tags = {t.attrib.get("k"): t.attrib.get("v") for t in way.findall("tag")}
        if tags.get("highway") not in DRIVABLE_HIGHWAYS:
            continue
        refs = [nd.attrib["ref"] for nd in way.findall("nd")]
        if len(refs) >= 2:
            ways.append(refs)
    if not ways:
        raise NoDrivableWays("no drivable highway ways in input")

    usage: dict[str, int] = {}
    for refs in ways:
        for ref in refs:
            if ref not in coords:
                raise DanglingNodeRef(f"way references undefined node {ref}")
            usage[ref] = usage.get(ref, 0) + 1

    # graph nodes: way endpoints plus anything referenced more than once
    keep: set[str] = set()
    for refs in ways:
        keep.add(refs[0])
        keep.add(refs[-1])
    keep.update(ref for ref, n in usage.items() if n > 1)

    nodes = [RoadNode(rid, *coords[rid]) for rid in sorted(keep)]
    edges: list[RoadEdge] = []
    for refs in ways:
        start = 0
        for i in range(1, len(refs)):
            if refs[i] in keep:
                chain = refs[start : i + 1]
                length = _polyline_length_m([coords[r] for r in chain])
                if length > 0:
                    edges.append(RoadEdge(chain[0], chain[-1], length))
                start = i
    return RoadGraph(nodes, edges)


def read_osm_xml(path) -> RoadGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_osm_xml(fh.read())


def graph_to_dict(g: RoadGraph) -> dict:
    return {
        "version": GRAPH_FORMAT_VERSION,
        "nodes": [
            {"id": n.id, "lat": n.lat, "lon": n.lon}
            for n in sorted(g.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            {"u": e.u, "v": e.v, "length_m": e.length_m} for e in g.edges
        ],
    }


def graph_from_dict(doc: dict) -> RoadGraph:
    if not isinstance(doc, dict) or "version" not in doc:
        raise SchemaMismatch("graph document has no version field")
    if doc["version"] != GRAPH_FORMAT_VERSION:
        raise VersionUnsupported(f"graph format version {doc['version']!r} unsupported")
    try:
        nodes = [
            RoadNode(str(n["id"]), float(n["lat"]), float(n["lon"]))
            for n in doc["nodes"]
        ]
        edges = [
            RoadEdge(str(e["u"]), str(e["v"]), float(e["length_m"]))
            for e in doc["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"graph document missing field: {exc}") from None
    return RoadGraph(nodes, edges)


def save_graph(g: RoadGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> RoadGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"graph file is not valid JSON: {exc}") from None
    return graph_from_dict(doc)


def bbox_filter(g: RoadGraph, center_lat: float, center_lon: float, side_km: float) -> RoadGraph:
    """Restrict a graph to a square window of side_km centered on a point.

    Nodes outside the square are removed along with their edges.

    Raises:
        EmptyResult: no edges survive the cut.
    """
    if side_km <= 0:
        raise ValueError("side_km must be positive")
    half_m = side_km * 1000.0 / 2.0
    dlat = half_m / M_PER_DEG_LAT
    dlon = half_m / (M_PER_DEG_LAT * np.cos(np.radians(center_lat)))
    inside = {
        n.id
        for n in g.nodes.values()
        if abs(n.lat - center_lat) <= dlat and abs(n.lon - center_lon) <= dlon
    }
    nodes = [g.nodes[nid] for nid in sorted(inside)]
    edges = [e for e in g.edges if e.u in inside and e.v in inside]
    if not nodes or not edges:
        raise EmptyResult(f"no road network within {side_km} km window")
    return RoadGraph(nodes, edges)
