"""Road network graphs: OSM XML ingestion, JSON serialization, windowing.

The graph is undirected. Nodes are intersections and road endpoints; edges
carry the driven length in meters of the underlying way polyline.
"""

from __future__ import annotations

import json
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


class RoadGraph:
    """Immutable undirected graph with haversine edge lengths, held as arrays.

    ``RoadGraph(ids, lat, lon, us, vs, ws)`` takes columns: one id and
    coordinate per node, and the two endpoint ids and the length of each
    edge. Nodes are indexed in sorted-id order: ``ids``, ``lat`` and ``lon``.
    Edges are CSR neighbour lists, which the matcher searches: node i's
    neighbours are ``nbrs[indptr[i]:indptr[i+1]]`` in ascending index order,
    with lengths ``lens``. Each edge fills two slots; its canonical slot is
    the one with ``nbr > i``, and those slots in slot order are the edges
    sorted by endpoint pair. ``edge_reversed`` marks, in that order, an
    edge the input gave from its higher-index end.

    A repeated node id keeps its last row. Parallel edges between the same
    endpoints are collapsed to the shortest, the first one given on ties;
    self loops are dropped. A non-finite coordinate or a non-finite or
    non-positive edge length raises SchemaMismatch, an edge to an unknown
    node DanglingNodeRef.
    """

    def __init__(self, ids, lat, lon, us, vs, ws):
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        finite = np.isfinite(lat) & np.isfinite(lon)
        if not finite.all():
            raise SchemaMismatch(
                f"node {ids[int(finite.argmin())]} has a non-finite coordinate"
            )
        last = {nid: row for row, nid in enumerate(ids)}
        self.ids: tuple[str, ...] = tuple(sorted(last))
        n = len(self.ids)
        rows = np.fromiter(map(last.__getitem__, self.ids), np.int64, n)
        self.lat = lat[rows]
        self.lon = lon[rows]

        self._index = index = {nid: i for i, nid in enumerate(self.ids)}
        unknown: dict = {}
        u = _node_codes(us, index, unknown)
        v = _node_codes(vs, index, unknown)
        w = np.asarray(ws, dtype=np.float64)
        # a self loop is dropped unchecked, even one on an unknown id
        kept = np.flatnonzero(u != v)
        u, v, w = u[kept], v[kept], w[kept]
        dangling = (u < 0) | (v < 0)
        bad = dangling | ~((w > 0) & (w < np.inf))
        if bad.any():
            # the first faulty edge given raises; an unknown end before its length
            first = int(bad.argmax())
            row = int(kept[first])
            if dangling[first]:
                raise DanglingNodeRef(f"edge {us[row]}-{vs[row]} references an unknown node")
            raise SchemaMismatch(f"edge {us[row]}-{vs[row]} has length {ws[row]}")

        lo, hi = np.minimum(u, v), np.maximum(u, v)
        pair = lo * n + hi
        # per endpoint pair, the shortest edge, the first one given on ties
        order = np.lexsort((w, pair))
        pair = pair[order]
        head = np.ones(pair.size, dtype=np.bool_)
        head[1:] = pair[1:] != pair[:-1]
        pick = order[head]
        self.edge_reversed = (u > v)[pick]

        eu, ev, ew = lo[pick], hi[pick], w[pick]
        slot = np.argsort(np.concatenate((eu * n + ev, ev * n + eu)))
        self.nbrs = np.concatenate((ev, eu))[slot]
        self.lens = np.concatenate((ew, ew))[slot]
        rows = np.concatenate((eu, ev))[slot]
        self.indptr = np.searchsorted(rows, np.arange(n + 1, dtype=np.int64))
        for name in ("lat", "lon", "edge_reversed", "nbrs", "lens", "indptr"):
            getattr(self, name).flags.writeable = False

    @property
    def edge_count(self) -> int:
        return self.lens.size // 2

    @property
    def min_edge_length_m(self) -> float:
        if not self.lens.size:
            raise EmptyResult("graph has no edges")
        return float(self.lens.min())

    def index(self, node_ids) -> np.ndarray:
        """Positions of node_ids in ids. Raises KeyError for an id not in the graph."""
        return np.array([self._index[nid] for nid in node_ids], dtype=np.int64)

    def edge_slot(self, a, b) -> int:
        """CSR slot of the edge between node ids a and b, or -1 if there is none."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            return -1
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        slot = lo + int(np.searchsorted(self.nbrs[lo:hi], j))
        return slot if slot < hi and self.nbrs[slot] == j else -1

    @property
    def nodes(self) -> dict[str, RoadNode]:
        """Node objects by id, built on each access from the arrays."""
        return {
            nid: RoadNode(nid, la, lo)
            for nid, la, lo in zip(self.ids, self.lat.tolist(), self.lon.tolist())
        }

    @property
    def edges(self) -> list[RoadEdge]:
        """Edge objects in canonical order and input orientation, built on each access."""
        ids = self.ids
        return [RoadEdge(ids[a], ids[b], w) for a, b, w in zip(*self._edge_columns())]

    def _edge_columns(self) -> tuple[list, list, list]:
        """Endpoint indices and lengths of the edges in canonical order and input orientation."""
        rows = np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))
        canon = self.nbrs > rows
        lo, hi = rows[canon], self.nbrs[canon]
        rev = self.edge_reversed
        u = np.where(rev, hi, lo).tolist()
        v = np.where(rev, lo, hi).tolist()
        return u, v, self.lens[canon].tolist()

    def __eq__(self, other):
        if not isinstance(other, RoadGraph):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("lat", "lon", "indptr", "nbrs", "lens", "edge_reversed")
        )


def _node_codes(names, index: dict, unknown: dict) -> np.ndarray:
    """Node index of each id; an unknown id gets a negative code of its own."""
    return np.array(
        [index[x] if x in index else -1 - unknown.setdefault(x, len(unknown)) for x in names],
        dtype=np.int64,
    )


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
        XmlMalformed: input is not UTF-8 or not well-formed XML, an element
            lacks an attribute read here, or a coordinate is not a number.
        NoDrivableWays: nothing drivable in the input.
        DanglingNodeRef: a way references an undefined node.
        EmptyResult: no drivable segment has a positive length.
    """
    try:
        if isinstance(xml_text, bytes):
            xml_text = xml_text.decode("utf-8")
        root = ET.fromstring(xml_text)
    except UnicodeDecodeError as exc:
        raise XmlMalformed(f"OSM XML is not UTF-8 text: {exc}") from None
    except ET.ParseError as exc:
        raise XmlMalformed(f"cannot parse OSM XML: {exc}") from None

    coords: dict[str, tuple[float, float]] = {}
    ways: list[list[str]] = []
    try:
        for nd in root.iter("node"):
            coords[nd.attrib["id"]] = (float(nd.attrib["lat"]), float(nd.attrib["lon"]))
        for way in root.iter("way"):
            tags = {t.attrib.get("k"): t.attrib.get("v") for t in way.findall("tag")}
            if tags.get("highway") not in DRIVABLE_HIGHWAYS:
                continue
            refs = [nd.attrib["ref"] for nd in way.findall("nd")]
            if len(refs) >= 2:
                ways.append(refs)
    except KeyError as exc:
        raise XmlMalformed(f"an OSM element lacks its {exc} attribute") from None
    except ValueError as exc:
        raise XmlMalformed(f"an OSM node coordinate is not a number: {exc}") from None
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

    ids = sorted(keep)
    edges = []
    for refs in ways:
        start = 0
        for i in range(1, len(refs)):
            if refs[i] in keep:
                chain = refs[start : i + 1]
                length = _polyline_length_m([coords[r] for r in chain])
                if length > 0:
                    edges.append((chain[0], chain[-1], length))
                start = i
    lat, lon = _columns([coords[rid] for rid in ids], 2)
    g = RoadGraph(ids, lat, lon, *_columns(edges, 3))
    if not g.edge_count:
        raise EmptyResult("no drivable segment of positive length in input")
    return g


def read_osm_xml(path) -> RoadGraph:
    """parse_osm_xml of a file; XmlMalformed when the file is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise XmlMalformed(f"OSM file {path} is not UTF-8 text: {exc}") from None
    return parse_osm_xml(text)


def graph_from_dict(doc: dict) -> RoadGraph:
    if not isinstance(doc, dict) or "version" not in doc:
        raise SchemaMismatch("graph document has no version field")
    if doc["version"] != GRAPH_FORMAT_VERSION:
        raise VersionUnsupported(f"graph format version {doc['version']!r} unsupported")
    try:
        nodes = [(str(n["id"]), float(n["lat"]), float(n["lon"])) for n in doc["nodes"]]
        edges = [(str(e["u"]), str(e["v"]), float(e["length_m"])) for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"graph document missing field: {exc}") from None
    except ValueError as exc:
        raise SchemaMismatch(f"graph document has a non-numeric field: {exc}") from None
    return RoadGraph(*_columns(nodes, 3), *_columns(edges, 3))


def _columns(rows: list[tuple], width: int) -> tuple:
    """Rows of equal width as that many column tuples."""
    return tuple(zip(*rows)) if rows else ((),) * width


def save_graph(g: RoadGraph, path) -> None:
    """Write the graph as the JSON document graph_from_dict reads.

    The text is what json.dumps(doc, indent=1, sort_keys=True) gives for
    {"version", "nodes": [{"id", "lat", "lon"}], "edges": [{"u", "v",
    "length_m"}]}, plus a newline. It is built from the graph's columns
    with templates, in a fraction of the time of json's pure-Python
    indenting encoder; each id goes through json.dumps, so ids keep their
    JSON type and escapes.
    """
    # an encoded id never holds a raw newline, so one dumps call can encode them all
    ids = json.dumps(g.ids, separators=("\n", ":"))[1:-1].split("\n")
    edges = [
        f'  {{\n   "length_m": {w!r},\n   "u": {ids[a]},\n   "v": {ids[b]}\n  }}'
        for a, b, w in zip(*g._edge_columns())
    ]
    nodes = [
        f'  {{\n   "id": {nid},\n   "lat": {la!r},\n   "lon": {lo!r}\n  }}'
        for nid, la, lo in zip(ids, g.lat.tolist(), g.lon.tolist())
    ]
    text = (
        f'{{\n "edges": {_json_rows(edges)},\n "nodes": {_json_rows(nodes)},\n'
        f' "version": {GRAPH_FORMAT_VERSION}\n}}\n'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_rows(rows: list[str]) -> str:
    """A JSON list of already indented rows, as json.dumps(indent=1) nests it in a dict."""
    return "[\n" + ",\n".join(rows) + "\n ]" if rows else "[]"


# (text, graph) of the last map load_graph decoded, or None
_last_load: tuple[str, RoadGraph] | None = None


def load_graph(path) -> RoadGraph:
    """Read a graph file written by save_graph.

    The graph is a function of the file's text alone, so when the text
    equals that of the last map decoded, the graph built from it is
    returned again: repeated loads may return the same object, which
    callers must not mutate. A batch of logs attacked in one process
    against one map decodes that map once.

    Raises:
        SchemaMismatch: the file is not UTF-8 text, not JSON, or not a graph.
        VersionUnsupported: the file declares another format version.
        DanglingNodeRef: an edge names a node that is not in the file.
    """
    global _last_load
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"graph file {path} is not UTF-8 text: {exc}") from None
    last = _last_load  # one read, so a concurrent miss cannot empty it mid-check
    if last is not None and last[0] == text:
        return last[1]
    last = _last_load = None  # never hold two maps at once
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"graph file is not valid JSON: {exc}") from None
    g = graph_from_dict(doc)
    _last_load = (text, g)
    return g


def bbox_filter(g: RoadGraph, center_lat: float, center_lon: float, side_km: float) -> RoadGraph:
    """Restrict a graph to a square window of side_km centered on a point.

    Nodes outside the square are removed along with their edges; the
    edges left keep the orientation g gave them.

    Raises:
        EmptyResult: no edges survive the cut.
    """
    if side_km <= 0:
        raise ValueError("side_km must be positive")
    half_m = side_km * 1000.0 / 2.0
    dlat = half_m / M_PER_DEG_LAT
    dlon = half_m / (M_PER_DEG_LAT * np.cos(np.radians(center_lat)))
    inside = (np.abs(g.lat - center_lat) <= dlat) & (np.abs(g.lon - center_lon) <= dlon)
    ids = g.ids
    edges = [(ids[a], ids[b], w) for a, b, w in zip(*g._edge_columns()) if inside[a] and inside[b]]
    if not edges:
        raise EmptyResult(f"no road network within {side_km} km window")
    kept = np.flatnonzero(inside)
    return RoadGraph([ids[i] for i in kept], g.lat[kept], g.lon[kept], *_columns(edges, 3))
