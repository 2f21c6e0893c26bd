"""Road-network parsing, serialization, and windowing."""
from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from canmatch import roadnet
from canmatch.errors import (
    DanglingNodeRef,
    EmptyResult,
    NoDrivableWays,
    SchemaMismatch,
    VersionUnsupported,
    XmlMalformed,
)
from canmatch.geo import haversine_m
from canmatch.roadnet import (
    GRAPH_FORMAT_VERSION,
    RoadEdge,
    RoadGraph,
    RoadNode,
    bbox_filter,
    graph_from_dict,
    load_graph,
    parse_osm_xml,
    save_graph,
)
from canmatch.simulate import make_synthetic_grid

from helpers import (
    M_TO_DEG_LON,
    equator_node,
    graph_of,
    random_graph,
    reference_bbox_filter,
    reference_graph_csr,
    reference_graph_json,
    reference_road_graph,
)
from helpers import osm_xml as _osm


def _lon(x_m: float) -> float:
    return x_m * M_TO_DEG_LON


def test_two_crossing_ways():
    nodes = {
        "c": (0.0, _lon(100)),
        "w": (0.0, 0.0),
        "e": (0.0, _lon(200)),
        "n": (0.001, _lon(100)),
        "s": (-0.001, _lon(100)),
    }
    xml = _osm(nodes, [(["w", "c", "e"], "residential"), (["n", "c", "s"], "residential")])
    g = parse_osm_xml(xml)
    assert len(g.nodes) == 5
    assert len(g.edges) == 4
    assert all("c" in (e.u, e.v) for e in g.edges)


def test_footway_excluded():
    nodes = {"a": (0.0, 0.0), "b": (0.0, _lon(50))}
    with pytest.raises(NoDrivableWays):
        parse_osm_xml(_osm(nodes, [(["a", "b"], "footway")]))


def test_degree_two_chain_collapses():
    nodes = {"A": (0.0, 0.0), "B": (0.0, _lon(120)), "C": (0.0, _lon(200))}
    g = parse_osm_xml(_osm(nodes, [(["A", "B", "C"], "primary")]))
    assert sorted(g.nodes) == ["A", "C"]
    assert len(g.edges) == 1
    assert g.edges[0].length_m == pytest.approx(200.0, abs=0.1)


def test_dangling_node_ref():
    nodes = {"a": (0.0, 0.0)}
    with pytest.raises(DanglingNodeRef):
        parse_osm_xml(_osm(nodes, [(["a", "ghost"], "primary")]))


def test_malformed_xml():
    with pytest.raises(XmlMalformed):
        parse_osm_xml("<osm><node id=")
    with pytest.raises(XmlMalformed, match="is not UTF-8 text"):
        parse_osm_xml(b"<osm>\xff</osm>")


@pytest.mark.parametrize(
    "refs",
    [["a", "b"], ["a", "c", "d", "a"]],
    ids=["two nodes at one point", "ring of one kept node"],
)
def test_no_edge_of_positive_length_is_empty_result(refs):
    # a zero-length segment is skipped, and a ring's only edge is a self loop
    nodes = {"a": (0.0, 0.0), "b": (0.0, 0.0), "c": (0.0, _lon(100)), "d": (0.001, 0.0)}
    with pytest.raises(EmptyResult, match="no drivable segment of positive length"):
        parse_osm_xml(_osm(nodes, [(refs, "primary")]))


def test_edge_lengths_match_polyline_haversine():
    nodes = {
        "a": (0.01, 0.0),
        "m": (0.013, _lon(90)),
        "b": (0.02, _lon(178)),
    }
    g = parse_osm_xml(_osm(nodes, [(["a", "m", "b"], "tertiary")]))
    want = haversine_m(0.01, 0.0, 0.013, _lon(90)) + haversine_m(
        0.013, _lon(90), 0.02, _lon(178)
    )
    assert g.edges[0].length_m == pytest.approx(float(want), abs=0.1)


def test_parallel_edges_keep_shortest_and_self_loops_drop():
    nodes = [equator_node("a", 0.0), equator_node("b", 100.0)]
    g = graph_of(
        nodes,
        [RoadEdge("a", "b", 150.0), RoadEdge("b", "a", 100.0), RoadEdge("a", "a", 5.0)],
    )
    assert len(g.edges) == 1
    assert g.edges[0].length_m == 100.0


def test_no_csr_row_lists_its_own_node():
    # the kernel's revisit test never compares a new node with the row's
    # last node, which is exact only if no node is its own neighbour
    rng = np.random.default_rng(23)
    graphs = []
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(4, 40)))
        loops = [
            RoadEdge(str(x), str(x), float(rng.uniform(1.0, 500.0)))
            for x in rng.choice(g.ids, size=5)
        ]
        graphs.append(graph_of(list(g.nodes.values()), loops + g.edges + loops))
    doc = {
        "version": GRAPH_FORMAT_VERSION,
        "nodes": [{"id": i, "lat": 0.0, "lon": x} for i, x in (("a", 0.0), ("b", 0.01))],
        "edges": [
            {"u": u, "v": v, "length_m": 5.0} for u, v in (("a", "a"), ("a", "b"), ("b", "b"))
        ],
    }
    graphs.append(graph_from_dict(doc))
    # a closed way whose inner nodes no other way uses is a loop on its end
    nodes = {"a": (0.01, 0.0), "b": (0.01, _lon(100)), "c": (0.012, _lon(50)), "d": (0.0, 0.0)}
    ways = [(["a", "b", "c", "a"], "primary"), (["a", "d"], "primary")]
    graphs.append(parse_osm_xml(_osm(nodes, ways)))
    for g in graphs:
        rows = np.repeat(np.arange(len(g.ids)), np.diff(g.indptr))
        assert g.edge_count > 0
        assert (g.nbrs != rows).all()


def test_edge_to_unknown_node_rejected():
    with pytest.raises(DanglingNodeRef):
        graph_of([equator_node("a", 0.0)], [RoadEdge("a", "zzz", 10.0)])


def test_min_edge_length():
    g = make_synthetic_grid(3, 250.0, 0.0, seed=0)
    assert g.min_edge_length_m == pytest.approx(250.0, rel=1e-6)
    assert all(e.length_m >= g.min_edge_length_m for e in g.edges)


def test_min_edge_of_edgeless_graph():
    g = graph_of([equator_node("a", 0.0)], [])
    with pytest.raises(EmptyResult):
        _ = g.min_edge_length_m


def test_save_load_round_trip(tmp_path):
    g = make_synthetic_grid(5, 200.0, 0.2, seed=3)
    p = tmp_path / "g.json"
    save_graph(g, p)
    assert load_graph(p) == g


def test_round_trip_edgeless_graph(tmp_path):
    g = graph_of([equator_node("only", 0.0)], [])
    p = tmp_path / "g.json"
    save_graph(g, p)
    assert load_graph(p) == g


def test_load_truncated_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"version": 1, "nodes": [')
    with pytest.raises(SchemaMismatch):
        load_graph(p)


def test_load_wrong_version(tmp_path):
    p = tmp_path / "g.json"
    save_graph(make_synthetic_grid(2, 100.0, 0.0, seed=0), p)
    doc = json.loads(p.read_text())
    doc["version"] = GRAPH_FORMAT_VERSION + 1
    p.write_text(json.dumps(doc))
    with pytest.raises(VersionUnsupported):
        load_graph(p)


def test_load_non_utf8_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_bytes(b'\xff\xfe{"version":1}')
    with pytest.raises(SchemaMismatch, match="is not UTF-8 text"):
        load_graph(p)


# --- load_graph reuses the last graph it decoded while the file's text is unchanged


def _spy_decodes(monkeypatch) -> list:
    """Record each graph_from_dict call load_graph makes, with the memo at that moment."""
    calls = []
    real = roadnet.graph_from_dict

    def spy(doc):
        calls.append(roadnet._last_load)
        return real(doc)

    monkeypatch.setattr(roadnet, "graph_from_dict", spy)
    return calls


def test_repeat_load_returns_the_same_graph_without_decoding(tmp_path, monkeypatch):
    p = tmp_path / "g.json"
    save_graph(make_synthetic_grid(4, 200.0, 0.1, seed=21), p)
    first = load_graph(p)
    calls = _spy_decodes(monkeypatch)
    assert load_graph(p) is first
    assert calls == []


def test_changed_text_of_equal_size_and_mtime_is_decoded_again(tmp_path):
    g = make_synthetic_grid(4, 200.0, 0.1, seed=22)
    p = tmp_path / "g.json"
    save_graph(g, p)
    before = p.stat()
    assert load_graph(p) == g
    # one digit of one edge length changes: same size, different graph
    old = repr(g.edges[0].length_m)
    new = old[:-1] + ("1" if old[-1] != "1" else "2")
    changed = p.read_text().replace(f'"length_m": {old}', f'"length_m": {new}', 1)
    p.write_text(changed)
    os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = p.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    expected = graph_from_dict(json.loads(changed))
    assert expected != g
    assert load_graph(p) == expected


def test_alternating_maps_load_correctly(tmp_path):
    a, b = make_synthetic_grid(4, 200.0, 0.1, seed=23), make_synthetic_grid(5, 150.0, 0.2, seed=24)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(a, pa)
    save_graph(b, pb)
    assert [load_graph(p) for p in (pa, pb, pa, pa, pb)] == [a, b, a, a, b]


def test_miss_drops_the_old_graph_before_decoding(tmp_path, monkeypatch):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(make_synthetic_grid(3, 200.0, 0.1, seed=25), pa)
    save_graph(make_synthetic_grid(3, 200.0, 0.1, seed=26), pb)
    load_graph(pa)
    calls = _spy_decodes(monkeypatch)
    load_graph(pb)
    assert calls == [None]


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"version": 1, "nodes": [',
            "graph file is not valid JSON: Expecting value: line 1 column 26 (char 25)",
        ),
        ('{"version": 1, "nodes": []}', "graph document missing field: 'edges'"),
    ],
)
def test_malformed_map_after_a_good_one(tmp_path, text, message):
    g = make_synthetic_grid(4, 200.0, 0.1, seed=27)
    good, bad = tmp_path / "g.json", tmp_path / "bad.json"
    save_graph(g, good)
    good_text = good.read_text()
    bad.write_text(text)
    assert load_graph(good) == g
    with pytest.raises(SchemaMismatch) as exc:
        load_graph(bad)
    assert str(exc.value) == message
    assert load_graph(good) == g
    # the decoded map's own file, now broken, fails the same way
    good.write_text(text)
    with pytest.raises(SchemaMismatch) as exc:
        load_graph(good)
    assert str(exc.value) == message
    good.write_text(good_text)
    assert load_graph(good) == g


def test_crlf_map_loads_equal_to_its_lf_twin(tmp_path):
    g = make_synthetic_grid(4, 200.0, 0.1, seed=28)
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    save_graph(g, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    assert load_graph(crlf) == g
    assert load_graph(lf) == g


def test_dict_round_trip_structural_equality(tmp_path):
    rng = np.random.default_rng(5)
    p = tmp_path / "g.json"
    for _ in range(10):
        g = make_synthetic_grid(int(rng.integers(2, 8)), 150.0, 0.3, seed=int(rng.integers(99)))
        save_graph(g, p)
        assert graph_from_dict(json.loads(p.read_text())) == g


def test_edge_slot_equals_a_scan_of_the_csr_rows():
    rng = np.random.default_rng(23)
    graphs = [random_graph(rng, int(rng.integers(2, 30))) for _ in range(12)]
    # an isolated node and an edgeless graph have empty CSR rows
    graphs.append(graph_of([*graphs[0].nodes.values(), equator_node("~", 0.0)], graphs[0].edges))
    graphs.append(graph_of([equator_node("a", 0.0), equator_node("b", 100.0)], []))
    for g in graphs:
        ptr, nbrs = g.indptr.tolist(), g.nbrs.tolist()
        for i, a in enumerate(g.ids):
            row = range(ptr[i], ptr[i + 1])
            for j, b in enumerate(g.ids):
                want = next((s for s in row if nbrs[s] == j), -1)
                assert g.edge_slot(a, b) == want
            assert g.edge_slot(a, "ghost") == g.edge_slot("ghost", a) == -1
        assert g.edge_slot("ghost", "ghost") == -1


def test_graphs_differing_in_one_field_are_unequal():
    nodes = [equator_node("a", 0.0), equator_node("b", 100.0), equator_node("c", 250.0)]
    edges = [RoadEdge("a", "b", 100.0), RoadEdge("b", "c", 100.0)]
    g = graph_of(nodes, edges)
    assert graph_of(nodes, list(edges)) == g
    variants = [
        (nodes, [edges[0], RoadEdge("b", "c", 101.0)]),
        (nodes, [edges[0], RoadEdge("c", "b", 100.0)]),
        (nodes, [edges[0], RoadEdge("a", "c", 100.0)]),
        (nodes, [*edges, RoadEdge("a", "c", 250.0)]),
        ([*nodes[:2], equator_node("c", 260.0)], edges),
        ([*nodes[:2], equator_node("d", 250.0)], [edges[0], RoadEdge("b", "d", 100.0)]),
    ]
    for vnodes, vedges in variants:
        assert graph_of(vnodes, vedges) != g


def test_bbox_superset_keeps_graph():
    g = make_synthetic_grid(4, 100.0, 0.0, seed=1)
    lat0 = float(np.mean([n.lat for n in g.nodes.values()]))
    lon0 = float(np.mean([n.lon for n in g.nodes.values()]))
    assert bbox_filter(g, lat0, lon0, 100.0) == g


def test_bbox_tiny_window_is_empty_result():
    g = make_synthetic_grid(4, 100.0, 0.0, seed=1)
    some = next(iter(g.nodes.values()))
    with pytest.raises(EmptyResult):
        bbox_filter(g, some.lat, some.lon, 0.001)


def test_bbox_matches_point_in_square_count():
    g = make_synthetic_grid(10, 100.0, 0.1, seed=2)
    lat0 = float(np.mean([n.lat for n in g.nodes.values()]))
    lon0 = float(np.mean([n.lon for n in g.nodes.values()]))
    side_km = 0.55
    sub = bbox_filter(g, lat0, lon0, side_km)
    half = side_km * 1000.0 / 2.0
    inside = [
        n.id
        for n in g.nodes.values()
        if abs(haversine_m(n.lat, lon0, lat0, lon0)) <= half
        and abs(haversine_m(lat0, n.lon, lat0, lon0)) <= half
    ]
    assert sorted(sub.nodes) == sorted(inside)


def test_bbox_idempotent():
    g = make_synthetic_grid(6, 120.0, 0.1, seed=4)
    lat0 = float(np.mean([n.lat for n in g.nodes.values()]))
    lon0 = float(np.mean([n.lon for n in g.nodes.values()]))
    once = bbox_filter(g, lat0, lon0, 0.4)
    assert bbox_filter(once, lat0, lon0, 0.4) == once


def test_bbox_equals_object_based_cut_on_partly_reversed_grids(tmp_path):
    rng = np.random.default_rng(29)
    got_path, want_path = tmp_path / "got.json", tmp_path / "want.json"
    empty = partial = 0
    for trial in range(40):
        grid = make_synthetic_grid(int(rng.integers(2, 9)), 150.0, 0.3, seed=trial)
        flip = rng.random(grid.edge_count) < 0.5
        edges = [RoadEdge(e.v, e.u, e.length_m) if f else e for e, f in zip(grid.edges, flip)]
        g = graph_of(list(grid.nodes.values()), edges)
        for _ in range(5):
            lat = float(rng.uniform(g.lat.min(), g.lat.max()))
            lon = float(rng.uniform(g.lon.min(), g.lon.max()))
            side_km = float(rng.uniform(0.05, 1.5))
            want = _error(reference_bbox_filter, g, lat, lon, side_km)
            assert _error(bbox_filter, g, lat, lon, side_km) == want
            if want is not None:
                empty += 1
                continue
            got = bbox_filter(g, lat, lon, side_km)
            ref = reference_bbox_filter(g, lat, lon, side_km)
            assert got == ref  # == compares edge_reversed too
            save_graph(got, got_path)
            save_graph(ref, want_path)
            assert got_path.read_text() == want_path.read_text()
            partial += got.edge_count < g.edge_count and got.edge_reversed.any()
    assert empty >= 15 and partial >= 80


# --- columnar graph against the dict-based constructor


def _random_parts(rng: np.random.Generator, int_ids: bool = False, edgeless: bool = False):
    """Unsorted ids with repeats, self loops, and parallel edges in both
    orientations whose lengths often tie."""
    n = int(rng.integers(1, 25))
    names = rng.permutation(3 * n)[:n].tolist()
    ids = names if int_ids else [f"v{x}" for x in names]

    def coord() -> float:
        return float(rng.uniform(-1.0, 1.0))

    nodes = [RoadNode(nid, coord(), coord()) for nid in ids]
    for _ in range(int(rng.integers(0, 4))):
        nodes.append(RoadNode(ids[int(rng.integers(n))], coord(), coord()))
    nodes = [nodes[i] for i in rng.permutation(len(nodes))]
    edges = []
    for _ in range(0 if edgeless else int(rng.integers(0, 3 * n))):
        a, b = ids[int(rng.integers(n))], ids[int(rng.integers(n))]
        w = float(rng.choice([50.0, 75.0, 100.0]))
        edges.append(RoadEdge(a, b, w))
        if rng.random() < 0.3:
            edges.append(RoadEdge(b, a, float(rng.choice([w, 60.0]))))
    return nodes, edges


def _error(fn, *args):
    """Type and message of what fn raised, or None if it returned."""
    try:
        fn(*args)
    except Exception as exc:  # the error itself is what the tests compare
        return type(exc), str(exc)
    return None


def _reference_from_dict(doc: dict):
    """graph_from_dict's row-by-row conversion, then the reference constructor."""
    try:
        nodes = [RoadNode(str(n["id"]), float(n["lat"]), float(n["lon"])) for n in doc["nodes"]]
        edges = [
            RoadEdge(str(e["u"]), str(e["v"]), float(e["length_m"])) for e in doc["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"graph document missing field: {exc}") from None
    except ValueError as exc:
        raise SchemaMismatch(f"graph document has a non-numeric field: {exc}") from None
    return reference_road_graph(nodes, edges)


def _doc(nodes, edges) -> dict:
    return {
        "version": GRAPH_FORMAT_VERSION,
        "nodes": [{"id": n.id, "lat": n.lat, "lon": n.lon} for n in nodes],
        "edges": [{"u": e.u, "v": e.v, "length_m": e.length_m} for e in edges],
    }


def _assert_same_graph(g: RoadGraph, by_id: dict, edges: list[RoadEdge], tmp_path) -> None:
    assert g.nodes == by_id
    assert g.edges == edges  # RoadEdge equality includes the orientation
    if edges:
        assert g.min_edge_length_m == min(e.length_m for e in edges)
    else:
        with pytest.raises(EmptyResult):
            _ = g.min_edge_length_m
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert path.read_text(encoding="utf-8") == reference_graph_json(by_id, edges)
    csr = reference_graph_csr(by_id, edges)
    for got, want in zip((g.indptr, g.nbrs, g.lens), csr, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not hasattr(g, "keys")


def test_columnar_graph_equals_dict_based_constructor(tmp_path):
    rng = np.random.default_rng(17)
    for trial in range(120):
        nodes, edges = _random_parts(rng, int_ids=trial % 3 == 1, edgeless=trial % 10 == 0)
        by_id, ref_edges = reference_road_graph(nodes, edges)
        _assert_same_graph(graph_of(nodes, edges), by_id, ref_edges, tmp_path)
        # integer ids in a document become strings, which sort as text
        doc = _doc(nodes, edges)
        by_id, ref_edges = _reference_from_dict(doc)
        _assert_same_graph(graph_from_dict(doc), by_id, ref_edges, tmp_path)


def test_saved_text_equals_json_dump_for_awkward_ids_and_floats(tmp_path):
    ids = ["a, b", 'q"uote', "back\\slash", "new\nline", "caf\u00e9", "\U0001f697", "n0_0", ""]
    coords = [0.0, -0.0, 5e-324, 1e22, -89.99999999999999, 0.1, 1 / 3, 179.5]
    nodes = [RoadNode(nid, la, lo) for nid, la, lo in zip(ids, coords, coords[::-1])]
    edges = [RoadEdge(a, b, w) for a, b, w in zip(ids, ids[1:], [1e-300, 0.1, 2.5e10, 7.0] * 2)]
    int_ids = [RoadNode(i, n.lat, n.lon) for i, n in enumerate(nodes)]
    for g in (graph_of(nodes, edges), graph_of(int_ids, []), graph_of([], [])):
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert path.read_text(encoding="utf-8") == reference_graph_json(g.nodes, g.edges)


FAULTS = ("dangling", "nan_lat", "inf_lon", "nan_length", "inf_length", "zero", "negative")
BAD_LENGTH = {"nan_length": math.nan, "inf_length": math.inf, "zero": 0.0, "negative": -5.0}


def _inject(rng, nodes: list[RoadNode], edges: list[RoadEdge], kind: str) -> None:
    if kind in ("nan_lat", "inf_lon"):
        i = int(rng.integers(len(nodes)))
        n = nodes[i]
        lat, lon = (math.nan, n.lon) if kind == "nan_lat" else (n.lat, math.inf)
        nodes[i] = RoadNode(n.id, lat, lon)
        return
    a, b = nodes[0].id, nodes[-1].id
    if kind != "dangling":
        bad = RoadEdge(a, b, BAD_LENGTH[kind])
    else:
        bad = [
            RoadEdge(a, "ghost", 100.0),
            RoadEdge("ghost", b, math.nan),  # the unknown end is reported, not the length
            RoadEdge("ghost", "ghost", 1.0),  # a self loop is dropped unread
        ][int(rng.choice(3, p=[0.5, 0.3, 0.2]))]
    edges.insert(int(rng.integers(len(edges) + 1)), bad)


@pytest.mark.parametrize("fault", FAULTS)
def test_columnar_graph_rejects_bad_input_like_dict_based_constructor(fault):
    rng = np.random.default_rng(sum(map(ord, fault)))
    raised = 0
    for _ in range(40):
        nodes, edges = _random_parts(rng)
        # the named fault, sometimes with others: the first in order must win
        for kind in [fault] + [f for f in FAULTS if rng.random() < 0.2]:
            _inject(rng, nodes, edges, kind)
        doc = _doc(nodes, edges)
        want = _error(reference_road_graph, nodes, edges)
        assert _error(graph_of, nodes, edges) == want
        assert _error(graph_from_dict, doc) == _error(_reference_from_dict, doc)
        if want is None:
            g = graph_of(nodes, edges)
            assert (g.nodes, g.edges) == reference_road_graph(nodes, edges)
        raised += want is not None
    assert raised >= 20


@pytest.mark.parametrize(
    "rows",
    [
        # the first faulty row decides, whichever column its fault is in
        [{"id": "a", "lat": 0.0, "lon": None}, {"id": "b", "lon": 0.0}],
        [{"id": "a", "lat": 0.0}, {"id": "b", "lat": "x", "lon": 0.0}],
        [{"id": "a", "lat": 0.0, "lon": "x"}, {"lat": 0.0, "lon": 0.0}],
        [{"id": "a", "lat": [], "lon": 0.0}],
    ],
)
def test_malformed_document_raises_the_first_rows_error(rows):
    doc = {"version": GRAPH_FORMAT_VERSION, "nodes": rows, "edges": []}
    want = _error(_reference_from_dict, doc)
    assert want is not None
    assert _error(graph_from_dict, doc) == want


def _load_checks():
    path = Path(__file__).resolve().parent.parent / "pipebench" / "checks.py"
    spec = importlib.util.spec_from_file_location("pipebench_checks", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_reads_of_a_map_equal_its_json(tmp_path):
    # the benchmark reads edge lengths and node coordinates through
    # g.edges and g.nodes, on generated and on loaded maps
    checks = _load_checks()
    g = make_synthetic_grid(7, 300.0, 0.1, seed=9)
    path = tmp_path / "map.json"
    save_graph(g, path)
    doc = json.loads(path.read_text())
    lut = {}
    for e in doc["edges"]:
        lut[(e["u"], e["v"])] = e["length_m"]
        lut[(e["v"], e["u"])] = e["length_m"]
    coords = {n["id"]: (n["lon"], n["lat"]) for n in doc["nodes"]}
    for graph in (g, load_graph(path)):
        assert checks.edge_lengths(graph) == lut
        assert {n.id: (n.lon, n.lat) for n in graph.nodes.values()} == coords
