"""End-to-end tests driving the CLI entry point in-process."""
from __future__ import annotations

import gzip
import hashlib
import importlib.util
import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from canmatch import _kernels, cli, matcher, simulate, trajgraph
from canmatch.canlog import read_can_csv, write_can_csv
from canmatch.cli import main
from canmatch.metrics import GroundTruth
from canmatch.roadnet import load_graph
from canmatch.simulate import make_synthetic_grid
from canmatch.trajgraph import TrajectoryGraph
from helpers import constant_speed_log, osm_xml


# --- graph construction commands


def test_make_grid_writes_loadable_graph(tmp_path):
    out = tmp_path / "grid.json"
    rc = main(
        [
            "make-grid", "--out", str(out),
            "--n", "4", "--spacing-m", "200", "--jitter", "0.1", "--seed", "3",
        ]
    )
    assert rc == 0
    g = load_graph(out)
    assert g == make_synthetic_grid(4, 200.0, 0.1, seed=3)


def test_flag_beats_config_beats_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "spacing-m": 500.0, "jitter": 0.0, "seed": 1}))
    out = tmp_path / "grid.json"
    rc = main(["make-grid", "--out", str(out), "--config", str(cfg), "--n", "4"])
    assert rc == 0
    g = load_graph(out)
    assert len(g.nodes) == 16  # flag n=4 wins over config n=3
    assert g.min_edge_length_m == pytest.approx(500.0, abs=1e-3)  # config spacing wins


def test_ingest_osm_round_trip(tmp_path):
    xml = osm_xml(
        {"a": (0.0, 0.0), "b": (0.0, 0.003), "c": (0.002, 0.003)},
        [(["a", "b", "c"], "residential")],
    )
    src = tmp_path / "map.osm"
    src.write_text(xml)
    out = tmp_path / "graph.json"
    rc = main(["ingest-osm", "--in", str(src), "--out", str(out)])
    assert rc == 0
    g = load_graph(out)
    # b is interior to a single way: compressed into one polyline edge a-c
    assert sorted(g.nodes) == ["a", "c"]
    assert len(g.edges) == 1
    assert g.edges[0].length_m == pytest.approx(333.96 + 222.64, rel=1e-2)


def test_ingest_osm_footway_only_fails(tmp_path):
    src = tmp_path / "foot.osm"
    src.write_text(
        osm_xml({"a": (0.0, 0.0), "b": (0.0, 0.003)}, [(["a", "b"], "footway")])
    )
    rc = main(["ingest-osm", "--in", str(src), "--out", str(tmp_path / "g.json")])
    assert rc == 2


def test_ingest_osm_with_only_zero_length_segments_exits_empty(tmp_path, capsys):
    src = tmp_path / "zero.osm"
    src.write_text(osm_xml({"a": (0.0, 0.0), "b": (0.0, 0.0)}, [(["a", "b"], "primary")]))
    out = tmp_path / "g.json"
    rc = main(["ingest-osm", "--in", str(src), "--out", str(out)])
    assert rc == 3
    assert "kind=EmptyResult" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b' lat="0.0"', b"", "lacks its 'lat' attribute"),
        (b'<nd ref="b"/>', b"<nd/>", "lacks its 'ref' attribute"),
        (b'lat="0.0"', b'lat="abc"', "coordinate is not a number"),
        (b"<osm>", b"<osm>\xff", "is not UTF-8 text"),
    ],
    ids=["node without lat", "nd without ref", "non-numeric lat", "not UTF-8"],
)
def test_ingest_osm_malformed_input_exits_input_error(tmp_path, capsys, old, new, message):
    xml = osm_xml({"a": (0.0, 0.0), "b": (0.0, 0.003)}, [(["a", "b"], "primary")])
    src = tmp_path / "bad.osm"
    src.write_bytes(xml.encode("utf-8").replace(old, new, 1))
    rc = main(["ingest-osm", "--in", str(src), "--out", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kind=XmlMalformed" in err
    assert message in err
    assert not (tmp_path / "g.json").exists()


def test_ingest_osm_missing_file(tmp_path):
    rc = main(
        ["ingest-osm", "--in", str(tmp_path / "nope.osm"), "--out", str(tmp_path / "g.json")]
    )
    assert rc == 2


def test_simulate_exits_empty_when_the_route_walk_runs_out_of_budget(tmp_path, capsys):
    # simple paths of 1,200 nodes exist on a 40x40 grid, but a random walk
    # with backtracking almost never finds one: the walk's budget ends it
    graph, log = tmp_path / "grid.json", tmp_path / "drive.csv"
    assert main(["make-grid", "--out", str(graph), "--n", "40"]) == 0
    t0 = time.perf_counter()
    rc = main(
        [
            "simulate", "--graph", str(graph), "--out-log", str(log),
            "--out-truth", str(tmp_path / "truth.json"), "--q", "1200",
        ]
    )
    assert rc == 3
    assert time.perf_counter() - t0 < 20.0
    assert "kind=NoSuchPath" in capsys.readouterr().err
    assert not log.exists()


# --- pipeline commands over one shared scenario


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Grid, simulated scenario, and attack output produced via the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    graph = root / "grid.json"
    log = root / "drive.csv"
    truth = root / "truth.json"
    out_dir = root / "attack"
    assert (
        main(
            [
                "make-grid", "--out", str(graph),
                "--n", "6", "--spacing-m", "300", "--jitter", "0.1", "--seed", "11",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "simulate", "--graph", str(graph),
                "--out-log", str(log), "--out-truth", str(truth),
                "--q", "6", "--seed", "11",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "attack", "--log", str(log), "--graph", str(graph),
                "--out-dir", str(out_dir), "--k", "1",
            ]
        )
        == 0
    )
    return root


def test_simulate_outputs_parse(pipeline):
    log = read_can_csv(pipeline / "drive.csv")
    assert log.speed.count > 100
    gt = GroundTruth.from_dict(json.loads((pipeline / "truth.json").read_text()))
    assert gt.q_star == 6


def test_build_trajectory_writes_graph_json(pipeline, tmp_path):
    out = tmp_path / "traj.json"
    rc = main(
        [
            "build-trajectory",
            "--log", str(pipeline / "drive.csv"),
            "--graph", str(pipeline / "grid.json"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    traj = TrajectoryGraph.from_dict(json.loads(out.read_text()))
    assert traj.node_count == 6
    assert len(traj.edge_weights_m) == 5


def test_attack_rank_one_is_ground_truth(pipeline):
    doc = json.loads((pipeline / "attack" / "result.json").read_text())
    gt = GroundTruth.from_dict(json.loads((pipeline / "truth.json").read_text()))
    assert doc["candidates"], "attack produced no candidates"
    top = doc["candidates"][0]
    assert top["rank"] == 1
    ids = tuple(top["node_ids"])
    assert ids in (gt.node_ids, gt.node_ids[::-1])


def test_attack_writes_geojson(pipeline):
    gj = json.loads((pipeline / "attack" / "candidates.geojson").read_text())
    assert gj["type"] == "FeatureCollection"
    assert len(gj["features"]) == 1
    feat = gj["features"][0]
    assert feat["geometry"]["type"] == "LineString"
    assert len(feat["geometry"]["coordinates"]) == 6


def test_attack_rerun_is_byte_identical(pipeline, tmp_path):
    out2 = tmp_path / "again"
    rc = main(
        [
            "attack",
            "--log", str(pipeline / "drive.csv"),
            "--graph", str(pipeline / "grid.json"),
            "--out-dir", str(out2), "--k", "1",
        ]
    )
    assert rc == 0
    for name in ("result.json", "candidates.geojson"):
        assert (out2 / name).read_bytes() == (pipeline / "attack" / name).read_bytes()


def test_evaluate_perfect_report(pipeline, tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--result", str(pipeline / "attack" / "result.json"),
            "--truth", str(pipeline / "truth.json"),
            "--graph", str(pipeline / "grid.json"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["psi"] == 1.0
    assert rep["precision"] == 1.0
    assert rep["offset_m"] == 0.0
    assert rep["fnr"] == 0.0


def test_evaluate_missing_truth(pipeline, tmp_path):
    rc = main(
        [
            "evaluate",
            "--result", str(pipeline / "attack" / "result.json"),
            "--truth", str(tmp_path / "nope.json"),
            "--graph", str(pipeline / "grid.json"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2


# the README quick start's outputs, as the commands there write them; the
# attack's files pin the reconstructed node times as well as the candidates
QUICK_START_REPORT_SHA256 = "ab43eec8ec504fb8cc8b1649691f212740fdc17706c7c6519de8c87e83e91e15"
QUICK_START_ATTACK_SHA256 = {
    "result.json": "550169cd8d3de734d94ff8d88edb4c2250dbb21295fc5750c8831ca6c7553f0b",
    "candidates.geojson": "d35be35b9affd6c06761e46a572de8fa1b2b648062ebbbcf643b9d030afca969",
}


def test_readme_quick_start_report_bytes_are_pinned(tmp_path):
    graph, log, truth = tmp_path / "grid.json", tmp_path / "drive.csv", tmp_path / "truth.json"
    out_dir, report = tmp_path / "out", tmp_path / "report.json"
    for argv in (
        ["make-grid", "--out", graph, "--n", 8, "--spacing-m", 350, "--jitter", 0.12, "--seed", 4],
        ["simulate", "--graph", graph, "--out-log", log, "--out-truth", truth,
         "--q", 8, "--seed", 4],
        ["attack", "--log", log, "--graph", graph, "--out-dir", out_dir, "--k", 3],
        ["evaluate", "--result", out_dir / "result.json", "--truth", truth,
         "--graph", graph, "--out", report],
    ):
        assert main([str(a) for a in argv]) == 0
    rep = json.loads(report.read_text())
    assert (rep["offset_m"], rep["precision"]) == (48.656845717326235, 0.9166666666666666)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == QUICK_START_REPORT_SHA256
    for name, digest in QUICK_START_ATTACK_SHA256.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


def test_every_readme_command_parses():
    # a value that starts with "-", like a negative latitude, reads as an
    # option unless it is joined to its flag with "="
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    script = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("canmatch ")]
    assert len(commands) == 7
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_attack_k_flag_beats_config(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1}))
    out = tmp_path / "k2"
    rc = main(
        [
            "attack",
            "--log", str(pipeline / "drive.csv"),
            "--graph", str(pipeline / "grid.json"),
            "--out-dir", str(out), "--config", str(cfg), "--k", "2",
        ]
    )
    assert rc == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["config"]["k"] == 2
    assert len(doc["candidates"]) == 2


def test_reused_parser_leaks_no_option_between_calls(pipeline, tmp_path, monkeypatch):
    idle_tol = []
    real = trajgraph.build_trajectory

    def spy(*args, **kwargs):
        idle_tol.append(kwargs.get("pedal_idle_tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(trajgraph, "build_trajectory", spy)

    def attack(name: str, *options: str) -> dict:
        argv = ["attack", "--log", str(pipeline / "drive.csv")]
        argv += ["--graph", str(pipeline / "grid.json"), "--out-dir", str(tmp_path / name)]
        assert main([*argv, *options]) == 0
        return json.loads((tmp_path / name / "result.json").read_text())

    plain = attack("plain")
    flagged = attack("flagged", "--k", "3", "--pedal-idle-tol", "0.3")
    again = attack("again")
    assert idle_tol == [None, 0.3, None]
    assert flagged["config"]["k"] == 3
    assert again == plain
    assert again["config"]["k"] == 5


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for seed in ("1", "2"):
            out = tmp_path / f"g{seed}.json"
            assert main(["make-grid", "--out", str(out), "--n", "3", "--seed", seed]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize(
    "option",
    [
        ["--k", "0"],
        ["--sigma-ladder", "0.2,0.1"],
        ["--sigma-ladder", "abc"],
        ["--sigma-ladder", "nan"],
        ["--sigma-ladder", "0.05,nan"],
    ],
)
def test_attack_rejects_bad_match_option_before_reading_input(
    pipeline, tmp_path, capsys, option
):
    rc = main(
        [
            "attack",
            "--log", str(pipeline / "drive.csv"),
            "--graph", str(pipeline / "grid.json"),
            "--out-dir", str(tmp_path / "out"), *option,
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage=parse" not in err
    assert "kind=BadOption" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["attack", "build-trajectory"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_pedal_idle_tolerance_exits_before_any_output(
    pipeline, tmp_path, capsys, command, tol
):
    out = ["--out-dir" if command == "attack" else "--out", str(tmp_path / "out")]
    argv = [command, "--log", str(pipeline / "drive.csv"), "--graph", str(pipeline / "grid.json")]
    assert main([*argv, *out, f"--pedal-idle-tol={tol}"]) == 2
    assert "kind=BadOption" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, *out, "--pedal-idle-tol=0"]) == 0


def _assert_config_exits_bad_option(tmp_path, capsys, command: str, config: dict) -> None:
    """command with config exits 2 with BadOption before reading input or writing output."""
    # the input does not exist, so reading it first would fail as FileNotFoundError
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    argv = {
        "attack": ["--log", missing, "--graph", missing, "--out-dir", out],
        "make-grid": ["--out", out],
        "simulate": ["--graph", missing, "--out-log", out, "--out-truth", out],
        "sweep": ["--out", out],
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, *argv, "--config", str(cfg)]) == 2
    assert "kind=BadOption" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("attack", {"k": 2.7}),
        ("attack", {"k": True}),
        ("attack", {"max-candidates": 100000.0}),
        ("make-grid", {"n": 6.0}),
        ("make-grid", {"seed": False}),
        ("simulate", {"q": 5.5}),
        ("sweep", {"trials": 2.0}),
        ("sweep", {"workers": True}),
        ("sweep", {"qs": [5, 10.5]}),
        ("sweep", {"ks": [True]}),
    ],
)
def test_config_integer_option_rejects_floats_and_booleans(tmp_path, capsys, command, config):
    _assert_config_exits_bad_option(tmp_path, capsys, command, config)


@pytest.mark.parametrize(
    "command, config",
    [
        ("attack", {"sigma-ladder": [True]}),
        ("attack", {"pedal-idle-tol": False}),
        ("make-grid", {"spacing-m": True, "jitter": False}),
        ("make-grid", {"jitter": False}),
        ("make-grid", {"origin": [0, True]}),
        ("make-grid", {"spacing-m": 10**400}),
        ("simulate", {"noise-std": False}),
        ("simulate", {"dwell-s": [True, 8]}),
        ("sweep", {"sides-km": [True]}),
        ("sweep", {"grid-jitter": False}),
    ],
)
def test_config_float_option_rejects_booleans(tmp_path, capsys, command, config):
    _assert_config_exits_bad_option(tmp_path, capsys, command, config)


def test_config_float_option_takes_what_its_flag_takes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacing-m": 250, "jitter": "0.1", "origin": ["1.5", 2]}))
    assert main(["make-grid", "--out", str(tmp_path / "cfg.out"), "--config", str(cfg)]) == 0
    flags = ["--spacing-m", "250", "--jitter", "0.1", "--origin", "1.5,2"]
    assert main(["make-grid", "--out", str(tmp_path / "flags.out"), *flags]) == 0
    assert (tmp_path / "cfg.out").read_bytes() == (tmp_path / "flags.out").read_bytes()


def test_config_integer_option_takes_what_its_flag_takes(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "2", "max-candidates": 100000}))
    out = tmp_path / "out"
    argv = ["attack", "--log", str(pipeline / "drive.csv"), "--graph", str(pipeline / "grid.json")]
    assert main([*argv, "--out-dir", str(out), "--config", str(cfg)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["config"]["k"] == 2
    assert len(doc["candidates"]) == 2


@pytest.mark.parametrize(
    "command, option",
    [
        ("make-grid", "--n 1"),
        ("make-grid", "--jitter 0.7"),
        ("make-grid", "--origin 1"),
        # a grid node at or past a pole
        ("make-grid", "--origin=90,0"),
        ("make-grid", "--origin=95,0"),
        ("make-grid", "--origin=-90,0"),
        ("simulate", "--q 1"),
        ("simulate", "--cruise-mps -1"),
        ("simulate", "--dwell-s 1,2,3"),
        ("simulate", "--pedal-idle nan"),
        ("simulate", "--pedal-cruise inf"),
        ("simulate", "--noise-std nan"),
        ("simulate", "--stop-offset-m nan"),
        ("simulate", "--cruise-mps nan"),
        ("simulate", "--sample-period-s nan"),
        ("simulate", "--turn-window-s nan"),
        ("simulate", "--dwell-s 1,inf"),
        ("ingest-osm", "--bbox 0,0,0"),
        ("ingest-osm", "--bbox 1,2"),
        ("ingest-osm", "--bbox=nan,0,5"),
        ("ingest-osm", "--bbox=0,inf,5"),
        ("sweep", "--grid-jitter 0.7"),
        ("sweep", "--pedal-idle nan"),
        ("sweep", "--dwell-s 1,inf"),
    ],
)
def test_bad_option_values_exit_before_any_input_is_read(tmp_path, capsys, command, option):
    # the input does not exist, so reading it first would fail as FileNotFoundError
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    argv = {
        "make-grid": ["--out", out],
        "simulate": ["--graph", missing, "--out-log", out, "--out-truth", out],
        "ingest-osm": ["--in", missing, "--out", out],
        "sweep": ["--out", out],
    }[command]
    assert main([command, *argv, *option.split()]) == 2
    assert "kind=BadOption" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config, named",
    [({"sigma_ladder": [0.1]}, "'sigma_ladder'"), ({"allow-node-reuse": "false"}, "'false'")],
)
def test_config_key_no_option_takes_or_non_boolean_switch_exits_input_error(
    pipeline, tmp_path, capsys, config, named
):
    def attack(config: dict) -> int:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["attack", "--log", str(pipeline / "drive.csv"), "--config", str(cfg)]
        argv += ["--graph", str(pipeline / "grid.json"), "--out-dir", str(tmp_path / "out")]
        return main(argv)

    assert attack(config) == 2
    err = capsys.readouterr().err
    assert "kind=BadOption" in err
    assert named in err
    assert not (tmp_path / "out").exists()
    # keys of other commands are accepted, so one file can serve every command
    assert attack({"sigma-ladder": [0.1], "n": 3, "bbox": [0, 0, 1]}) == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["config"]["sigma_ladder"] == [0.1]


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_attack_on_non_finite_log_exits_input_error(pipeline, tmp_path, capsys, field):
    lines = (pipeline / "drive.csv").read_text().splitlines()
    lines[7] = f"{lines[7].split(',')[0]},speed,{field}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "attack", "--log", str(bad),
            "--graph", str(pipeline / "grid.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "line 8: non-finite field" in capsys.readouterr().err


def test_attack_on_truncated_gz_log_exits_input_error(pipeline, tmp_path, capsys):
    cut = tmp_path / "trunc.csv.gz"
    cut.write_bytes(gzip.compress((pipeline / "drive.csv").read_bytes(), mtime=0)[:3000])
    argv = ["attack", "--log", str(cut), "--graph", str(pipeline / "grid.json")]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "kind=MalformedRow" in err
    assert f"{cut} is a truncated or corrupt gzip stream" in err
    assert not (tmp_path / "out").exists()


def test_attack_with_a_cap_larger_than_memory_exits_ok(pipeline, tmp_path):
    # no buffer is sized by the cap, so a cap no memory could hold runs
    # like the default wherever no rung truncates
    argv = ["attack", "--log", str(pipeline / "drive.csv"), "--graph", str(pipeline / "grid.json")]
    huge = str(10**20)
    assert main([*argv, "--out-dir", str(tmp_path / "default")]) == 0
    assert main([*argv, "--out-dir", str(tmp_path / "huge"), "--max-candidates", huge]) == 0
    read = lambda run, name: (tmp_path / run / name).read_text()
    assert read("huge", "candidates.geojson") == read("default", "candidates.geojson")
    default, got = (json.loads(read(run, "result.json")) for run in ("default", "huge"))
    assert got["config"].pop("max_candidates") == 10**20
    del default["config"]["max_candidates"]
    assert got == default


@pytest.mark.parametrize(
    "module, name", [(_kernels, "enumerate_matches"), (matcher, "_dedup_orientations")]
)
def test_attack_that_runs_out_of_memory_while_matching_exits_bad_option(
    pipeline, tmp_path, capsys, monkeypatch, module, name
):
    def exhaust(*args):
        raise MemoryError("Unable to allocate 45.0 MiB")

    monkeypatch.setattr(module, name, exhaust)
    argv = ["attack", "--log", str(pipeline / "drive.csv"), "--graph", str(pipeline / "grid.json")]
    argv += ["--out-dir", str(tmp_path / "out"), "--max-candidates", "1000"]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "kind=BadOption" in err
    assert "--max-candidates 1000 at q=6" in err
    assert "Unable to allocate 45.0 MiB" in err


def _args_besides_graph(command, pipeline, tmp_path, log=None) -> list[str]:
    """Arguments besides --graph that run command on the shared scenario."""
    log = str(log or pipeline / "drive.csv")
    return {
        "attack": ["--log", log, "--out-dir", str(tmp_path / "out")],
        "build-trajectory": ["--log", log, "--out", str(tmp_path / "traj.json")],
        "evaluate": [
            "--result", str(pipeline / "attack" / "result.json"),
            "--truth", str(pipeline / "truth.json"),
            "--out", str(tmp_path / "report.json"),
        ],
        "simulate": [
            "--out-log", str(tmp_path / "d.csv"), "--out-truth", str(tmp_path / "t.json"),
        ],
    }[command]


@pytest.mark.parametrize("command", ["attack", "evaluate", "simulate"])
@pytest.mark.parametrize(
    "part, field, value",
    [
        ("edges", "length_m", math.nan),
        ("edges", "length_m", math.inf),
        ("edges", "length_m", -5.0),
        ("nodes", "lat", math.nan),
        ("nodes", "lat", "abc"),
        ("edges", "length_m", "abc"),
    ],
)
def test_non_finite_or_non_positive_graph_exits_input_error(
    pipeline, tmp_path, capsys, command, part, field, value
):
    doc = json.loads((pipeline / "grid.json").read_text())
    doc[part][3][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = _args_besides_graph(command, pipeline, tmp_path)
    assert main([command, "--graph", str(bad), *argv]) == 2
    assert "kind=SchemaMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, bad_input, kind",
    [
        ("attack", "graph", "SchemaMismatch"),
        ("build-trajectory", "graph", "SchemaMismatch"),
        ("evaluate", "graph", "SchemaMismatch"),
        ("simulate", "graph", "SchemaMismatch"),
        ("attack", "log", "MalformedRow"),
        ("build-trajectory", "log", "MalformedRow"),
        ("attack", "config", "SchemaMismatch"),
        ("evaluate", "result", "SchemaMismatch"),
        ("evaluate", "truth", "SchemaMismatch"),
    ],
)
def test_non_utf8_input_exits_input_error(pipeline, tmp_path, capsys, command, bad_input, kind):
    bad = tmp_path / "bad"
    if bad_input == "log":
        log_bytes = (pipeline / "drive.csv").read_bytes()
        bad.write_bytes(log_bytes.replace(b",speed,", b",speed,\xff", 1))
    else:
        bad.write_bytes(b'\xff\xfe{"version":1}')
    argv = [command, "--graph", str(pipeline / "grid.json")]
    argv += _args_besides_graph(command, pipeline, tmp_path)
    flag = f"--{bad_input}"
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"kind={kind}" in err
    assert f"{bad} is not UTF-8 text" in err


@pytest.mark.parametrize("doc", ["result", "truth"])
def test_evaluate_on_unknown_node_id_exits_input_error(pipeline, tmp_path, capsys, doc):
    result = json.loads((pipeline / "attack" / "result.json").read_text())
    truth = json.loads((pipeline / "truth.json").read_text())
    (result["candidates"][0] if doc == "result" else truth)["node_ids"][2] = "ghost"
    result_path, truth_path = tmp_path / "result.json", tmp_path / "truth.json"
    result_path.write_text(json.dumps(result))
    truth_path.write_text(json.dumps(truth))
    rc = main(
        [
            "evaluate", "--result", str(result_path), "--truth", str(truth_path),
            "--graph", str(pipeline / "grid.json"), "--out", str(tmp_path / "report.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "kind=DanglingNodeRef" in err
    assert f"{doc} names node 'ghost', which is not in the graph" in err
    assert not (tmp_path / "report.json").exists()


_MALFORMED = {
    "no candidates": lambda d: d.pop("candidates"),
    "unknown config key": lambda d: d["config"].update(sigma=0.1),
    "non-numeric theta": lambda d: d["candidates"][0].update(theta_m="abc"),
    "config k of 0": lambda d: d["config"].update(k=0),
    "no node ids": lambda d: d.pop("node_ids"),
    "one node": lambda d: d.update(node_ids=d["node_ids"][:1]),
    "repeated node": lambda d: d["node_ids"].append(d["node_ids"][0]),
}


@pytest.mark.parametrize(
    "doc, fault",
    [
        ("result", "no candidates"),
        ("result", "unknown config key"),
        ("result", "non-numeric theta"),
        ("result", "config k of 0"),
        ("truth", "no node ids"),
        ("truth", "one node"),
        ("truth", "repeated node"),
    ],
)
def test_evaluate_on_malformed_document_exits_input_error(pipeline, tmp_path, capsys, doc, fault):
    paths = {"result": pipeline / "attack" / "result.json", "truth": pipeline / "truth.json"}
    bad = json.loads(paths[doc].read_text())
    _MALFORMED[fault](bad)
    paths[doc] = tmp_path / f"{doc}.json"
    paths[doc].write_text(json.dumps(bad))
    rc = main(
        [
            "evaluate", "--result", str(paths["result"]), "--truth", str(paths["truth"]),
            "--graph", str(pipeline / "grid.json"), "--out", str(tmp_path / "report.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "kind=SchemaMismatch" in err
    assert f"{doc} file {paths[doc]} has a missing or malformed field" in err
    assert not (tmp_path / "report.json").exists()


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "pipebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("pipebench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks_fire_on_attack(pipeline, tmp_path):
    # the benchmark times stages by wrapping these functions by name
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        rc = main(
            [
                "attack", "--log", str(pipeline / "drive.csv"),
                "--graph", str(pipeline / "grid.json"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
    assert rc == 0
    assert {
        "canlog.read_ms",
        "roadnet.load_ms",
        "trajgraph.build_ms",
        "kernels.enumerate_ms",
        "matcher.dedup_ms",
        "matcher.rank_ms",
        "matcher.run_attack_ms",
    } <= set(tracer.totals)
    assert tracer.totals["matcher.rungs"] >= 1


@pytest.mark.filterwarnings("ignore::canmatch.errors.NoCandidates")
@pytest.mark.filterwarnings("ignore::canmatch.errors.DegenerateClusters")
def test_attack_on_featureless_log_exits_empty(pipeline, tmp_path):
    flat = tmp_path / "flat.csv"
    write_can_csv(constant_speed_log(36.0, 300.0), flat)
    rc = main(
        [
            "attack", "--log", str(flat),
            "--graph", str(pipeline / "grid.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 3


# --- sweep


SWEEP_ARGS = [
    "--sides-km", "0.9,1.2", "--qs", "5", "--ks", "1,3",
    "--trials", "2", "--seed", "5", "--spacing-m", "300",
]


def test_sweep_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), *SWEEP_ARGS]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "side_km,q,k,trials,matched,psi_mean,precision_mean,offset_m_mean,fnr_mean"
    )
    assert len(lines) == 1 + 4  # 2 sides x 1 q x 2 ks

    again = tmp_path / "sweep2.csv"
    assert main(["sweep", "--out", str(again), *SWEEP_ARGS]) == 0
    assert again.read_bytes() == out.read_bytes()

    par = tmp_path / "sweep_par.csv"
    assert main(["sweep", "--out", str(par), *SWEEP_ARGS, "--workers", "2"]) == 0
    assert par.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "option",
    [
        ["--ks", "0"],
        ["--ks", "1,x"],
        ["--qs", "1"],
        ["--sides-km", "-1"],
        ["--sides-km", "0.9,0"],
        ["--sides-km", "nan"],
        ["--trials", "0"],
        ["--workers", "0"],
    ],
)
def test_sweep_rejects_bad_cell_values_before_any_trial(tmp_path, capsys, monkeypatch, option):
    grids = []
    monkeypatch.setattr(simulate, "make_synthetic_grid", lambda *a, **kw: grids.append(a))
    argv = ["sweep", "--out", str(tmp_path / "s.csv"), *SWEEP_ARGS, *option]
    assert main(argv) == 2
    assert "kind=BadOption" in capsys.readouterr().err
    assert grids == []
    assert not (tmp_path / "s.csv").exists()


def test_sweep_passes_every_match_option_to_the_attack(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allow-node-reuse": True, "max-candidates": 5000}))
    seen = []
    real = matcher.run_attack

    def spy(g, traj, config):
        seen.append(config)
        return real(g, traj, config)

    monkeypatch.setattr(matcher, "run_attack", spy)
    args = ["--sides-km", "0.9", "--qs", "5", "--ks", "1,3", "--trials", "1", "--seed", "5"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), "--config", str(cfg), *args]) == 0
    assert [(c.k, c.allow_node_reuse, c.max_candidates) for c in seen] == [
        (1, True, 5000),
        (3, True, 5000),
    ]


def test_sweep_psi_non_decreasing_in_k(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), *SWEEP_ARGS]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_cell: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for side, q, k, *rest in rows:
        # rest: trials, matched, psi_mean, precision_mean, offset, fnr
        by_cell.setdefault((side, q), []).append((int(k), float(rest[2])))
    for cell, pairs in by_cell.items():
        pairs.sort()
        psis = [p for _, p in pairs]
        assert psis == sorted(psis), f"psi fell with k in cell {cell}"
