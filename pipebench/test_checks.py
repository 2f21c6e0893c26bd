"""Self-test of the benchmark's correctness checks.

Attacks one generated noise-free drive, shows that its real output passes
every check, then corrupts that output one way at a time and shows that
the matching check rejects it. Run with:

    python3 -m pytest pipebench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from canmatch import cli  # noqa: E402


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    work = tmp_path_factory.mktemp("drive")
    spec = replace(workloads.WORKLOADS["town_clean"], drives=1)
    inputs = workloads.generate(spec, 7, str(work / "in"))
    d = inputs.drives[0]
    rc = cli.main(["attack", "--log", d.log_path, "--graph", d.graph_path, "--out-dir", str(work / "out")])
    assert rc == 0
    result = json.loads((work / "out" / "result.json").read_text())
    geo = json.loads((work / "out" / "candidates.geojson").read_text())
    assert len(result["candidates"]) >= 2
    g = inputs.maps[0]
    ctx = {
        "truth": d.truth,
        "lut": checks.edge_lengths(g),
        "coords": {n.id: (n.lon, n.lat) for n in g.nodes.values()},
    }
    return result, geo, ctx


def _check(result, geo, ctx, exact=True):
    return checks.check_result(result, geo, exact=exact, **ctx)


def test_real_output_passes(drive):
    result, geo, ctx = drive
    outcome = _check(result, geo, ctx)
    assert outcome.top1
    assert outcome.covered == len(ctx["truth"])
    checks.check_psi(1.0, outcome.covered, ctx["truth"])


def _corrupt(drive, edit):
    result, geo, ctx = drive
    result, geo = copy.deepcopy(result), copy.deepcopy(geo)
    edit(result, geo)
    return result, geo, ctx


def _swap_nodes(result, geo):
    ids = result["candidates"][1]["node_ids"]
    ids[2], ids[3] = ids[3], ids[2]


def _wrong_length(result, geo):
    result["candidates"][1]["edge_lengths_m"][0] += 0.5


def _theta_out_of_order(result, geo):
    c = result["candidates"]
    c[0], c[1] = c[1], c[0]
    c[0]["rank"], c[1]["rank"] = 1, 2
    f = geo["features"]
    f[0], f[1] = f[1], f[0]
    f[0]["properties"]["rank"], f[1]["properties"]["rank"] = 1, 2


def _theta_off(result, geo):
    result["candidates"][1]["theta_m"] += 1e-6


def _outside_tolerance(result, geo):
    # rank 1 is the exact truth and still passes; rank 2 does not
    result["sigma_used"] = 1e-4
    result["config"]["sigma_ladder"].append(1e-4)
    for c in result["candidates"]:
        c["sigma_used"] = 1e-4


def _truth_dropped(result, geo):
    for doc in (result["candidates"], geo["features"]):
        del doc[0]
    for rank, (c, f) in enumerate(zip(result["candidates"], geo["features"]), start=1):
        c["rank"] = f["properties"]["rank"] = rank


def _geojson_moved(result, geo):
    geo["features"][0]["geometry"]["coordinates"][0][0] += 1e-6


def _weights_drift(result, geo):
    # a reconstruction off by 1 mm, with residuals and theta kept consistent
    wr = result["trajectory"]["edge_weights_m"]
    wr[0] += 1e-3
    for c in result["candidates"]:
        c["residuals_m"] = [abs(w - r) for w, r in zip(c["edge_lengths_m"], wr)]
        c["theta_m"] = sum(c["residuals_m"]) / len(wr)


@pytest.mark.parametrize(
    "edit, exact, message",
    [
        (_swap_nodes, True, "not an edge of the map"),
        (_wrong_length, True, "edge lengths differ from the map"),
        (_theta_out_of_order, True, "non-decreasing theta"),
        (_theta_off, True, "theta is wrong"),
        (_outside_tolerance, True, r"fails \|w-wr\| <= sigma\*w"),
        (_truth_dropped, True, "rank 1 is not the true route"),
        (_truth_dropped, False, "admitted true route is missing"),
        (_geojson_moved, True, "GeoJSON coordinates differ"),
        (_weights_drift, True, "reconstructed weights differ"),
    ],
)
def test_each_check_rejects_its_corruption(drive, edit, exact, message):
    result, geo, ctx = _corrupt(drive, edit)
    with pytest.raises(checks.CheckFailed, match=message):
        _check(result, geo, ctx, exact=exact)


def test_psi_mismatch_is_rejected(drive):
    _, _, ctx = drive
    with pytest.raises(checks.CheckFailed, match="psi"):
        checks.check_psi(7 / 8, 8, ctx["truth"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "town_clean", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
