"""Seeded drive workloads: maps, true routes and CAN logs written to disk.

Each workload is a pool of drives. A drive is one CAN log, the road graph
it was driven on, and the true route. The attack under test only ever
sees the two files; the true route and the generated map stay in memory
here so the checks can score the attack's output against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from canmatch import canlog, roadnet, simulate

SPACING_M = 300.0
GRID_JITTER = 0.1
SAMPLE_PERIOD_S = 0.1


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    grid_n: int  # nodes per grid side
    drives_per_map: int
    q: int  # nodes per true route
    noise_std_mps: float
    stop_offset_m: float
    drives: int  # drives in the pool, each attacked once per round
    attack_args: tuple[str, ...] = ()  # extra `canmatch attack` options


WORKLOADS = {
    "town_clean": Spec(
        grid_n=10,
        drives_per_map=1,
        q=8,
        noise_std_mps=0.0,
        stop_offset_m=0.0,
        drives=200,
    ),
    # Eight maps of 30 drives, so that no one map's layout sets the search
    # cost of every drive in a run.
    "city_large": Spec(
        grid_n=40,
        drives_per_map=30,
        q=10,
        noise_std_mps=0.2,
        stop_offset_m=0.0,
        drives=240,
    ),
    # About one drive in ten here loses a node: a displaced stop pulls an
    # edge under the map's shortest edge and the two events merge. Under the
    # default ladder such drives climb to the 0.3 and 0.5 rungs, which search
    # almost every path (1-9 s per drive at q=12), and throughput swung
    # twofold from seed to seed. With a 0.05 first rung, the quarter of drives
    # that climb put the p90 on the boundary between two groups. One 0.1 rung
    # gives every drive the same work; q=8 keeps per-drive times within a
    # factor of ten, so 320 drives fix the median to a few percent.
    "displaced_stops": Spec(
        grid_n=9,
        drives_per_map=1,
        q=8,
        noise_std_mps=0.0,
        stop_offset_m=10.0,
        drives=320,
        attack_args=("--sigma-ladder", "0.1"),
    ),
}


@dataclass(frozen=True)
class Drive:
    log_path: str
    graph_path: str
    map_index: int
    truth: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    """Everything set-up produced: files on disk plus the generator's truth."""

    drives: list[Drive]
    maps: list[roadnet.RoadGraph]


def stream_seed(seed: int, *parts: int) -> int:
    """Independent 32-bit seed for one (workload seed, purpose, index) stream."""
    return int(np.random.SeedSequence((seed,) + parts).generate_state(1)[0])


def generate(spec: Spec, seed: int, out_dir: str) -> Inputs:
    """Generate the workload's maps and drives and write their files.

    The same (spec, seed) always writes byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    n_maps = -(-spec.drives // spec.drives_per_map)
    maps = [
        simulate.make_synthetic_grid(
            spec.grid_n, SPACING_M, GRID_JITTER, seed=stream_seed(seed, 1, i)
        )
        for i in range(n_maps)
    ]
    graph_paths = []
    for i, g in enumerate(maps):
        path = os.path.join(out_dir, f"map{i:03d}.json")
        roadnet.save_graph(g, path)
        graph_paths.append(path)
    drives = []
    for i in range(spec.drives):
        m = i // spec.drives_per_map
        truth = simulate.sample_route(maps[m], spec.q, seed=stream_seed(seed, 2, i))
        profile = simulate.DriveProfile(
            sample_period_s=SAMPLE_PERIOD_S,
            speed_noise_std=spec.noise_std_mps,
            stop_offset_m=spec.stop_offset_m,
            seed=stream_seed(seed, 3, i),
        )
        scenario = simulate.synthesize_can(truth, maps[m], profile)
        log_path = os.path.join(out_dir, f"drive{i:03d}.csv")
        canlog.write_can_csv(scenario.log, log_path)
        drives.append(Drive(log_path, graph_paths[m], m, truth.node_ids))
    return Inputs(drives=drives, maps=maps)
