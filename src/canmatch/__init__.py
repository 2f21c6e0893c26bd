"""Reconstruct driving trajectories from CAN logs and locate them on a map.

Pipeline: parse a speed/pedal CSV (canlog), reconstruct the drive as a
weighted line graph (trajgraph), enumerate matching paths on a road
network (roadnet, matcher), and score candidates against a known route
(metrics). The simulate module closes the loop with synthetic drives.
The stage internals stay importable from their modules.
"""

from .canlog import CanLog, parse_can_csv, read_can_csv, write_can_csv
from .matcher import (
    AttackResult,
    CandidatePath,
    MatchConfig,
    result_from_dict,
    result_to_geojson,
    run_attack,
)
from .metrics import EvalReport, GroundTruth, evaluate
from .roadnet import RoadGraph, bbox_filter, load_graph, read_osm_xml, save_graph
from .simulate import DriveProfile, SimScenario, make_synthetic_grid, sample_route, synthesize_can
from .trajgraph import TrajectoryGraph, build_trajectory

__version__ = "0.1.0"

__all__ = [
    "AttackResult",
    "CanLog",
    "CandidatePath",
    "DriveProfile",
    "EvalReport",
    "GroundTruth",
    "MatchConfig",
    "RoadGraph",
    "SimScenario",
    "TrajectoryGraph",
    "bbox_filter",
    "build_trajectory",
    "evaluate",
    "load_graph",
    "make_synthetic_grid",
    "parse_can_csv",
    "read_can_csv",
    "read_osm_xml",
    "result_from_dict",
    "result_to_geojson",
    "run_attack",
    "sample_route",
    "save_graph",
    "synthesize_can",
    "write_can_csv",
]
