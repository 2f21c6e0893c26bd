"""Synthetic drives over a road graph, emitted as CAN logs.

The vehicle is stepped at a fixed sample period; position advances by
speed * period each step, and events (stops, turns) trigger on odometer
position, so the distance driven between any two events equals the road
distance between their anchor points to float precision regardless of
speed noise. Logs start mid-edge with the vehicle already moving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canlog import CanLog, PedalSeries, SpeedSeries
from .errors import NoSuchPath
from .geo import M_PER_DEG_LAT, haversine_m
from .metrics import GroundTruth
from .roadnet import RoadEdge, RoadGraph, RoadNode

MS_TO_KMH = 3.6

EVENT_PATTERNS = ("alternate", "stops")


@dataclass(frozen=True)
class DriveProfile:
    """Knobs of the synthetic driver.

    stop_offset_m models where the vehicle actually comes to rest relative
    to the intersection: each event anchors up to that many meters before
    its node, drawn uniformly. At the default 0 every event lands exactly
    on its node and reconstruction is exact to float precision.
    """

    cruise_speed_mps: float = 10.0
    sample_period_s: float = 0.1
    stop_dwell_s: tuple[float, float] = (4.0, 8.0)
    turn_slowdown: float = 0.3
    turn_window_s: float = 3.0
    pedal_idle: float = 14.0
    pedal_cruise: float = 30.0
    speed_noise_std: float = 0.0
    stop_offset_m: float = 0.0
    lead_in_m: float = 200.0
    tail_m: float = 80.0
    event_pattern: str = "alternate"
    seed: int = 0

    def __post_init__(self):
        if self.cruise_speed_mps <= 0 or self.sample_period_s <= 0:
            raise ValueError("cruise speed and sample period must be positive")
        lo, hi = self.stop_dwell_s
        if not 0 < lo <= hi:
            raise ValueError("stop_dwell_s must be a positive (low, high) range")
        if not 0 < self.turn_slowdown < 1:
            raise ValueError("turn_slowdown must lie in (0, 1)")
        if self.turn_window_s < 2 * self.sample_period_s:
            raise ValueError("turn_window_s must cover at least 2 samples")
        if self.pedal_cruise <= self.pedal_idle + 2.0:
            raise ValueError("pedal_cruise must sit clearly above pedal_idle")
        if self.speed_noise_std < 0 or self.stop_offset_m < 0:
            raise ValueError("noise and offset must be non-negative")
        if self.event_pattern not in EVENT_PATTERNS:
            raise ValueError(f"event_pattern must be one of {EVENT_PATTERNS}")
        turn_travel = self.turn_slowdown * self.cruise_speed_mps * self.turn_window_s
        if self.lead_in_m <= self.stop_offset_m + turn_travel + self.cruise_speed_mps:
            raise ValueError("lead_in_m too short for the first event")


@dataclass(frozen=True)
class SimScenario:
    ground_truth: GroundTruth
    profile: DriveProfile
    log: CanLog


def make_synthetic_grid(
    n: int,
    spacing_m: float,
    jitter: float,
    *,
    seed: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
) -> RoadGraph:
    """An n-by-n lattice with jittered node positions.

    Each node moves up to jitter * spacing_m in both axes, so edge lengths
    spread around spacing_m. Georeferenced around origin (lat, lon).
    """
    if n < 2:
        raise ValueError("grid needs at least 2 nodes per side")
    if not 0 <= jitter < 0.5:
        raise ValueError("jitter must lie in [0, 0.5) to keep the lattice planar")
    rng = np.random.default_rng(seed)
    lat0, lon0 = origin
    offsets = rng.uniform(-jitter * spacing_m, jitter * spacing_m, size=(n, n, 2))
    width = len(str(n - 1))
    nodes = []
    for r in range(n):
        for c in range(n):
            north = r * spacing_m + offsets[r, c, 0]
            east = c * spacing_m + offsets[r, c, 1]
            nodes.append(
                RoadNode(
                    id=f"n{r:0{width}d}_{c:0{width}d}",
                    lat=lat0 + north / M_PER_DEG_LAT,
                    lon=lon0 + east / (M_PER_DEG_LAT * np.cos(np.radians(lat0))),
                )
            )
    by_id = {nd.id: nd for nd in nodes}

    def nid(r: int, c: int) -> str:
        return f"n{r:0{width}d}_{c:0{width}d}"

    edges = []
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < n and c2 < n:
                    a, b = by_id[nid(r, c)], by_id[nid(r2, c2)]
                    edges.append(
                        RoadEdge(a.id, b.id, float(haversine_m(a.lat, a.lon, b.lat, b.lon)))
                    )
    return RoadGraph(nodes, edges)


def sample_route(g: RoadGraph, q: int, seed: int = 0) -> GroundTruth:
    """A random simple path of q nodes, found by walking with backtracking.

    Raises:
        NoSuchPath: no path of that length was found within the retry budget.
    """
    if q < 2:
        raise ValueError("a route needs at least 2 nodes")
    ids = g.ids
    if q > len(ids):
        raise NoSuchPath(f"graph has only {len(ids)} nodes, need {q}")
    rng = np.random.default_rng(seed)
    ptr = g.indptr.tolist()
    nbrs = g.nbrs.tolist()
    path: list[int] = []

    def walk(u: int) -> bool:
        path.append(u)
        if len(path) == q:
            return True
        options = [v for v in nbrs[ptr[u] : ptr[u + 1]] if v not in path]
        for idx in rng.permutation(len(options)):
            if walk(options[int(idx)]):
                return True
        path.pop()
        return False

    for _attempt in range(200):
        path.clear()
        if walk(int(rng.integers(len(ids)))):
            return GroundTruth(node_ids=tuple(ids[i] for i in path))
    raise NoSuchPath(f"no simple path of {q} nodes found in 200 attempts")


class _Trace:
    """Sample accumulator driving the discrete-time vehicle."""

    def __init__(self, profile: DriveProfile, rng: np.random.Generator):
        self.p = profile
        self.rng = rng
        self.pos = 0.0
        self.speeds_mps: list[float] = []
        self.pedals: list[float] = []
        # cruise pedal jitter stays well clear of the idle level
        self._jitter_amp = min(2.0, (profile.pedal_cruise - profile.pedal_idle) / 4.0)

    def _cruise_pedal(self) -> float:
        return self.p.pedal_cruise + float(
            self.rng.uniform(-self._jitter_amp, self._jitter_amp)
        )

    def _emit(self, v_mps: float, pedal: float) -> None:
        self.speeds_mps.append(v_mps)
        self.pedals.append(pedal)
        self.pos += v_mps * self.p.sample_period_s

    def cruise_to(self, target: float) -> None:
        """Drive at cruise speed, landing exactly on target with a final
        shortened sample."""
        dt = self.p.sample_period_s
        cruise = self.p.cruise_speed_mps
        floor = 0.1 * cruise
        if self.pos >= target - 1e-12:
            # an earlier event overshot past this target; hold position
            self.pos = max(self.pos, target)
            return
        while True:
            v = cruise
            if self.p.speed_noise_std > 0:
                v = max(floor, cruise + float(self.rng.normal(0.0, self.p.speed_noise_std)))
            if self.pos + v * dt >= target - 1e-12:
                v_land = (target - self.pos) / dt
                if v_land > 1e-9:
                    self._emit(v_land, self._cruise_pedal())
                self.pos = target
                return
            self._emit(v, self._cruise_pedal())

    def cruise_distance(self, meters: float) -> None:
        self.cruise_to(self.pos + meters)

    def dwell(self, seconds: float) -> None:
        n = max(2, round(seconds / self.p.sample_period_s))
        for _ in range(n):
            self._emit(0.0, self.p.pedal_idle)

    def turn_window(self) -> None:
        """Slow approach, then a single pedal-release sample on the anchor.

        The approach pedal eases toward idle but stays outside the
        candidate tolerance; only the final sample reads exactly idle, so
        the reconstructed turn node sits on the anchor position itself.
        """
        v_turn = self.p.turn_slowdown * self.p.cruise_speed_mps
        n = max(2, round(self.p.turn_window_s / self.p.sample_period_s))
        ease = self.p.pedal_idle + 2.0
        for _ in range(n - 1):
            self._emit(v_turn, ease)
        self._emit(v_turn, self.p.pedal_idle)

    def turn_lead_m(self) -> float:
        """Distance covered by the slow approach before the release sample."""
        n = max(2, round(self.p.turn_window_s / self.p.sample_period_s))
        v_turn = self.p.turn_slowdown * self.p.cruise_speed_mps
        return (n - 1) * v_turn * self.p.sample_period_s


def synthesize_can(gt: GroundTruth, g: RoadGraph, profile: DriveProfile) -> SimScenario:
    """Drive the ground-truth route and emit its CAN log.

    Interior event kinds follow profile.event_pattern: alternating
    stop/turn by default. Every event is anchored by odometer position, so
    noise-free logs reconstruct each road edge length exactly.
    """
    slots = []
    for a, b in zip(gt.node_ids, gt.node_ids[1:]):
        slot = g.edge_slot(a, b)
        if slot < 0:
            raise ValueError(f"ground truth hops non-edge {a}-{b}")
        slots.append(slot)
    lengths = g.lens[slots]

    anchors = np.concatenate(([profile.lead_in_m], profile.lead_in_m + np.cumsum(lengths)))
    rng = np.random.default_rng(profile.seed)
    if profile.stop_offset_m > 0:
        anchors = anchors - rng.uniform(0.0, profile.stop_offset_m, size=anchors.size)

    def kind_of(i: int) -> str:
        if profile.event_pattern == "stops":
            return "stop"
        return "stop" if i % 2 == 0 else "turn"

    trace = _Trace(profile, rng)
    for i, anchor in enumerate(anchors):
        if kind_of(i) == "stop":
            trace.cruise_to(float(anchor))
            trace.dwell(float(rng.uniform(*profile.stop_dwell_s)))
        else:
            trace.cruise_to(float(anchor) - trace.turn_lead_m())
            trace.turn_window()
    if profile.tail_m > 0:
        trace.cruise_distance(profile.tail_m)

    n = len(trace.speeds_mps)
    times = np.arange(n, dtype=np.float64) * profile.sample_period_s
    speeds_kmh = np.asarray(trace.speeds_mps, dtype=np.float64) * MS_TO_KMH
    pedals = np.asarray(trace.pedals, dtype=np.float64)
    log = CanLog(
        speed=SpeedSeries(times=times, values=speeds_kmh),
        pedal=PedalSeries(times=times.copy(), values=pedals),
    )
    return SimScenario(ground_truth=gt, profile=profile, log=log)
