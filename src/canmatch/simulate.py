"""Synthetic drives over a road graph, emitted as CAN logs.

The vehicle is stepped at a fixed sample period; position advances by
speed * period each step, and events (stops, turns) trigger on odometer
position, so the distance driven between any two events equals the road
distance between their anchor points to float precision regardless of
speed noise. Logs start mid-edge with the vehicle already moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canlog import CanLog, PedalSeries, SpeedSeries
from .errors import NoSuchPath
from .geo import M_PER_DEG_LAT, haversine_m
from .metrics import GroundTruth
from .roadnet import RoadGraph

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
        if not (0 < self.cruise_speed_mps < math.inf and 0 < self.sample_period_s < math.inf):
            raise ValueError("cruise speed and sample period must be positive and finite")
        lo, hi = self.stop_dwell_s
        if not 0 < lo <= hi < math.inf:
            raise ValueError("stop_dwell_s must be a positive, finite (low, high) range")
        if not 0 < self.turn_slowdown < 1:
            raise ValueError("turn_slowdown must lie in (0, 1)")
        if not 2 * self.sample_period_s <= self.turn_window_s < math.inf:
            raise ValueError("turn_window_s must be finite and cover at least 2 samples")
        idle, cruise = self.pedal_idle, self.pedal_cruise
        if not (-math.inf < idle and idle + 2.0 < cruise < math.inf):
            raise ValueError("pedal levels must be finite, pedal_cruise clearly above pedal_idle")
        if not (0 <= self.speed_noise_std < math.inf and 0 <= self.stop_offset_m < math.inf):
            raise ValueError("noise and offset must be non-negative and finite")
        if self.event_pattern not in EVENT_PATTERNS:
            raise ValueError(f"event_pattern must be one of {EVENT_PATTERNS}")
        turn_travel = self.turn_slowdown * self.cruise_speed_mps * self.turn_window_s
        first_event = self.stop_offset_m + turn_travel + self.cruise_speed_mps
        if not first_event < self.lead_in_m < math.inf:
            raise ValueError("lead_in_m must be finite and long enough for the first event")
        if not -math.inf < self.tail_m < math.inf:
            raise ValueError("tail_m must be finite")


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
    spread around spacing_m. Georeferenced around origin (lat, lon); every
    node's latitude must stay strictly between the poles, and the origin's
    longitude must lie in [-180, 180].
    """
    if n < 2:
        raise ValueError("grid needs at least 2 nodes per side")
    if not 0 <= jitter < 0.5:
        raise ValueError("jitter must lie in [0, 0.5) to keep the lattice planar")
    rng = np.random.default_rng(seed)
    lat0, lon0 = origin
    if not -180.0 <= lon0 <= 180.0:
        raise ValueError(f"origin longitude must lie in [-180, 180], not {lon0}")
    offsets = rng.uniform(-jitter * spacing_m, jitter * spacing_m, size=(n, n, 2))
    steps = np.arange(n) * spacing_m
    north = steps[:, None] + offsets[:, :, 0]
    east = steps[None, :] + offsets[:, :, 1]
    lat = (lat0 + north / M_PER_DEG_LAT).ravel()
    if np.any(np.abs(lat) >= 90.0):
        raise ValueError("grid latitudes must lie strictly between -90 and 90")
    lon = (lon0 + east / (M_PER_DEG_LAT * np.cos(np.radians(lat0)))).ravel()
    width = len(str(n - 1))
    ids = [f"n{r:0{width}d}_{c:0{width}d}" for r in range(n) for c in range(n)]
    # each node's east and south neighbours, by row-major node number
    k = np.arange(n * n).reshape(n, n)
    us = np.concatenate((k[:, :-1].ravel(), k[:-1, :].ravel())).tolist()
    vs = np.concatenate((k[:, 1:].ravel(), k[1:, :].ravel())).tolist()
    # scalar calls: an array call can differ in the last bit, which changes map bytes
    lengths = [float(haversine_m(lat[a], lon[a], lat[b], lon[b])) for a, b in zip(us, vs)]
    return RoadGraph(ids, lat, lon, [ids[a] for a in us], [ids[b] for b in vs], lengths)


# nodes one sample_route call may expand, over all its restarts
ROUTE_EXPANSIONS = 200_000


def sample_route(g: RoadGraph, q: int, seed: int = 0) -> GroundTruth:
    """A random simple path of q nodes, found by walking with backtracking.

    The walk restarts from a random node up to 200 times. Over all restarts
    it expands at most ROUTE_EXPANSIONS nodes, so a q that few or no
    simple paths reach raises NoSuchPath instead of backtracking through
    exponentially many partial paths.

    Raises:
        NoSuchPath: no path of that length was found within the budget.
    """
    if q < 2:
        raise ValueError("a route needs at least 2 nodes")
    ids = g.ids
    if q > len(ids):
        raise NoSuchPath(f"graph has only {len(ids)} nodes, need {q}")
    rng = np.random.default_rng(seed)
    ptr = g.indptr.tolist()
    nbrs = g.nbrs.tolist()
    on_path = [False] * len(ids)
    budget = ROUTE_EXPANSIONS
    for _attempt in range(200):
        u = int(rng.integers(len(ids)))
        path: list[int] = []
        # untried[i]: path[i]'s unvisited neighbours not yet walked, next one last
        untried: list[list[int]] = []
        while True:
            path.append(u)
            on_path[u] = True
            if len(path) == q:
                return GroundTruth(node_ids=tuple(ids[i] for i in path))
            budget -= 1
            if budget < 0:
                raise NoSuchPath(
                    f"no simple path of {q} nodes found in {ROUTE_EXPANSIONS} expansions"
                )
            options = [v for v in nbrs[ptr[u] : ptr[u + 1]] if not on_path[v]]
            untried.append([options[i] for i in rng.permutation(len(options)).tolist()[::-1]])
            while untried and not untried[-1]:
                untried.pop()
                on_path[path.pop()] = False
            if not untried:
                break
            u = untried[-1].pop()
    raise NoSuchPath(f"no simple path of {q} nodes found in 200 attempts")


class _Trace:
    """Sample accumulator driving the discrete-time vehicle.

    Samples are gathered as chunks (arrays or lists) of speeds and pedals;
    ``pos`` advances by speed * period per sample, added one sample at a
    time so that it is the same float as a per-sample loop would hold.
    """

    def __init__(self, profile: DriveProfile, rng: np.random.Generator):
        self.p = profile
        self.rng = rng
        self.pos = 0.0
        self.speeds_mps: list = []
        self.pedals: list = []
        # cruise pedal jitter stays well clear of the idle level
        self._jitter_amp = min(2.0, (profile.pedal_cruise - profile.pedal_idle) / 4.0)

    def cruise_to(self, target: float) -> None:
        """Drive at cruise speed, landing exactly on target with a final
        shortened sample."""
        if self.pos >= target - 1e-12:
            # an earlier event overshot past this target; hold position
            self.pos = max(self.pos, target)
            return
        if self.p.speed_noise_std > 0:
            self._noisy_cruise_to(target)
            return
        dt = self.p.sample_period_s
        cruise = self.p.cruise_speed_mps
        step = cruise * dt
        n = int((target - self.pos) / step) + 2
        while True:
            # add.accumulate sums in order, so reach[j] is the position after j samples
            reach = np.add.accumulate(np.concatenate(([self.pos], np.full(n, step))))
            hits = np.flatnonzero(reach[1:] >= target - 1e-12)
            if hits.size:
                break
            n *= 2
        full = int(hits[0])  # whole cruise samples before the landing one
        v_land = (target - float(reach[full])) / dt
        speeds = [cruise] * full + ([v_land] if v_land > 1e-9 else [])
        if speeds:
            self.speeds_mps.append(speeds)
            # one bulk draw yields the same values as one scalar draw per sample
            amp = self._jitter_amp
            self.pedals.append(self.p.pedal_cruise + self.rng.uniform(-amp, amp, len(speeds)))
        self.pos = target

    def _noisy_cruise_to(self, target: float) -> None:
        """cruise_to with speed noise, one sample at a time.

        Each sample draws its speed noise and then its pedal jitter from the
        one generator. Drawing either in bulk would reorder the draws and so
        change every noisy log. The draws are written out as numpy computes
        them: normal(0, std) is 0 + std * standard_normal() and
        uniform(lo, hi) is lo + (hi - lo) * random().
        """
        p = self.p
        normal, uniform = self.rng.standard_normal, self.rng.random
        dt = p.sample_period_s
        cruise, std, pedal = p.cruise_speed_mps, p.speed_noise_std, p.pedal_cruise
        floor = 0.1 * cruise
        lo = -self._jitter_amp
        span = self._jitter_amp - lo
        pos = self.pos
        speeds: list[float] = []
        pedals: list[float] = []
        while True:
            v = max(floor, cruise + std * normal())
            if pos + v * dt >= target - 1e-12:
                v_land = (target - pos) / dt
                if v_land > 1e-9:
                    speeds.append(v_land)
                    pedals.append(pedal + (lo + span * uniform()))
                break
            speeds.append(v)
            pedals.append(pedal + (lo + span * uniform()))
            pos += v * dt
        self.speeds_mps.append(speeds)
        self.pedals.append(pedals)
        self.pos = target

    def dwell(self, seconds: float) -> None:
        n = max(2, round(seconds / self.p.sample_period_s))
        self.speeds_mps.append([0.0] * n)
        self.pedals.append([self.p.pedal_idle] * n)

    def turn_window(self) -> None:
        """Slow approach, then a single pedal-release sample on the anchor.

        The approach pedal eases toward idle but stays outside the
        candidate tolerance; only the final sample reads exactly idle, so
        the reconstructed turn node sits on the anchor position itself.
        """
        v_turn = self.p.turn_slowdown * self.p.cruise_speed_mps
        n = max(2, round(self.p.turn_window_s / self.p.sample_period_s))
        self.speeds_mps.append([v_turn] * n)
        self.pedals.append([self.p.pedal_idle + 2.0] * (n - 1) + [self.p.pedal_idle])
        step = v_turn * self.p.sample_period_s
        for _ in range(n):
            self.pos += step

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

    trace = _Trace(profile, rng)
    for i, anchor in enumerate(anchors):
        if profile.event_pattern == "stops" or i % 2 == 0:  # a stop, else a turn
            trace.cruise_to(float(anchor))
            trace.dwell(float(rng.uniform(*profile.stop_dwell_s)))
        else:
            trace.cruise_to(float(anchor) - trace.turn_lead_m())
            trace.turn_window()
    if profile.tail_m > 0:
        trace.cruise_to(trace.pos + profile.tail_m)

    speeds_kmh = np.concatenate(trace.speeds_mps, dtype=np.float64) * MS_TO_KMH
    pedals = np.concatenate(trace.pedals, dtype=np.float64)
    times = np.arange(pedals.size, dtype=np.float64) * profile.sample_period_s
    log = CanLog(
        speed=SpeedSeries(times=times, values=speeds_kmh),
        pedal=PedalSeries(times=times.copy(), values=pedals),
    )
    return SimScenario(ground_truth=gt, profile=profile, log=log)
