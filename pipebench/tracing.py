"""Per-module timings and counts for the traced run.

The program itself records nothing. ``Tracer.installed`` swaps wrappers in
for the module functions that ``canmatch attack`` calls through their
module attributes, and puts the originals back on exit. Each wrapper adds
its call's wall time and counts to the current round's totals.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from canmatch import _kernels, canlog, matcher, metrics, roadnet, trajgraph


class Tracer:
    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.true_q = 0  # node count of the true route of the drive being attacked
        self.match_end = 0.0

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.totals[name] += (t1 - t0) * 1e3
            if after is not None:
                after(out, t1)
            return out

        return wrapper

    def _after_read(self, log, _t):
        self.totals["canlog.rows"] += log.speed.count + log.pedal.count

    def _after_build(self, traj, _t):
        self.totals["trajgraph.nodes"] += traj.node_count
        self.totals["trajgraph.exact_node_drives"] += traj.node_count == self.true_q

    def _after_enumerate(self, out, _t):
        count, truncated = out
        self.totals["kernels.raw_paths"] += int(count)
        self.totals["kernels.truncated_rungs"] += bool(truncated)
        self.totals["matcher.rungs"] += 1

    def _after_dedup(self, cands, _t):
        self.totals["matcher.deduped_paths"] += len(cands)

    def _after_match(self, _result, t1):
        self.match_end = t1

    @contextlib.contextmanager
    def installed(self):
        """Patch the hooks in; restore the original functions on exit."""
        hooks = [
            (canlog, "read_can_csv", "canlog.read_ms", self._after_read),
            (roadnet, "load_graph", "roadnet.load_ms", None),
            (trajgraph, "build_trajectory", "trajgraph.build_ms", self._after_build),
            (_kernels, "enumerate_matches", "kernels.enumerate_ms", self._after_enumerate),
            (matcher, "_dedup_orientations", "matcher.dedup_ms", self._after_dedup),
            (matcher, "top_k", "matcher.rank_ms", None),
            (matcher, "run_attack", "matcher.run_attack_ms", self._after_match),
            (metrics, "evaluate", "metrics.evaluate_ms", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in hooks]
        try:
            for mod, attr, name, after in hooks:
                setattr(mod, attr, self._timed(name, getattr(mod, attr), after))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def attack_done(self, attack_ms: float, t_end: float) -> None:
        """Book one traced attack that returned at t_end after attack_ms."""
        self.totals["attack.traced_ms"] += attack_ms
        self.totals["cli.write_ms"] += (t_end - self.match_end) * 1e3

    def round_metrics(self) -> dict[str, float]:
        """This round's per-layer figures, derived from the raw totals."""
        t = self.totals
        match_ms = t["matcher.run_attack_ms"] - t["matcher.rank_ms"]
        layers = (
            t["canlog.read_ms"]
            + t["roadnet.load_ms"]
            + t["trajgraph.build_ms"]
            + t["matcher.run_attack_ms"]
            + t["cli.write_ms"]
        )
        out = {name: t[name] for name in REPORTED}
        out["matcher.match_ms"] = match_ms
        out["matcher.candidates_ms"] = match_ms - t["kernels.enumerate_ms"]
        out["cli.other_ms"] = t["attack.traced_ms"] - layers
        return out

    def reset(self) -> None:
        self.totals.clear()


# raw totals reported as they are
REPORTED = [
    "canlog.read_ms",
    "canlog.rows",
    "roadnet.load_ms",
    "trajgraph.build_ms",
    "trajgraph.nodes",
    "trajgraph.exact_node_drives",
    "kernels.enumerate_ms",
    "kernels.raw_paths",
    "kernels.truncated_rungs",
    "matcher.dedup_ms",
    "matcher.rungs",
    "matcher.deduped_paths",
    "matcher.rank_ms",
    "cli.write_ms",
    "metrics.evaluate_ms",
    "attack.traced_ms",
]


def unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"
