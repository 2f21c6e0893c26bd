"""One benchmark run: set up a workload, attack its drives in rounds, check, report."""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks
import tracing
import workloads
from canmatch import _kernels, cli, matcher, metrics

RUNS = Path(__file__).resolve().parent / "_runs"
SETUP_REPEATS = 3
MIN_TIMED_ATTACKS = 100  # so at least 10 attacks lie beyond the p90


class Bench:
    """A workload's generated inputs, the attack call and the output checks."""

    def __init__(self, spec: workloads.Spec, seed: int, work: Path):
        self.work = work
        self.attack_args = spec.attack_args
        self.exact = spec.noise_std_mps == 0 and spec.stop_offset_m == 0
        self.setup_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            inputs = workloads.generate(spec, seed, str(work / "in"))
            self.setup_s.append(time.perf_counter() - t0)
        self.drives = inputs.drives
        self.maps = inputs.maps
        self.luts = [checks.edge_lengths(g) for g in inputs.maps]
        self.coords = [{n.id: (n.lon, n.lat) for n in g.nodes.values()} for g in inputs.maps]
        self.baseline: dict[int, tuple[bytes, bytes, int]] = {}
        self.top1 = 0
        self.covered = 0
        self.correct = True

    def attack(self, i: int, sink) -> tuple[bool, float, float]:
        """One ``canmatch attack`` call: (exit code was 0, elapsed ms, end time)."""
        d = self.drives[i]
        argv = ["attack", "--log", d.log_path, "--graph", d.graph_path]
        argv += ["--out-dir", str(self.work / "out" / f"{i:03d}"), *self.attack_args]
        failure = None
        with contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):
                rc = None
                failure = traceback.format_exc()
            t1 = time.perf_counter()
        if failure is not None:
            print(f"drive {i}: attack raised\n{failure}", file=sys.stderr)
        elif rc != 0:
            print(f"drive {i}: attack exited {rc}", file=sys.stderr)
        return rc == 0, (t1 - t0) * 1e3, t1

    def verify(self, i: int) -> bool:
        """Check drive i's outputs. The first success is checked in full;
        later rounds must reproduce its bytes."""
        d = self.drives[i]
        out = self.work / "out" / f"{i:03d}"
        try:
            raw_result = (out / "result.json").read_bytes()
            raw_geo = (out / "candidates.geojson").read_bytes()
            result = json.loads(raw_result)
            if i in self.baseline:
                base_result, base_geo, covered = self.baseline[i]
                if (raw_result, raw_geo) != (base_result, base_geo):
                    raise checks.CheckFailed("output differs from the first round")
            else:
                outcome = checks.check_result(
                    result,
                    json.loads(raw_geo),
                    truth=d.truth,
                    lut=self.luts[d.map_index],
                    coords=self.coords[d.map_index],
                    exact=self.exact,
                )
                covered = outcome.covered
                self.baseline[i] = (raw_result, raw_geo, covered)
                self.top1 += outcome.top1
                self.covered += covered
            with warnings.catch_warnings():
                # a reconstruction shorter than the truth warns PairingTruncated
                warnings.simplefilter("ignore")
                report = metrics.evaluate(
                    matcher.result_from_dict(result),
                    metrics.GroundTruth(node_ids=d.truth),
                    self.maps[d.map_index],
                )
            checks.check_psi(report.psi, covered, d.truth)
        except (checks.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            # missing or malformed output documents fail the drive like a wrong value
            print(f"drive {i}: check failed: {exc!r}", file=sys.stderr)
            self.correct = False
            return False
        return True


def _value(v: float, unit: str) -> dict:
    return {"value": v, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object the command prints."""
    work = RUNS / f"{workload}-{os.getpid()}"
    try:
        with open(os.devnull, "w") as sink:
            return _run(Bench(workloads.WORKLOADS[workload], seed, work), sink, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(bench: Bench, sink, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer()
    bench.attack(0, sink)  # warm-up: first-call costs stay out of the timings
    n = len(bench.drives)
    # A traced run alternates traced and untraced rounds, traced first, so any
    # first-round cost counts as tracing overhead, and ends on an untraced one.
    min_rounds = 2 if trace else math.ceil(MIN_TIMED_ATTACKS / n)
    attempted = failed = rounds = 0
    times: list[float] = []  # attacks whose output passed every check
    all_times: list[float] = []
    untraced_rounds: list[float] = []
    traced_rounds: list[dict[str, float]] = []
    t_start = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 0
        t_round = time.perf_counter()
        round_ms = 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            for i in range(n):
                tracer.true_q = len(bench.drives[i].truth)
                attempted += 1
                ok, ms, t_end = bench.attack(i, sink)
                all_times.append(ms)
                round_ms += ms
                if traced:
                    tracer.attack_done(ms, t_end)
                if ok and bench.verify(i):
                    times.append(ms)
                else:
                    failed += 1
        if traced:
            traced_rounds.append(tracer.round_metrics())
            tracer.reset()
        else:
            untraced_rounds.append(round_ms)
        rounds += 1
        now = time.perf_counter()
        if trace and rounds % 2:
            continue
        if rounds >= min_rounds and now - t_start + (now - t_round) > seconds:
            break
    print(
        f"backend={_kernels.backend()} drives={n} rounds={rounds} attempted={attempted} "
        f"failed={failed} setup_s={sum(bench.setup_s):.1f} rounds_s={now - t_start:.1f} "
        f"attack_s={sum(times) / 1e3:.1f}",
        file=sys.stderr,
    )
    if trace:
        out = {
            name: _value(statistics.median(r[name] for r in traced_rounds), tracing.unit(name))
            for name in traced_rounds[0]
        }
        untraced = statistics.median(untraced_rounds)
        out["attack.untraced_ms"] = _value(untraced, "ms")
        overhead = out["attack.traced_ms"]["value"] / untraced - 1.0
        out["trace.overhead_pct"] = _value(100.0 * overhead, "%")
    else:
        # when every attack failed, time them all so the failures still get reported
        times = times or all_times
        out = {
            "setup_s": _value(statistics.median(bench.setup_s), "s"),
            "attack_ms_p50": _value(statistics.median(times), "ms"),
            "attack_ms_p90": _value(statistics.quantiles(times, n=10)[8], "ms"),
            "drives_per_s": _value(len(times) / (sum(times) / 1e3), "1/s"),
            "peak_rss_mb": _value(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "routes_top1": _value(bench.top1, "count"),
            "truth_nodes_covered": _value(bench.covered, "count"),
        }
    return {"correct": bench.correct, "attempted": attempted, "failed": failed, "metrics": out}
