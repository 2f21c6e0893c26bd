"""Pipeline benchmark: time ``canmatch attack`` drive by drive on seeded workloads.

    python3 pipebench/run.py --workload town_clean --seed 1 --seconds 15 --trace 0

Set-up generates the workload's maps, true routes and CAN logs from the
seed and writes them under pipebench/_runs/ (removed on exit). After one
warm-up attack, the run attacks every drive of the pool once per round,
in-process through ``canmatch.cli.main``, until --seconds have passed.
Every output is checked against the generated truth outside the timed
region. The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-module figures, which come from
wrappers around the program's module functions in traced rounds that
alternate with untraced ones. Exits 1 without a result when the program's
sources are missing from src/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_program() -> None:
    """Make the checkout's src/canmatch importable, and only that copy."""
    if not (SRC / "canmatch" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'canmatch'}")
    sys.path.insert(0, str(SRC))
    import canmatch

    if Path(canmatch.__file__).resolve().parent != SRC / "canmatch":
        sys.exit(f"error: imported canmatch from {canmatch.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print(f"workload={args.workload} seed={args.seed}", file=sys.stderr)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
