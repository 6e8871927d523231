"""Collect one point of the benchmark trajectory into a ``BENCH_<n>.json``.

``bench/run.py`` keeps each run's result in ``.bench_out/<workload>.result.json``.
This script copies the seed-1 results of all three workloads, unchanged,
into one file keyed by workload name::

    for w in lha-sampled nres-check product-ladder; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done
    python3 scripts/bench_trajectory.py BENCH_11.json

It refuses a result that is missing or is not a seed-1 run of its workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lha-sampled", "nres-check", "product-ladder")


def collect(results: Path) -> dict:
    """The seed-1 result of every workload in ``results``, by workload."""
    point = {}
    for workload in WORKLOADS:
        path = results / f"{workload}.result.json"
        if not path.is_file():
            raise ValueError(f"{path} is missing; run bench/run.py --workload {workload} --seed 1")
        result = json.loads(path.read_text(encoding="utf-8"))
        env = result["env"]
        if (env["workload"], env["seed"]) != (workload, 1):
            raise ValueError(f"{path} is a seed-{env['seed']} run of {env['workload']}, not seed 1")
        point[workload] = result
    return point


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/bench_trajectory.py BENCH_<n>.json", file=sys.stderr)
        return 2
    try:
        point = collect(ROOT / ".bench_out")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
