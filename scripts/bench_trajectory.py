"""Record one point of the benchmark trajectory as a ``BENCH_<n>.json``.

For each workload this runs ``bench/run.py`` at seed 1 for the benchmark's
``run_seconds``, first with ``--trace 0`` (the end-to-end metrics) and then
with ``--trace 1`` (the per-layer metrics), one process at a time.  Each run
writes ``.bench_out/<workload>.result.json``; the script copies it to
``.bench_out/trajectory/<workload>.trace<t>.json`` before the next run
overwrites it, then joins the copies into one file keyed by workload name::

    python3 scripts/bench_trajectory.py BENCH_12.json

A workload's entry holds the untraced run's ``env`` and ``metrics`` and, under
``traced``, the traced run's; each ``env`` leaves out the per-run lists
``job_wall_seconds`` and ``job_reference_seconds``.  The script refuses a run
that fails a job and a copy that is missing or is not the seed-1 run of its
workload and trace setting.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_out"
COPIES = RESULTS / "trajectory"
WORKLOADS = ("lha-sampled", "nres-check", "product-ladder")
PER_RUN = ("job_wall_seconds", "job_reference_seconds")


def run(workload: str, trace: int, seconds: float) -> None:
    """One seed-1 run of ``workload``, its result copied into ``COPIES``."""
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    summary = json.loads(done.stdout.splitlines()[-1])
    if not summary["correct"]:
        raise ValueError(f"{workload} at --trace {trace}: {summary['failed']} of {summary['attempted']} runs failed")
    COPIES.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(RESULTS / f"{workload}.result.json", COPIES / f"{workload}.trace{trace}.json")


def _run_of(copies: Path, workload: str, trace: int) -> dict:
    """The copied seed-1 result of ``workload`` at ``trace``, its env
    without the per-run lists."""
    path = copies / f"{workload}.trace{trace}.json"
    if not path.is_file():
        raise ValueError(f"{path} is missing; run bench/run.py --workload {workload} --seed 1 --trace {trace}")
    result = json.loads(path.read_text(encoding="utf-8"))
    env = {key: value for key, value in result["env"].items() if key not in PER_RUN}
    if (env["workload"], env["seed"], env["trace"]) != (workload, 1, trace):
        raise ValueError(f"{path} is a seed-{env['seed']} --trace {env['trace']} run of {env['workload']}")
    return {"env": env, "metrics": result["metrics"]}


def collect(copies: Path) -> dict:
    """Both runs of every workload in ``copies``, by workload."""
    point = {}
    for workload in WORKLOADS:
        point[workload] = {**_run_of(copies, workload, 0), "traced": _run_of(copies, workload, 1)}
    return point


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/bench_trajectory.py BENCH_<n>.json", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                run(workload, trace, seconds)
        point = collect(COPIES)
    except (ValueError, subprocess.CalledProcessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
