"""lhamc benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload lha-sampled --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from
``src/`` and the answer oracles from ``tests/oracles.py``.  Set-up imports
lhamc and writes the seeded model files under ``.bench_out/``; it is repeated
after every pass (and at the end, to at least nine times) and ``setup_s`` is
the median.

A workload is a fixed list of distinct jobs.  The run repeats whole passes
over the list for about ``--seconds`` of wall time, one job at a time, with
``gc.collect()`` before each job outside the timed region; within a pass a
short job is repeated until it has run for ``SHORT_JOB_S``.  Every job is
verified (see ``workloads.py``); a job that raises, exits unexpectedly or
gives a wrong answer counts as failed, and the run goes on.

Every time reported is in reference seconds or milliseconds (see
``reference.py``): the wall time of the job or set-up measured against the
time a fixed computation, sampled before, after and every 50 ms inside it,
takes meanwhile, which cancels the host's changes of pace.  A job's time is
the median of its repeats, and the percentiles are over the distinct jobs, so
every run weighs the same mix.  Wall times are kept in
``.bench_out/<workload>.result.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and traced in alternating order, requires both outputs to be
equal byte for byte, and prints the per-layer metrics: busy time (seconds)
and counts per traced job, ratios over the whole pass, and the tracing
overhead.  Spans are kept in memory and written to
``.bench_out/<workload>.spans.tsv`` at the end.  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
ANSWERS = Path(__file__).resolve().parent / "answers.json"
SETUP_REPEATS = 9
SHORT_JOB_S = 0.05  # wall seconds a job runs for, at least, in each pass
MAX_REPEATS = 10  # runs of one job in one pass, at most


def import_lhamc() -> SimpleNamespace:
    """Import the program afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "lhamc" or m.startswith("lhamc.")]:
        del sys.modules[name]
    names = ("cli", "explore", "lha", "reservoir", "syncprod", "ltl")
    return SimpleNamespace(**{n: importlib.import_module(f"lhamc.{n}") for n in names})


def set_up(name: str, seed: int, small: bool = False) -> tuple[SimpleNamespace, list[workloads.Job]]:
    """Import lhamc, generate and write the models (the timed set-up)."""
    model_dir = OUT / "models" / name
    model_dir.mkdir(parents=True, exist_ok=True)
    lib = import_lhamc()
    return lib, workloads.WORKLOADS[name](lib, seed, model_dir, small)


def bind_oracles(lib: SimpleNamespace) -> SimpleNamespace:
    """Import the answer oracles against this import of lhamc."""
    sys.modules.pop("oracles", None)
    lib.oracles = importlib.import_module("oracles")
    return lib


def load_answers(name: str, seed: int) -> dict:
    if seed != workloads.DEFAULT_SEED or not ANSWERS.is_file():
        return {}
    return json.loads(ANSWERS.read_text(encoding="utf-8")).get(name, {})


class Runner:
    def __init__(self, lib: SimpleNamespace, answers: dict, tracer: spans.Tracer | None):
        self.lib = lib
        self.answers = answers
        self.tracer = tracer
        self.pace = reference.Pace()
        # (wall, reference) seconds of every untraced and traced run, by job key
        self.plain: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.traced: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.states: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.violations = 0
        self.lasso_len = 0
        self.replay_s = 0.0  # reference seconds
        self.outputs: dict[str, dict] = {}  # job key -> answer record

    def run(
        self,
        jobs: list[workloads.Job],
        seconds: float,
        between: Callable[[], Any] = lambda: None,
        short_job_s: float = SHORT_JOB_S,
    ) -> None:
        """Whole passes while the next one is expected to end near ``seconds``
        of wall time.  ``between`` runs after every pass but the last; pass
        ``short_job_s=0`` to run every job once per pass."""
        start = perf_counter()
        while True:
            began = perf_counter()
            for job in jobs:
                spent, runs = 0.0, 0
                while runs == 0 or (spent < short_job_s and runs < MAX_REPEATS):
                    spent += self.run_job(job)
                    runs += 1
            self.passes += 1
            now = perf_counter()
            if now - start + (now - began) / 2 > seconds:
                return
            between()

    def timed(self, job: workloads.Job) -> tuple[workloads.Output, Any, float]:
        gc.collect()
        (output, evidence), wall, ref = self.pace.timed(job.run)
        self.plain[job.key].append((wall, ref))
        return output, evidence, wall

    def timed_traced(self, job: workloads.Job) -> tuple[workloads.Output, float]:
        gc.collect()
        with self.tracer.job_scope(job.key, self.lib):
            (output, _), wall, ref = self.pace.timed(lambda: self.tracer.call(job.root, job.run))
        self.tracer.scale[-1] = ref / wall
        self.traced[job.key].append((wall, ref))
        return output, wall

    def run_job(self, job: workloads.Job) -> float:
        """Run, verify and record one job; return the wall seconds it kept
        busy."""
        self.attempted += 1
        problems: list[str] = []
        try:
            if self.tracer is None:
                output, evidence, elapsed = self.timed(job)
                spent = elapsed
            else:
                # Alternate which pass runs first, so that neither one is
                # always the first to touch memory the other has freed.
                traced_first = self.attempted % 2 == 0
                if traced_first:
                    traced, traced_s = self.timed_traced(job)
                output, evidence, elapsed = self.timed(job)
                if not traced_first:
                    traced, traced_s = self.timed_traced(job)
                spent = elapsed + traced_s
                if traced != output:
                    problems.append("traced output differs from untraced output")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # reference models reloaded for checking
                check = job.verify(output, evidence)
            del evidence
        except Exception:  # a crashing job is a failed job; keep measuring
            traceback.print_exc()
            self.failed += 1
            print(f"FAIL {job.key}: raised", file=sys.stderr)
            return SHORT_JOB_S
        problems += check.problems
        record = {"exit": output.exit, "sha256": output.digest(), "states": check.states}
        expected = self.answers.get(job.key)
        if self.answers and expected != record:
            problems.append(f"answer file expects {expected}, got {record}")
        self.outputs[job.key] = record
        self.states[job.key] = check.states
        self.violations += check.violated
        self.lasso_len += check.lasso_len
        self.replay_s += check.replay_s * reference.REFERENCE_S / self.pace.last
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {job.key}: {problem}", file=sys.stderr)
        return spent

    def typical(self, runs: dict[str, list[tuple[float, float]]], wall: bool = False) -> dict[str, float]:
        """Each job's median time over its repeats, in reference seconds or,
        with ``wall``, in wall seconds."""
        return {
            key: statistics.median(run[0] if wall else run[1] for run in value)
            for key, value in runs.items()
            if key in self.states
        }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    best = runner.typical(runner.plain)
    times = list(best.values())
    return {
        "job_p50_ms": (1000 * statistics.median(times), "ms"),
        "job_p90_ms": (1000 * percentile(times, 90), "ms"),
        "states_per_s": (sum(runner.states[k] for k in best) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_share": ((runner.attempted - runner.failed) / runner.attempted, "share"),
    }


def per_layer(runner: Runner, tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    total, own, calls = tracer.totals()
    c = tracer.counts
    jobs = len(tracer.jobs) or 1

    def per_job(value: float) -> float:
        return value / jobs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plain, traced = runner.typical(runner.plain), runner.typical(runner.traced)
    overhead = [traced[k] - plain[k] for k in traced]
    return {
        "lha.succ_s": (per_job(total["lha.succ"]), "s"),
        "lha.succ_calls": (per_job(calls["lha.succ"]), "count"),
        "lha.serialize_s": (per_job(total["lha.serialize"]), "s"),
        "explore.search_s": (per_job(total["explore.search"]), "s"),
        "explore.search_self_s": (per_job(own["explore.search"]), "s"),
        "explore.solutions": (per_job(c["explore.solutions"]), "count"),
        "explore.path_steps": (per_job(c["explore.path_steps"]), "count"),
        "cli.load_s": (per_job(total["cli.load"]), "s"),
        "cli.self_s": (per_job(own["cli"]), "s"),
        "reservoir.succ_s": (per_job(total["reservoir.succ"]), "s"),
        "reservoir.serialize_s": (per_job(total["reservoir.serialize"]), "s"),
        "reservoir.label_s": (per_job(total["reservoir.label"]), "s"),
        "explore.kripke_s": (per_job(total["explore.kripke"]), "s"),
        "explore.kripke_self_s": (per_job(own["explore.kripke"]), "s"),
        "explore.states": (per_job(c["explore.states"]), "count"),
        "explore.edges": (per_job(c["explore.edges"]), "count"),
        "explore.dedup_ratio": (ratio(c["explore.known_targets"], c["explore.successor_edges"]), "ratio"),
        "ltl.formula.parse_s": (per_job(total["ltl.formula.parse"]), "s"),
        "ltl.buchi_s": (per_job(total["ltl.buchi"]), "s"),
        "ltl.buchi_states": (per_job(c["ltl.buchi_states"]), "count"),
        "ltl.buchi_transitions": (per_job(c["ltl.buchi_transitions"]), "count"),
        "ltl.checker_s": (per_job(total["ltl.checker"]), "s"),
        "ltl.replay_s": (per_job(runner.replay_s), "s"),
        "ltl.lasso_len": (per_job(runner.lasso_len), "count"),
        "ltl.violations": (per_job(runner.violations), "count"),
        "syncprod.product_s": (per_job(total["syncprod.product"]), "s"),
        "syncprod.product_states": (per_job(c["syncprod.product_states"]), "count"),
        "syncprod.product_rules": (per_job(c["syncprod.product_rules"]), "count"),
        "syncprod.kripke_s": (per_job(total["syncprod.kripke"]), "s"),
        "syncprod.succ_s": (per_job(total["syncprod.succ"]), "s"),
        "syncprod.reachable_ratio": (ratio(c["syncprod.reachable"], c["syncprod.materialized"]), "ratio"),
        "trace.overhead_ms": (1000 * statistics.fmean(overhead) if overhead else 0.0, "ms"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def find_program() -> str | None:
    """Put the checkout's src/ and tests/ on the path; say what is missing."""
    for needed in ("src/lhamc/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: run from a checkout of the repository"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = find_program()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(SimpleNamespace(), load_answers(args.workload, args.seed), tracer)
    # Set-up is repeated between passes, so that its median, like the job
    # times, samples the whole run rather than its first second.
    setups: list[float] = []  # reference seconds

    def timed_set_up() -> tuple[SimpleNamespace, list[workloads.Job]]:
        (lib, jobs), _, ref = runner.pace.timed(lambda: set_up(args.workload, args.seed))
        setups.append(ref)
        return bind_oracles(lib), jobs

    runner.lib, jobs = timed_set_up()
    runner.run(jobs, args.seconds, timed_set_up)
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    setup_s = statistics.median(setups)
    if not runner.states:
        print("error: no job completed", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = end_to_end(runner, setup_s)
    else:
        metrics = per_layer(runner, tracer)
        tracer.write(str(OUT / f"{args.workload}.spans.tsv"))
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": runner.passes,
        "job_wall_seconds": {key: [run[0] for run in runs] for key, runs in runner.plain.items()},
        "job_reference_seconds": {key: [run[1] for run in runs] for key, runs in runner.plain.items()},
    }
    (OUT / f"{args.workload}.result.json").write_text(
        json.dumps({"env": env, "answers": runner.outputs, "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8",
    )
    wall = runner.typical(runner.plain, wall=True)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} distinct jobs x {runner.passes} passes,"
          f" {runner.attempted} runs, {runner.failed} failed; python {env['python']}, nproc {env['nproc']};"
          f" wall job p50 {1000 * statistics.median(wall.values()):.1f} ms")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
