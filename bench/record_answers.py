"""Write bench/answers.json: exit code, output digest and state count of every
job of every workload at the default seed, after each job has passed its
oracle checks.

    python3 bench/record_answers.py

Run it only when a change to the benchmark alters its jobs; the program's
output must never change, so a later mismatch is a failure of the program.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    missing = run.find_program()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    answers = {}
    for name in sorted(workloads.WORKLOADS):
        lib, jobs = run.set_up(name, workloads.DEFAULT_SEED)
        runner = run.Runner(run.bind_oracles(lib), {}, None)
        runner.run(jobs, 0, short_job_s=0)
        if runner.failed:
            print(f"error: {name}: {runner.failed} jobs failed their checks", file=sys.stderr)
            return 1
        answers[name] = runner.outputs
    run.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
