"""Quick self-test of the benchmark: every job once, at the smallest size.

    python3 bench/selftest.py

Each job runs untraced and traced; both outputs must be equal byte for byte
and the answer must pass the same checks as in a full run.  Exits 0 when every
job passes.
"""

from __future__ import annotations

import sys

import run
import spans
import workloads


def main() -> int:
    missing = run.find_program()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    failed = 0
    for name in sorted(workloads.WORKLOADS):
        lib, jobs = run.set_up(name, workloads.DEFAULT_SEED, small=True)
        runner = run.Runner(run.bind_oracles(lib), {}, spans.Tracer())
        runner.run(jobs, 0, short_job_s=0)
        print(f"{'PASS' if runner.failed == 0 else 'FAIL'} {name}: {runner.attempted} jobs, {runner.failed} failed")
        failed += runner.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
