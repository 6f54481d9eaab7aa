"""Write bench/reference.json, the frozen outputs of the default seed.

    python3 bench/make_reference.py

Runs every job of every workload once for workloads.DEFAULT_SEED, with
BLAS pinned as in run.py, checks the seed-independent invariants, and
stores every row of short tables and every stride-th row of long ones.
Regenerate only when the workloads change; a program change that moves
a frozen value beyond its tolerance is a failure, not a new reference.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH, SRC, THREAD_PINS


def main() -> int:
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import sinegap
    import sinegap.cli
    import sinegap.counting

    import gate
    from workloads import DEFAULT_SEED, WORKLOADS, make_jobs, run_job

    out = {"seed": DEFAULT_SEED, "jobs": {}}
    for workload in WORKLOADS:
        out["jobs"][workload] = {}
        for job in make_jobs(workload, DEFAULT_SEED):
            outcome = run_job(job, sinegap)
            problems = gate.check(job, outcome)
            if problems:
                print(f"{job.label}: {problems[:3]}", file=sys.stderr)
                return 1
            out["jobs"][workload][job.label] = gate.freeze(job, outcome)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
