"""Seeded job lists for the two workloads, and the code that runs a job.

The seed only generates inputs; the program sees nothing but the
generated CLI arguments or API arguments.  Draws use `random.Random`
seeded with "<workload>:<seed>", so one seed gives the same inputs on
every machine and Python version.
"""

from __future__ import annotations

import io
import json
import math
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("figure_scans", "count_inversion")
DEFAULT_SEED = 0

# The four paper-figure configurations (tests/test_acceptance.py, ALL_FIGURES):
# name -> (endpoints, u, p).  p is None for all-positive weights.
FIGURES = {
    "fig1-left": ((0.0, 0.7, 1.2), (-1.1, -2.4), None),
    "fig1-right": ((0.0, 0.5, 1.1, 1.7), (-0.8, -1.8, -1.32), None),
    "fig2-left": ((0.0, 0.5, 1.1, 1.7), (0.8, -1.32), 2),
    "fig2-right": ((0.0, 0.5, 1.1, 1.7, 2.5), (0.8, 1.8, -1.87), 3),
}

PMF_X = (0.0, 0.5, 1.1, 1.7)
PMF_K = 2
CUMULANT_X = (0.0, 0.5, 1.1, 1.7, 2.5)
SCAN_POINTS = 8


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI invocation, or a direct
    `numerical_cumulants` call when `command` is "cumulants"."""

    label: str
    command: str
    x: tuple[float, ...]
    u: tuple[float, ...] | None = None
    p: int | None = None
    r: float | None = None
    r_range: tuple[float, float, int] | None = None
    n: int = 64
    k: int | None = None
    fmt: str = "csv"

    @property
    def argv(self) -> tuple[str, ...]:
        """The CLI arguments; for "cumulants", the same spelling of the
        API arguments, which keys the job in the frozen table."""
        args = [self.command, "--x", _csv(self.x)]
        if self.u is not None:
            args.append("--u=" + _csv(self.u))
        if self.p is not None:
            args += ["--p", str(self.p)]
        if self.r is not None:
            args += ["--r", repr(self.r)]
        if self.r_range is not None:
            lo, hi, count = self.r_range
            args += ["--r-range", f"{lo!r}:{hi!r}:{count}"]
        if self.command in ("converge", "pmf"):
            args += ["--n", str(self.n)]
        if self.k is not None:
            args += ["--k", str(self.k)]
        if self.command != "cumulants":
            args += ["--format", self.fmt]
        return tuple(args)


@dataclass
class Outcome:
    """What one job produced: CLI exit code and text, or the API result."""

    exit_code: int
    text: str = ""
    value: object = None
    error: str = ""
    seconds: float = 0.0


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _r_range(rng: random.Random, lo: float, hi: float, min_ratio: float, count: int):
    while True:
        a, b = sorted(_log_uniform(rng, lo, hi) for _ in range(2))
        if b >= min_ratio * a:
            return (a, b, count)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one pass of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figure_scans":
        jobs = []
        for name, (x, u, p) in FIGURES.items():
            for n, fmt in ((64, "csv"), (128, "json")):
                jobs.append(Job(f"converge {name} n{n}", "converge", x, u=u, p=p, n=n,
                                r_range=_r_range(rng, 5.0, 40.0, 1.5, SCAN_POINTS), fmt=fmt))
        return jobs
    if workload == "count_inversion":
        return [
            Job("pmf m3 k2", "pmf", PMF_X, r=rng.uniform(0.5, 1.5), k=PMF_K),
            Job("cumulants m4", "cumulants", CUMULANT_X, r=rng.uniform(10.0, 30.0)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def run_job(job: Job, sinegap) -> Outcome:
    """Run one job through the public entry points, looked up on their
    modules at call time so that the tracer's wrappers are used."""
    try:
        if job.command == "cumulants":
            value = sinegap.counting.numerical_cumulants(job.x, job.r)
            return Outcome(0, value=value)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sinegap.cli.main(list(job.argv))
        return Outcome(code, text=out.getvalue(), error=err.getvalue())
    except Exception:  # a crash is one failed job; the run goes on
        return Outcome(-1, error=traceback.format_exc())


def table(job: Job, outcome: Outcome) -> tuple[list[str], list[list]]:
    """(header, rows) of a successful outcome; CLI text is parsed back,
    CSV empty cells and JSON nulls both becoming None."""
    if job.command == "cumulants":
        t = outcome.value
        m = len(t.mu)
        rows = [["mu", j + 1, None, float(t.mu[j])] for j in range(m)]
        rows += [["sigma2", j + 1, None, float(t.sigma2[j])] for j in range(m)]
        rows += [["cross", j + 1, k + 1, float(t.cross[j, k])] for j in range(m) for k in range(j + 1, m)]
        return ["stat", "j", "k", "value"], rows
    if job.fmt == "json":
        doc = json.loads(outcome.text)
        rows = doc["rows"]
        header = list(rows[0]) if rows else []
        return header, [[_number(row[h]) for h in header] for row in rows]
    lines = outcome.text.splitlines()
    header = lines[0].split(",")
    return header, [[_cell(c) for c in line.split(",")] for line in lines[1:]]


def _number(v):
    # JSON prints 0.0 as 0; read every number back as a float, as CSV does.
    return float(v) if isinstance(v, int) else v


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text
