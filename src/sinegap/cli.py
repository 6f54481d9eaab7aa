"""Command-line front end for determinant evaluation, asymptotic
expansions, convergence scans, count PMFs, and counting statistics.

Jobs are reproducible: identical invocations produce byte-identical
output for a fixed BLAS thread count (the LU's last digits can change
with the number of BLAS threads).  Floats print as Python's shortest
repr, which round-trips exactly and always carries a '.' or an exponent
(5.0, 0.7, 1e-05), so a float cell never reads as an integer.  Output
goes to stdout or --out, as CSV (`csv` module: header row, one row per
line, empty cell for a missing value) or as JSON on a single line: one
object {"jobspec": ..., "rows": [...]}, the jobspec being the job's
fields (`format` for the output format, `r_range` as {"lo", "hi",
"count"} or null) and each row an object keyed by the CSV header, with
null for a missing value.  A non-finite value anywhere in the rows is a
numerical failure (exit 3), and nothing is written.

Exit codes: 0 success, 2 input validation, 3 numerical failure,
4 I/O failure.  All validation problems are reported before any
computation starts.

Note: option values starting with a minus sign must use the '=' form,
e.g. --u=-1.1,-2.4.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import (
    conditional_stats,
    counting_stats,
    positive_weights_expansion,
    zero_weight_expansion,
)
from .counting import joint_pmf
from .errors import NumericalError, ValidationError
from .fredholm import IntervalPartition, WeightConfiguration, fredholm_det

__all__ = ["JobSpec", "build_parser", "main", "console_main"]

COMMANDS = ("fredholm", "asym1", "asym2", "converge", "pmf", "stats")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class JobSpec:
    """A fully validated batch job."""

    command: str
    x: tuple[float, ...]
    s: tuple[float, ...] | None = None
    u: tuple[float, ...] | None = None
    p: int | None = None
    r: float | None = None
    r_range: tuple[float, float, int] | None = None
    n: int = 64
    k: int | None = None
    fmt: str = "csv"
    out: str | None = None

    @property
    def m(self) -> int:
        return len(self.x) - 1

    def r_values(self) -> tuple[float, ...]:
        if self.r is not None:
            return (self.r,)
        lo, hi, count = self.r_range
        return tuple(float(v) for v in np.geomspace(lo, hi, count))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinegap",
        description="Sine-process gap determinants, asymptotics, and counting statistics.",
    )
    parser.add_argument("command", help="one of: " + ", ".join(COMMANDS))
    parser.add_argument("--x", help="partition endpoints, comma-separated (x_0 < ... < x_m)")
    parser.add_argument("--s", help="interval weights s_1..s_m, comma-separated (fredholm only)")
    parser.add_argument("--u", help="exponential parameters, comma-separated; use --u=-1.1,... form")
    parser.add_argument("--p", help="index of the zero-weight interval (1-based)")
    parser.add_argument("--r", help="single scale value")
    parser.add_argument("--r-range", dest="r_range", help="geometric scan lo:hi:count")
    parser.add_argument("--n", default="64", help="quadrature order per interval (default 64)")
    parser.add_argument("--k", help="pmf: max count kept, one integer for every interval")
    parser.add_argument("--format", dest="fmt", default="csv", help="csv or json (default csv)")
    parser.add_argument("--out", help="output path (default stdout)")
    return parser


# ---------------------------------------------------------------------------
# validation: collect every problem, then refuse as a batch


def _parse_floats(text: str, flag: str, errors: list[str]) -> tuple[float, ...] | None:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        errors.append(f"{flag}: could not parse {text!r} as comma-separated floats")
        return None
    if not all(math.isfinite(v) for v in values):
        errors.append(f"{flag}: values must be finite, got {text!r}")
        return None
    return values


def _parse_int(text: str, flag: str, errors: list[str]) -> int | None:
    try:
        return int(text)
    except ValueError:
        errors.append(f"{flag}: could not parse {text!r} as an integer")
        return None


def _parse_r_range(text: str, errors: list[str]) -> tuple[float, float, int] | None:
    parts = text.split(":")
    if len(parts) != 3:
        errors.append(f"--r-range: expected lo:hi:count, got {text!r}")
        return None
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        errors.append(f"--r-range: could not parse {text!r} as lo:hi:count")
        return None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        errors.append(f"--r-range: need finite 0 < lo < hi, got {text!r}")
        return None
    if count < 2:
        errors.append(f"--r-range: count must be >= 2, got {count}")
        return None
    return lo, hi, count


def validate_args(ns: argparse.Namespace) -> tuple[JobSpec | None, list[str]]:
    """Turn a raw namespace into a JobSpec, or a full list of problems."""
    errors: list[str] = []
    command = ns.command
    if command not in COMMANDS:
        errors.append(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
        return None, errors

    x = None
    if ns.x is None:
        errors.append("--x is required")
    else:
        x = _parse_floats(ns.x, "--x", errors)
    if x is not None:
        if len(x) < 2:
            errors.append("--x: need at least two endpoints")
            x = None
        elif not all(a < b for a, b in zip(x, x[1:])):
            errors.append("--x: endpoints must be strictly increasing")
            x = None
    m = None if x is None else len(x) - 1

    s = _parse_floats(ns.s, "--s", errors) if ns.s is not None else None
    u = _parse_floats(ns.u, "--u", errors) if ns.u is not None else None
    p = _parse_int(ns.p, "--p", errors) if ns.p is not None else None
    if ns.u is None and ns.s is None and p is not None and m == 1 and command in ("fredholm", "asym2", "converge"):
        u = ()  # --p leaves m - 1 = 0 log-ratios, so --u may be left out
    u_missing = ns.u is None and u is None
    k = _parse_int(ns.k, "--k", errors) if ns.k is not None else None
    r = None
    if ns.r is not None:
        vals = _parse_floats(ns.r, "--r", errors)
        if vals is not None and len(vals) == 1 and vals[0] > 0.0:
            r = vals[0]
        elif vals is not None:
            errors.append(f"--r: expected a single positive value, got {ns.r!r}")
    r_range = _parse_r_range(ns.r_range, errors) if ns.r_range is not None else None

    n = _parse_int(ns.n, "--n", errors)
    if n is not None and not 8 <= n <= 2048:
        errors.append(f"--n: order must lie in [8, 2048], got {n}")
        n = None
    if ns.fmt not in FORMATS:
        errors.append(f"--format: choose from {', '.join(FORMATS)}, got {ns.fmt!r}")

    if ns.s is not None and ns.u is not None:
        errors.append("--s and --u are mutually exclusive")

    needs_r = {"fredholm": "either", "asym1": "either", "asym2": "either",
               "converge": "range", "pmf": "single", "stats": "either"}[command]
    if needs_r == "either" and (ns.r is None) == (ns.r_range is None):
        errors.append(f"{command}: exactly one of --r / --r-range is required")
    elif needs_r == "range":
        if ns.r_range is None:
            errors.append("converge: --r-range is required")
        if ns.r is not None:
            errors.append("converge: takes --r-range, not --r")
    elif needs_r == "single":
        if ns.r is None:
            errors.append("pmf: --r is required")
        if ns.r_range is not None:
            errors.append("pmf: takes --r, not --r-range")

    if command == "fredholm":
        if (ns.s is None) == u_missing:
            errors.append("fredholm: exactly one of --s / --u is required")
        if ns.s is not None and ns.p is not None:
            errors.append("fredholm: --p zeroes a weight of --u; it takes no --s")
    elif command in ("asym1", "asym2", "converge"):
        if ns.s is not None:
            errors.append(f"{command}: parameterized by --u, not --s")
        if u_missing:
            errors.append(f"{command}: --u is required")
    else:
        if ns.s is not None or ns.u is not None:
            errors.append(f"{command}: takes neither --s nor --u")

    if command == "asym1" and ns.p is not None:
        errors.append("asym1: takes no --p (all weights positive)")
    if command == "asym2" and ns.p is None:
        errors.append("asym2: --p is required")
    if command == "pmf":
        if ns.p is not None:
            errors.append("pmf: takes no --p")
        if k is None and ns.k is None:
            errors.append("pmf: --k is required")
        elif k is not None and k < 0:
            errors.append(f"--k: must be >= 0, got {k}")
        if m is not None and m > 3:
            errors.append(f"pmf: supports at most 3 intervals, got m = {m}")
    elif ns.k is not None:
        errors.append(f"{command}: takes no --k")

    if p is not None and m is not None and not 1 <= p <= m:
        errors.append(f"--p: must lie in [1, {m}], got {p}")
    if m is not None:
        if s is not None and len(s) != m:
            errors.append(f"--s: expected {m} weights for {m} intervals, got {len(s)}")
        if s is not None and any(v < 0.0 for v in s):
            errors.append("--s: weights must be >= 0")
        if u is not None:
            want = m - 1 if (p is not None and command in ("fredholm", "asym2", "converge")) else m
            if len(u) != want:
                errors.append(f"--u: expected {want} values here, got {len(u)}")

    if errors:
        return None, errors
    return (
        JobSpec(command=command, x=x, s=s, u=u, p=p, r=r, r_range=r_range,
                n=n, k=k, fmt=ns.fmt, out=ns.out),
        [],
    )


# ---------------------------------------------------------------------------
# handlers: each returns (header, rows); cells are float, int, str, or None


def _weights(job: JobSpec) -> WeightConfiguration:
    if job.s is not None:
        return WeightConfiguration(job.s)
    if job.p is not None:
        return WeightConfiguration.from_zero_u(job.u, job.p, job.m)
    return WeightConfiguration.from_positive_u(job.u)


def _run_fredholm(job: JobSpec, partition: IntervalPartition):
    weights = _weights(job)

    def one(r: float):
        res = fredholm_det(partition, weights, r, job.n)
        return [r, res.log_f.real, res.error_estimate]

    return ["r", "log_f", "error_estimate"], [one(r) for r in job.r_values()]


def _expansion(job: JobSpec, partition: IntervalPartition, r: float):
    if job.command == "asym2" or (job.command == "converge" and job.p is not None):
        return zero_weight_expansion(partition, job.p, job.u, r)
    return positive_weights_expansion(partition, job.u, r)


def _run_asym(job: JobSpec, partition: IntervalPartition):
    def one(r: float):
        b = _expansion(job, partition, r)
        return [r, b.r_squared_term, b.r_linear_term, b.log_r_term, b.constant_term, b.total]

    header = ["r", "r_squared_term", "r_linear_term", "log_r_term", "constant_term", "total"]
    return header, [one(r) for r in job.r_values()]


def _run_converge(job: JobSpec, partition: IntervalPartition):
    weights = _weights(job)

    def one(r: float):
        numeric = fredholm_det(partition, weights, r, job.n).log_f.real
        asym = _expansion(job, partition, r).total
        return [r, numeric, asym, r * (numeric - asym)]

    return ["r", "log_f_numeric", "log_f_asym", "delta"], [one(r) for r in job.r_values()]


def _run_pmf(job: JobSpec, partition: IntervalPartition):
    pmf = joint_pmf(partition, job.r, job.k, n_quad=job.n)
    m = partition.m
    rows = [list(idx) + [float(pmf.table[idx])] for idx in np.ndindex(pmf.table.shape)]
    rows.append([None] * m + [pmf.residual_mass])  # mass outside the table
    return [f"k_{j}" for j in range(1, m + 1)] + ["probability"], rows


def _run_stats(job: JobSpec, partition: IntervalPartition):
    hat = job.p is not None
    names = ("mu_hat", "sigma2_hat", "cross_hat") if hat else ("mu", "sigma2", "cross")

    def one(r: float):
        triple = conditional_stats(partition, job.p, r) if hat else counting_stats(partition, r)
        labels = triple.labels
        rows = [[r, names[0], labels[i], None, float(triple.mu[i])] for i in range(len(labels))]
        rows += [[r, names[1], labels[i], None, float(triple.sigma2[i])] for i in range(len(labels))]
        for i in range(len(labels)):
            for jdx in range(i + 1, len(labels)):
                rows.append([r, names[2], labels[i], labels[jdx], float(triple.cross[i, jdx])])
        return rows

    return ["r", "stat", "j", "k", "value"], [row for r in job.r_values() for row in one(r)]


_HANDLERS = {
    "fredholm": _run_fredholm,
    "asym1": _run_asym,
    "asym2": _run_asym,
    "converge": _run_converge,
    "pmf": _run_pmf,
    "stats": _run_stats,
}


# ---------------------------------------------------------------------------
# emission: floats print as their shortest round-trip repr


def run(job: JobSpec) -> str:
    """Execute a validated job and return the formatted artifact."""
    partition = IntervalPartition(job.x)
    header, rows = _HANDLERS[job.command](job, partition)
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalError(f"non-finite value {v!r} in output")
    if job.fmt == "json":
        spec = {("format" if key == "fmt" else key): v for key, v in asdict(job).items()}
        if job.r_range is not None:
            spec["r_range"] = dict(zip(("lo", "hi", "count"), job.r_range))
        return json.dumps({"jobspec": spec, "rows": [dict(zip(header, row)) for row in rows]}) + "\n"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return int(exc.code or 0)

    job, errors = validate_args(ns)
    if errors:
        for msg in errors:
            print(f"error: {msg}", file=sys.stderr)
        return 2

    try:
        text = run(job)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4

    try:
        if job.out is None:
            sys.stdout.write(text)
        else:
            with open(job.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
