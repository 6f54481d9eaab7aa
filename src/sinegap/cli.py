"""Command-line front end for determinant evaluation, asymptotic
expansions, convergence scans, count PMFs, and counting statistics.

Jobs are reproducible: identical invocations produce byte-identical
output for a fixed BLAS thread count (a factorization's last digits can
change with the number of BLAS threads).  Floats print as Python's shortest
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
computation starts.  The CLI parses the flags and knows which ones each
command takes; every value is checked by the library function that will
use it, and its message is reported as "<flag>: <message>".

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
from .counting import _checked_counts, joint_pmf
from .errors import NumericalError, ValidationError
from .fredholm import (
    Discretization,
    IntervalPartition,
    WeightConfiguration,
    _checked_u,
    _matched_weights,
    fredholm_det,
    reduced_indices,
)
from .quadrature import _check_order, _check_r

__all__ = ["JobSpec", "build_parser", "main", "console_main"]

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
    for name, (_, _, text) in FLAGS.items():
        parser.add_argument(_flag(name), dest=name, help=text)
    parser.add_argument("--format", dest="fmt", default="csv", help="csv or json (default csv)")
    parser.add_argument("--out", help="output path (default stdout)")
    return parser


# ---------------------------------------------------------------------------
# validation: collect every problem, then refuse as a batch


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _r_range(text: str) -> tuple[float, float, int]:
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if not (lo < hi and count >= 2):
        raise ValueError
    return lo, hi, count


# every flag besides --format and --out, by its argparse name: its parser,
# the syntax an error names, and its --help text
FLAGS = {
    "x": (_floats, "comma-separated floats", "partition endpoints, comma-separated (x_0 < ... < x_m)"),
    "s": (_floats, "comma-separated floats", "interval weights s_1..s_m, comma-separated (fredholm only)"),
    "u": (_floats, "comma-separated floats", "exponential parameters, comma-separated; use --u=-1.1,... form"),
    "p": (int, "an integer", "index of the zero-weight interval (1-based)"),
    "r": (float, "a float", "single scale value"),
    "r_range": (_r_range, "lo:hi:count with lo < hi and count >= 2", "geometric scan lo:hi:count"),
    "n": (int, "an integer", "fredholm, converge, pmf: quadrature order per interval (default 64)"),
    "k": (int, "an integer", "pmf: max count kept, one integer for every interval"),
}


def validate_args(ns: argparse.Namespace) -> tuple[JobSpec | None, list[str]]:
    """Turn a raw namespace into a JobSpec, or a full list of problems."""
    errors: list[str] = []
    command = ns.command
    if command not in COMMANDS:
        errors.append(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
        return None, errors

    def check(flag, fn, *args):
        try:
            return fn(*args)
        except ValidationError as exc:
            errors.append(f"{flag}: {exc}")
            return None

    _, takes, needs = COMMANDS[command]
    takes = ("x", *takes)
    given = {name for name in FLAGS if getattr(ns, name) is not None}
    values = {}
    for name in sorted(given & set(takes)):
        parse, syntax, _ = FLAGS[name]
        try:
            values[name] = parse(getattr(ns, name))
        except ValueError:
            errors.append(f"{_flag(name)}: could not parse {getattr(ns, name)!r} as {syntax}")
    x, s, u, p, r, r_range, n, k = (values.get(name) for name in FLAGS)

    partition = None if x is None else check("--x", IntervalPartition, x)
    m = None if partition is None else partition.m
    if m == 1 and p is not None and "u" in takes and not given & {"s", "u"}:
        u = ()  # --p leaves m - 1 = 0 log-ratios, so --u may be left out
        given.add("u")

    if "x" not in given:
        errors.append("--x is required")
    for name in sorted(given - set(takes)):
        errors.append(f"{command}: takes no {_flag(name)}")
    for group in needs:
        present = [_flag(name) for name in group if name in given]
        if len(present) > 1:
            errors.append(f"{' and '.join(present)} are mutually exclusive")
        elif not present:
            one_of = "exactly one of " if len(group) > 1 else ""
            errors.append(f"{command}: {one_of}{' / '.join(map(_flag, group))} is required")
    if command == "fredholm" and {"s", "p"} <= given:
        errors.append("fredholm: --p zeroes a weight of --u; it takes no --s")
    if ns.fmt not in FORMATS:
        errors.append(f"--format: choose from {', '.join(FORMATS)}, got {ns.fmt!r}")

    if r is not None:
        check("--r", _check_r, r)
    if r_range is not None and check("--r-range", _check_r, r_range[0]) is not None:
        check("--r-range", _check_r, r_range[1])
    if n is not None:
        check("--n", _check_order, n)
    if m is not None:
        gap = None if p is None else check("--p", reduced_indices, m, p)
        if k is not None:
            check("--k", _checked_counts, k, m)
        if s is not None:
            check("--s", _matched_weights, partition, s)
        if u is not None and (p is None or gap is not None):
            # as the expansions do; fredholm and converge build weights too
            size = m if p is None else len(gap)
            if check("--u", _checked_u, u, size) is not None and command in ("fredholm", "converge"):
                check("--u", _weights, None, u, p, m)

    if errors:
        return None, errors
    return (
        JobSpec(command=command, x=x, s=s, u=u, p=p, r=r, r_range=r_range,
                n=64 if n is None else n, k=k, fmt=ns.fmt, out=ns.out),
        [],
    )


# ---------------------------------------------------------------------------
# handlers: each returns (header, rows); cells are float, int, str, or None


def _weights(s, u, p, m: int) -> WeightConfiguration:
    if s is not None:
        return WeightConfiguration(s)
    if p is not None:
        return WeightConfiguration.from_zero_u(u, p, m)
    return WeightConfiguration.from_positive_u(u)


def _run_fredholm(job: JobSpec, partition: IntervalPartition):
    weights = _weights(job.s, job.u, job.p, job.m)

    def one(r: float):
        res = fredholm_det(partition, weights, r, job.n)
        return [r, res.log_f, res.error_estimate]

    return ["r", "log_f", "error_estimate"], [one(r) for r in job.r_values()]


def _expansion(job: JobSpec, partition: IntervalPartition, r: float):
    if job.p is not None:
        return zero_weight_expansion(partition, job.p, job.u, r)
    return positive_weights_expansion(partition, job.u, r)


def _run_asym(job: JobSpec, partition: IntervalPartition):
    def one(r: float):
        b = _expansion(job, partition, r)
        return [r, b.r_squared_term, b.r_linear_term, b.log_r_term, b.constant_term, b.total]

    header = ["r", "r_squared_term", "r_linear_term", "log_r_term", "constant_term", "total"]
    return header, [one(r) for r in job.r_values()]


def _run_converge(job: JobSpec, partition: IntervalPartition):
    weights = _weights(job.s, job.u, job.p, job.m)

    def one(r: float):
        numeric = Discretization(partition, r, job.n).log_det(weights)  # fredholm_det's log_f, no n // 2 pass
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


# each command: its handler, the flags it takes besides --x, --format and
# --out (by their argparse names), and the groups of them it needs exactly
# one of.  It holds the handlers, never the library functions: a handler
# looks up the module globals it calls at run time, so a wrapper patched
# onto them (as bench/spans.py does) is the one called.
COMMANDS = {
    "fredholm": (_run_fredholm, ("s", "u", "p", "r", "r_range", "n"), (("s", "u"), ("r", "r_range"))),
    "asym1": (_run_asym, ("u", "r", "r_range"), (("u",), ("r", "r_range"))),
    "asym2": (_run_asym, ("u", "p", "r", "r_range"), (("u",), ("p",), ("r", "r_range"))),
    "converge": (_run_converge, ("u", "p", "r_range", "n"), (("u",), ("r_range",))),
    "pmf": (_run_pmf, ("r", "n", "k"), (("r",), ("k",))),
    "stats": (_run_stats, ("p", "r", "r_range"), (("r", "r_range"),)),
}


# ---------------------------------------------------------------------------
# emission: floats print as their shortest round-trip repr


def run(job: JobSpec) -> str:
    """Execute a validated job and return the formatted artifact."""
    partition = IntervalPartition(job.x)
    header, rows = COMMANDS[job.command][0](job, partition)
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
