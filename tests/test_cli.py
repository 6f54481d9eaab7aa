"""CLI: argument validation, output formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinegap
import sinegap.cli as cli
from sinegap import (
    DeterminantResult,
    IntervalPartition,
    NumericalError,
    ValidationError,
    WeightConfiguration,
    conditional_stats,
    counting_stats,
    fredholm_det,
    joint_pmf,
    positive_weights_expansion,
    reduced_indices,
    zero_weight_expansion,
)
from sinegap.counting import _checked_counts
from sinegap.fredholm import _checked_u, _matched_weights
from sinegap.quadrature import _check_order, _check_r


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_fredholm_unit_weights_row(capsys):
    code, out, _ = run_cli(capsys, "fredholm", "--x", "0,0.5,1", "--s", "1,1", "--r", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,log_f,error_estimate"
    assert lines[1].split(",") == ["5.0", "0.0", "0.0"]


def test_fredholm_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "fredholm", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r", "20"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    w = WeightConfiguration.from_positive_u((-1.1, -2.4))
    want = fredholm_det((0.0, 0.7, 1.2), w, 20.0, 64).log_f.real
    assert float(row[1]) == want  # repr round-trips exactly


def test_converge_delta_bounded(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r-range", "5:40:8"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,log_f_numeric,log_f_asym,delta"
    deltas = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(deltas) == 8
    assert all(abs(d) < 1.0 for d in deltas)


# the four paper-figure configurations as converge flags
FIGURE_FLAGS = (
    ("--x", "0,0.7,1.2", "--u=-1.1,-2.4"),
    ("--x", "0,0.5,1.1,1.7", "--u=-0.8,-1.8,-1.32"),
    ("--x", "0,0.5,1.1,1.7", "--p", "2", "--u=0.8,-1.32"),
    ("--x", "0,0.5,1.1,1.7,2.5", "--p", "3", "--u=0.8,1.8,-1.87"),
)


def test_converge_prints_fredholm_log_f_from_one_factorization_per_row(capsys, monkeypatch):
    # converge prints fredholm_det's log F, equal as a float, from one
    # fill and factorization per row: no n // 2 pass.  A fill is the N x N
    # matrix (`_scaled_kernel`) or, on the band route, its N x M factor
    # (`_band_basis`).  The last flags give weights on both sides of 1
    # (s ~ 0.74, 2.46, 0.30), two factors a row
    calls = {"fill": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    fredholm_module = sinegap.fredholm
    monkeypatch.setattr(fredholm_module, "_scaled_kernel", counted("fill", fredholm_module._scaled_kernel))
    monkeypatch.setattr(fredholm_module, "_band_basis", counted("fill", fredholm_module._band_basis))
    monkeypatch.setattr(fredholm_module, "cholesky_factor", counted("factor", fredholm_module.cholesky_factor))
    monkeypatch.setattr(fredholm_module, "lu_factor", counted("factor", fredholm_module.lu_factor))
    mixed = ("--x", "0,0.5,1.1,1.7", "--u=-1.2,2.1,-1.2")
    for flags in (*FIGURE_FLAGS, mixed):
        for n in ("64", "128"):
            calls.update(fill=0, factor=0)
            code, out, err = run_cli(capsys, "converge", *flags, "--r-range", "5:40:4", "--n", n)
            assert code == 0, err
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert np.allclose([float(row[0]) for row in rows], (5.0, 10.0, 20.0, 40.0), rtol=1e-15, atol=0.0)
            assert calls == {"fill": 4, "factor": 8 if flags is mixed else 4}, (flags, n)
            ns = cli.build_parser().parse_args(["converge", *flags, "--r-range", "5:40:4"])
            job, _ = cli.validate_args(ns)
            weights = cli._weights(None, job.u, job.p, len(job.x) - 1)
            for row in rows:
                want = fredholm_det(job.x, weights, float(row[0]), int(n)).log_f
                assert float(row[1]) == want, (flags, n, row)


def test_converge_zero_weight_mode(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--x", "0,0.5,1.1,1.7", "--u=0.8,-1.32", "--p", "2",
        "--r-range", "10:40:3",
    )
    assert code == 0
    deltas = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
    assert all(abs(d) < 1.0 for d in deltas)


def test_rows_are_ordered_by_r(capsys):
    code, out, _ = run_cli(
        capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r-range", "2:32:5"
    )
    assert code == 0
    rs = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert rs == sorted(rs)
    assert np.allclose(rs, np.geomspace(2.0, 32.0, 5), rtol=0.0, atol=0.0)


def test_asym_breakdown_columns(capsys):
    code, out, _ = run_cli(capsys, "asym1", "--x", "0,1", "--u=-1.1", "--r", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,r_squared_term,r_linear_term,log_r_term,constant_term,total"
    row = lines[1].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == -1.1 / math.pi
    assert float(row[3]) == 0.0  # log 1


def test_asym2_breakdown(capsys):
    code, out, _ = run_cli(
        capsys, "asym2", "--x", "0,0.5,1.1,1.7", "--p", "2", "--u=0.8,-1.32", "--r", "20"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    gap = 1.1 - 0.5
    assert float(row[1]) == -((20.0 * gap) ** 2) / 8.0


def test_m1_hard_gap_needs_no_u(capsys):
    # --p 1 on one interval leaves m - 1 = 0 log-ratios: Dyson's gap law
    code, out, _ = run_cli(capsys, "asym2", "--x", "0,0.6", "--p", "1", "--r", "20")
    assert code == 0
    row = [float(v) for v in out.strip().split("\n")[1].split(",")]
    b = zero_weight_expansion((0.0, 0.6), 1, (), 20.0)
    assert row == [20.0, b.r_squared_term, b.r_linear_term, b.log_r_term, b.constant_term, b.total]
    code, out, _ = run_cli(capsys, "converge", "--x", "0,0.6", "--p", "1", "--r-range", "10:40:3")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        r, numeric = (float(v) for v in line.split(",")[:2])
        assert numeric == fredholm_det((0.0, 0.6), (0.0,), r).log_f.real
    # with more intervals the log-ratios are still required
    code, _, err = run_cli(capsys, "asym2", "--x", "0,0.6,1.2", "--p", "1", "--r", "20")
    assert code == 2 and "--u is required" in err


def test_pmf_table_and_residual_row(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--x", "0,0.5", "--r", "1", "--k", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k_1,probability"
    assert len(lines) == 9  # header + 7 counts + residual
    total = sum(float(line.split(",")[1]) for line in lines[1:-1])
    assert abs(total - 1.0) < 1e-8
    k_cell, residual = lines[-1].split(",")
    assert k_cell == ""
    assert abs(float(residual)) < 1e-8
    # four intervals: 3^4 counts and the residual row
    code, out, _ = run_cli(capsys, "pmf", "--x", "0,0.2,0.4,0.6,0.8", "--r", "1", "--k", "2")
    lines = out.strip().split("\n")
    assert code == 0 and lines[0] == "k_1,k_2,k_3,k_4,probability" and len(lines) == 83
    assert lines[-1].startswith(",,,,")


def test_pmf_residual_row_is_a_probability(capsys):
    # both tables sum to 1 + 2.2e-16: the mass left outside them is 0, not
    # a rounding below it
    code, out, _ = run_cli(capsys, "pmf", "--x", "0,0.5", "--r", "1", "--k", "6")
    assert code == 0 and out.splitlines()[-1] == ",0.0"
    code, out, _ = run_cli(capsys, "pmf", "--x", "0,0.5", "--r", "3", "--k", "8", "--format", "json")
    last = json.loads(out)["rows"][-1]
    assert code == 0 and last["k_1"] is None and last["probability"] >= 0.0


def test_stats_long_format(capsys):
    code, out, _ = run_cli(capsys, "stats", "--x", "0,0.7,1.2", "--r", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,stat,j,k,value"
    stats = counting_stats((0.0, 0.7, 1.2), 20.0)
    by_key = {}
    for line in lines[1:]:
        r, stat, j, k, value = line.split(",")
        by_key[(stat, j, k)] = float(value)
    assert by_key[("mu", "1", "")] == stats.mu[0]
    assert by_key[("sigma2", "2", "")] == stats.sigma2[1]
    assert by_key[("cross", "1", "2")] == stats.cross[0, 1]
    assert len(lines) == 1 + 2 + 2 + 1


def test_stats_hatted_with_p(capsys):
    code, out, _ = run_cli(capsys, "stats", "--x", "0,0.5,1.1,1.7", "--p", "2", "--r", "10")
    assert code == 0
    body = out.strip().split("\n")[1:]
    stats = {line.split(",")[1] for line in body}
    assert stats == {"mu_hat", "sigma2_hat", "cross_hat"}
    labels = {line.split(",")[2] for line in body}
    assert labels == {"0", "3"}


# ---------------------------------------------------------------------------
# determinism and round-trip


def test_byte_identical_reruns(capsys):
    argv = ("converge", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r-range", "5:40:6")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_json_round_trip_exact(capsys):
    code, out, _ = run_cli(
        capsys, "fredholm", "--x", "0,0.7,1.2", "--u=-1.1,-2.4",
        "--r-range", "5:20:3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["jobspec"]["command"] == "fredholm"
    assert doc["jobspec"]["r_range"] == {"lo": 5.0, "hi": 20.0, "count": 3}
    assert len(doc["rows"]) == 3
    w = WeightConfiguration.from_positive_u((-1.1, -2.4))
    for row, r in zip(doc["rows"], np.geomspace(5.0, 20.0, 3)):
        assert row["r"] == float(r)
        want = fredholm_det((0.0, 0.7, 1.2), w, float(r), 64).log_f.real
        assert row["log_f"] == want


def test_json_pmf_residual_is_null(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--x", "0,0.5", "--r", "1", "--k", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][-1]["k_1"] is None
    table = joint_pmf((0.0, 0.5), 1.0, 2)
    assert doc["rows"][0]["probability"] == table.table[0]


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    argv = ("converge", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r-range", "5:10:3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code2 = cli.main(list(argv) + ["--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text(encoding="utf-8") == out


X2, U2 = (0.0, 0.7, 1.2), (-1.1, -2.4)
X3, U3, P3 = (0.0, 0.5, 1.1, 1.7), (0.8, -1.32), 2

FORMAT_JOBS = {
    "fredholm": ("--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r", "20"),
    "asym1": ("--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r", "20"),
    "asym2": ("--x", "0,0.5,1.1,1.7", "--p", "2", "--u=0.8,-1.32", "--r", "20"),
    "converge": ("--x", "0,0.5,1.1,1.7", "--p", "2", "--u=0.8,-1.32", "--r-range", "10:40:2"),
    "pmf": ("--x", "0,0.5,1", "--r", "1", "--k", "2"),
    "stats": ("--x", "0,0.5,1.1,1.7", "--p", "2", "--r", "10"),
}


def library_rows(command):
    """The rows of a FORMAT_JOBS job, computed by the library directly."""
    if command == "fredholm":
        res = fredholm_det(X2, WeightConfiguration.from_positive_u(U2), 20.0, 64)
        return [[20.0, res.log_f.real, res.error_estimate]]
    if command in ("asym1", "asym2"):
        if command == "asym1":
            b = positive_weights_expansion(X2, U2, 20.0)
        else:
            b = zero_weight_expansion(X3, P3, U3, 20.0)
        return [[20.0, b.r_squared_term, b.r_linear_term, b.log_r_term, b.constant_term, b.total]]
    if command == "converge":
        rows = []
        for r in (10.0, 40.0):
            numeric = fredholm_det(X3, WeightConfiguration.from_zero_u(U3, P3, 3), r, 64).log_f.real
            asym = zero_weight_expansion(X3, P3, U3, r).total
            rows.append([r, numeric, asym, r * (numeric - asym)])
        return rows
    if command == "pmf":
        pmf = joint_pmf((0.0, 0.5, 1.0), 1.0, 2)
        rows = [[i, j, float(pmf.table[i, j])] for i in range(3) for j in range(3)]
        return rows + [[None, None, pmf.residual_mass]]
    t = conditional_stats(X3, P3, 10.0)
    a, b = t.labels
    return [
        [10.0, "mu_hat", a, None, float(t.mu[0])],
        [10.0, "mu_hat", b, None, float(t.mu[1])],
        [10.0, "sigma2_hat", a, None, float(t.sigma2[0])],
        [10.0, "sigma2_hat", b, None, float(t.sigma2[1])],
        [10.0, "cross_hat", a, b, float(t.cross[0, 1])],
    ]


def csv_cell(text):
    # a float cell always carries '.' or an exponent, so int() refuses it
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("command", sorted(FORMAT_JOBS))
def test_csv_and_json_carry_the_library_values(command, capsys):
    argv = (command, *FORMAT_JOBS[command])
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    header, *csv_rows = csv.reader(io.StringIO(csv_out))
    csv_rows = [[csv_cell(v) for v in row] for row in csv_rows]
    json_rows = [[row[h] for h in header] for row in json.loads(json_out)["rows"]]
    assert [[type(v) for v in row] for row in csv_rows] == [[type(v) for v in row] for row in json_rows]
    assert csv_rows == json_rows == library_rows(command)


# ---------------------------------------------------------------------------
# validation and exit codes


def test_all_validation_errors_reported_at_once(capsys):
    code, _, err = run_cli(capsys, "fredholm", "--x", "1,0.5", "--r", "-2")
    assert code == 2
    assert "strictly increasing" in err
    assert "--r" in err
    assert "--s / --u" in err
    code, out, err = run_cli(capsys, "fredholm", "--s", "0.5", "--r", "2")
    assert (code, out) == (2, "") and "error: --x is required" in err
    code, out, err = run_cli(capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r", "2", "--format", "xml")
    assert (code, out) == (2, "") and "error: --format: choose from csv, json, got 'xml'" in err


def test_s_and_u_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--u=-1.0", "--r", "2"
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_command_flag_consistency_checks(capsys):
    code, _, err = run_cli(capsys, "asym1", "--x", "0,1", "--u=-1.0", "--p", "1", "--r", "2")
    assert code == 2 and "asym1" in err
    code, _, err = run_cli(capsys, "asym2", "--x", "0,0.5,1", "--u=0.3", "--r", "2")
    assert code == 2 and "--p is required" in err
    code, _, err = run_cli(capsys, "pmf", "--x", "0,1", "--r", "2")
    assert code == 2 and "--k is required" in err
    code, _, err = run_cli(capsys, "converge", "--x", "0,1", "--u=-1.0", "--r", "2")
    assert code == 2 and "--r-range" in err
    code, _, err = run_cli(capsys, "stats", "--x", "0,1", "--r", "2", "--k", "3")
    assert code == 2 and "--k" in err
    code, out, err = run_cli(capsys, "fredholm", "--x", "0,1,2", "--s", "0.5,1", "--p", "1", "--r", "2")
    assert code == 2 and "--p" in err and "--s" in err and out == ""


def test_unknown_command_and_flag(capsys):
    code, _, err = run_cli(capsys, "bogus", "--x", "0,1", "--r", "2")
    assert code == 2 and "unknown command" in err
    code = cli.main(["fredholm", "--bogus-flag", "1"])
    capsys.readouterr()
    assert code == 2


def test_bad_range_and_order_values(capsys):
    code, _, err = run_cli(
        capsys, "converge", "--x", "0,1", "--u=-1.0", "--r-range", "5:2:4"
    )
    assert code == 2 and "lo < hi" in err
    code, _, err = run_cli(
        capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r", "2", "--n", "4"
    )
    assert code == 2 and "--n" in err


def _library_message(call):
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


VALUE_ERRORS = [
    (("fredholm", "--x", "1,0.5", "--s", "0.5", "--r", "2"), "--x",
     lambda: IntervalPartition((1.0, 0.5))),
    (("fredholm", "--x", "0,nan", "--s", "0.5", "--r", "2"), "--x",
     lambda: IntervalPartition((0.0, math.nan))),
    (("fredholm", "--x", "0,1", "--s", "0.5", "--r", "0"), "--r", lambda: _check_r(0.0)),
    (("converge", "--x", "0,1", "--u=-1", "--r-range", "5:inf:4"), "--r-range", lambda: _check_r(math.inf)),
    (("fredholm", "--x", "0,1", "--s", "0.5", "--r", "2", "--n", "4"), "--n", lambda: _check_order(4)),
    (("pmf", "--x", "0,1", "--r", "2", "--k", "-1"), "--k", lambda: _checked_counts(-1, 1)),
    (("pmf", "--x", "0,1,2,3,4", "--r", "2", "--k", "11"), "--k", lambda: _checked_counts(11, 4)),
    (("fredholm", "--x", "0,1", "--s", "-0.5", "--r", "2"), "--s",
     lambda: WeightConfiguration((-0.5,))),
    (("fredholm", "--x", "0,1", "--s", "0.5,0.5", "--r", "2"), "--s",
     lambda: _matched_weights(IntervalPartition((0.0, 1.0)), (0.5, 0.5))),
    (("asym1", "--x", "0,1", "--u=1,2", "--r", "2"), "--u", lambda: _checked_u((1.0, 2.0), 1)),
    (("asym2", "--x", "0,1,2", "--p", "1", "--u=1,2", "--r", "2"), "--u", lambda: _checked_u((1.0, 2.0), 1)),
    (("fredholm", "--x", "0,1", "--u=nan", "--r", "2"), "--u", lambda: _checked_u((math.nan,), 1)),
    (("fredholm", "--x", "0,1", "--u=1000", "--r", "2"), "--u",
     lambda: WeightConfiguration.from_positive_u((1000.0,))),
    (("stats", "--x", "0,1,2", "--p", "3", "--r", "2"), "--p", lambda: reduced_indices(2, 3)),
    (("fredholm", "--x", "0,1,2", "--u=1", "--p", "0", "--r", "2"), "--p", lambda: reduced_indices(2, 0)),
]


@pytest.mark.parametrize("argv, flag, call", VALUE_ERRORS, ids=[" ".join(c[0]) for c in VALUE_ERRORS])
def test_value_errors_are_the_library_messages_under_their_flag(argv, flag, call, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: {_library_message(call)}\n"


def test_n_is_refused_where_no_determinant_reads_it(capsys):
    for argv in (
        ("asym1", "--x", "0,1", "--u=-1.1", "--r", "1"),
        ("asym2", "--x", "0,0.6", "--p", "1", "--r", "20"),
        ("stats", "--x", "0,1", "--r", "2"),
    ):
        code, out, err = run_cli(capsys, *argv, "--n", "2000", "--format", "json")
        assert (code, out) == (2, "") and f"{argv[0]}: takes no --n" in err
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["jobspec"]["n"] == 64


IMPORT_BOUNDARY = """
import contextlib, io, sys
import sinegap, sinegap.cli
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["pmf", "--x", "0,0.5,1.1,1.7", "--r", "1", "--k", "2"],
        ["asym1", "--x", "0,1", "--u=-1.1", "--r", "1"],
        ["asym2", "--x", "0,0.6", "--p", "1", "--r", "20"],
        ["stats", "--x", "0,0.7,1.2", "--r", "20"],
        ["converge", "--x", "0,0.5,1.1,1.7", "--p", "2", "--u", "0.8,-1.32", "--r-range", "5:40:8"],
    ):
        assert sinegap.cli.main(argv) == 0, argv
        loaded.append("scipy.linalg" in sys.modules)
sinegap.numerical_cumulants((0.0, 0.5, 1.2), 5.0)
loaded.append("scipy.linalg" in sys.modules)
sinegap.fredholm_det((0.0, 1.0), (0.5,), 2.0)
loaded.append("scipy.linalg" in sys.modules)
sinegap.fredholm_det((0.0, 0.5, 1.1, 1.7), (0.3, 2.1, 0.6), 10.0)
loaded.append("scipy.linalg" in sys.modules)
assert "scipy.linalg._flapack" in sys.modules and "scipy.linalg._fblas" in sys.modules
print(*loaded)
"""


def test_commands_that_factor_nothing_leave_scipy_linalg_unimported():
    # the scipy.linalg package costs about 0.17 s and 23 MB per process:
    # no command imports it.  The factorizations (the hard-gap converge
    # scan, one mixed-sign determinant) load only scipy's compiled
    # LAPACK/BLAS modules
    src = str(Path(sinegap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"] * 8


def test_aliased_pmf_exits_3_with_empty_stdout(capsys):
    code, out, err = run_cli(capsys, "pmf", "--x", "0,3", "--r", "5", "--k", "1")
    assert (code, out) == (3, "")
    assert "raise K" in err


def test_hard_gap_whose_edge_value_rounds_to_zero_exits_3(capsys):
    # at r = 132.7 the zeroed interval has half-length 39.8, where psi_0(1)
    # rounds to 0.0: a numerical failure with one message, not a crash
    code, out, err = run_cli(capsys, "converge", "--x", "0,0.5,1.1,1.7", "--p", "2", "--u", "0.8,-1.32",
                             "--r-range", "5:200:10", "--n", "128")
    assert (code, out) == (3, "")
    assert "rounding bound inf" in err and "Traceback" not in err


def test_unresolved_coarse_pass_exits_3_and_names_the_order_it_needs(capsys):
    # at n = 128 the fine pass resolves fig1-left at r = 200, but the
    # n // 2 = 64 pass is below the floor of 70: there is no estimate, so
    # no row is written
    argv = ("fredholm", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r", "200")
    code, out, err = run_cli(capsys, *argv, "--n", "128")
    assert (code, out) == (3, "")
    assert "the n // 2 = 64 pass is below the order floor 70, so n >= 140" in err
    assert "Traceback" not in err and "non-finite" not in err
    code, out, _ = run_cli(capsys, *argv, "--n", "150")
    assert code == 0 and out.count("\n") == 2


def test_unresolved_coarse_pass_names_the_order_of_the_merged_gap(capsys):
    # fredholm_det merges adjacent zero weights into one zeroed interval
    # before it builds a rule, so the floor named is the merged interval's:
    # (0, 0.3, 0.6, 1) with s = (0, 0, 0.5) is the hard gap (0, 0.6), whose
    # floor at r = 60 is ceil(60 * 0.6 / 2) = 18, whichever way it is written
    for spelling in (("0,0.3,0.6,1", "0,0,0.5"), ("0,0.6,1", "0,0.5")):
        code, out, err = run_cli(capsys, "fredholm", "--x", spelling[0], "--s", spelling[1], "--r", "60", "--n", "24")
        assert (code, out) == (3, ""), spelling
        assert "the n // 2 = 12 pass is below the order floor 18, so n >= 36" in err, (spelling, err)
        assert "Traceback" not in err


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sinegap ")]


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert len(examples) == 5
    for argv in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("forced pivot failure")

    monkeypatch.setattr(cli, "fredholm_det", explode)
    code, _, err = run_cli(capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r", "2")
    assert code == 3
    assert "numerical failure" in err
    monkeypatch.undo()
    # closed-form terms past double precision: one message, no traceback,
    # and no numpy warning (the suite turns warnings into errors); an order
    # below r (x_j - x_(j-1)) / 2, here 64 < 70 at r = 200, or 22 < 30 for
    # pmf at r = 60; an n // 2 = 32 pass below the floor of 50 at r = 100;
    # and a floor r L / 2 that overflows to inf in each command taking an order
    for argv, needle in (
        (("converge", "--x", "0,0.7,1.2", "--u=-1.1,-2.4", "--r-range", "5:200:10", "--n", "64"), "= 70"),
        (("asym2", "--x", "0,1e200", "--p", "1", "--r", "1"), ""),
        (("asym1", "--x", "0,1e308", "--u=1", "--r", "10"), ""),
        (("stats", "--x", "0,1e308", "--r", "10"), ""),
        (("asym1", "--x", "0,1", "--u=1e300", "--r", "1e10"), ""),
        (("stats", "--x", "0,1e-300,1,2", "--p", "1", "--r", "1"), ""),  # a - b rounds to 0
        (("fredholm", "--x", "0,1", "--s", "0.5", "--r", "100"), "order floor 50"),
        (("pmf", "--x", "0,1", "--r", "60", "--k", "40", "--n", "22"), "cannot resolve"),
        (("fredholm", "--s", "0.5", "--r", "1e10", "--x", "0,1e300"), ""),
        (("converge", "--u=-0.7", "--r-range", "1e10:2e10:2", "--x", "0,1e300"), ""),
        (("pmf", "--r", "1e10", "--k", "2", "--x", "0,1e300"), ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), (argv, err)
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, (argv, err)
        assert needle in err, (argv, err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_output_maps_to_exit_3_and_writes_nothing(fmt, tmp_path, capsys, monkeypatch):
    def nan_det(*args, **kwargs):
        return DeterminantResult(log_f=math.nan, order_used=64, error_estimate=0.0)

    monkeypatch.setattr(cli, "fredholm_det", nan_det)
    argv = ("fredholm", "--x", "0,1", "--s", "0.5", "--r", "2", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "non-finite" in err
    path = tmp_path / f"out.{fmt}"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (3, "")
    assert not path.exists()


def test_io_failure_maps_to_exit_4(capsys):
    code, _, err = run_cli(
        capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r", "2",
        "--out", "/nonexistent-dir-for-sure/out.csv",
    )
    assert code == 4
    assert "i/o failure" in err


# 11 intervals at n = 2048: N = 22528 nodes exceed fredholm.MAX_NODES
OVERSIZED = ("fredholm", "--x", ",".join(map(str, range(12))), "--s", ",".join(["0.5"] * 11),
             "--r", "1", "--n", "2048")


def test_more_nodes_than_max_nodes_exit_2_with_empty_stdout(capsys):
    code, out, err = run_cli(capsys, *OVERSIZED)
    assert (code, out) == (2, "")
    assert err == (
        "error: m = 11 intervals at order n = 2048 make N = 22528 nodes > 16384:"
        " one N x N matrix would take 3.78 GiB\n"
    )


def test_python_m_sinegap_prints_what_main_prints_and_passes_on_exit_codes(capsys):
    src = str(Path(sinegap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "sinegap", *argv], env=env, capture_output=True,
                              text=True, timeout=120)

    argv = ("asym2", "--x", "0,0.6", "--p", "1", "--r", "20")
    done = module(*argv)
    assert (done.returncode, done.stdout) == (0, run_cli(capsys, *argv)[1])
    for argv, code in ((("fredholm", "--x", "0,1", "--s", "0.5", "--r", "100"), 3), (OVERSIZED, 2)):
        done = module(*argv)
        assert (done.returncode, done.stdout) == (code, ""), (argv, done.stderr)
        assert done.stderr and "Traceback" not in done.stderr, argv


def test_band_route_scan_prints_the_same_bytes_at_one_and_two_blas_threads():
    # every fig1-right row at n = 128 takes the band route: one M x M
    # dsyrk and Cholesky factor, M <= 60, whose bits do not depend on the
    # BLAS thread count.  Through the N x N factor (N = 384) the same scan
    # prints bytes that differ from char 54 on
    src = str(Path(sinegap.__file__).resolve().parents[1])
    argv = ("converge", "--x", "0,0.5,1.1,1.7", "--u=-0.8,-1.8,-1.32", "--n", "128", "--r-range", "5:40:12")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "sinegap", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0].count("\n") == 13
    assert outs[0] == outs[1]


def test_jobspec_r_values_geometric():
    job = cli.JobSpec(command="fredholm", x=(0.0, 1.0), s=(0.5,), r_range=(2.0, 32.0, 5))
    assert np.allclose(job.r_values(), np.geomspace(2.0, 32.0, 5), rtol=0.0, atol=0.0)
    single = cli.JobSpec(command="fredholm", x=(0.0, 1.0), s=(0.5,), r=3.0)
    assert single.r_values() == (3.0,)
