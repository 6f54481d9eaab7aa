"""CLI: argument validation, output formats, determinism, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

import sinegap.cli as cli
from sinegap import (
    DeterminantResult,
    NumericalError,
    WeightConfiguration,
    conditional_stats,
    counting_stats,
    fredholm_det,
    joint_pmf,
    positive_weights_expansion,
    zero_weight_expansion,
)


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


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("forced pivot failure")

    monkeypatch.setattr(cli, "fredholm_det", explode)
    code, _, err = run_cli(capsys, "fredholm", "--x", "0,1", "--s", "0.5", "--r", "2")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_output_maps_to_exit_3_and_writes_nothing(fmt, tmp_path, capsys, monkeypatch):
    def nan_det(*args, **kwargs):
        return DeterminantResult(log_f=complex(math.nan, 0.0), order_used=64, error_estimate=0.0)

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


def test_jobspec_r_values_geometric():
    job = cli.JobSpec(command="fredholm", x=(0.0, 1.0), s=(0.5,), r_range=(2.0, 32.0, 5))
    assert np.allclose(job.r_values(), np.geomspace(2.0, 32.0, 5), rtol=0.0, atol=0.0)
    single = cli.JobSpec(command="fredholm", x=(0.0, 1.0), s=(0.5,), r=3.0)
    assert single.r_values() == (3.0,)
