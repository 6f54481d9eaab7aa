"""Tests of the benchmark's own machinery (not of sinegap).

    python3 -m pytest bench
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
from run import BENCH, SRC

sys.path.insert(0, str(SRC))

import sinegap  # noqa: E402
import sinegap.cli  # noqa: E402
import sinegap.counting  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, make_jobs, run_job  # noqa: E402


def span(sid, name, start, end, parent=None, thread=0):
    return spans.Span(sid, name, start, end, thread, parent, 0)


def test_self_time_subtracts_union_of_overlapping_pool_children():
    # cli [0, 10] dispatches rows to two pool threads; their det spans
    # overlap in [2, 4], and one det has a kernel-fill child of its own.
    trace = [
        span(1, "cli", 0.0, 10.0),
        span(2, "fredholm.det", 1.0, 4.0, parent=1, thread=1),
        span(3, "fredholm.det", 2.0, 6.0, parent=1, thread=2),
        span(4, "fredholm.det", 8.0, 9.0, parent=1, thread=1),
        span(5, "fredholm.kernel_fill", 2.5, 3.5, parent=2, thread=1),
    ]
    selfs = spans.self_times(trace)
    assert spans.union_length([(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert spans.union_length([(-1.0, 4.0), (8.0, 12.0), (11.0, 13.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert selfs[1] == pytest.approx(10.0 - 6.0)  # union [1, 6] + [8, 9]
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)
    by_layer = spans.self_time_by_layer(trace)
    assert by_layer["cli"] == pytest.approx(4.0)
    assert by_layer["fredholm.det"] == pytest.approx(7.0)
    assert by_layer["fredholm.kernel_fill"] == pytest.approx(1.0)


def test_pool_thread_spans_take_the_dispatching_span_as_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap("fredholm.det", lambda v: threading.get_ident())

    def dispatch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    tracer.start_job(7)
    tracer.wrap("cli", dispatch)()
    root = next(s for s in tracer.spans if s.name == "cli")
    rows = [s for s in tracer.spans if s.name == "fredholm.det"]
    assert len(rows) == 4
    assert all(s.parent == root.id and s.job == 7 for s in rows)
    assert 0.0 <= spans.self_times(tracer.spans)[root.id] <= root.end - root.start


def test_same_seed_gives_same_inputs():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        frozen = json.load(fh)["jobs"]
    for workload in WORKLOADS:
        jobs = make_jobs(workload, DEFAULT_SEED)
        assert jobs == make_jobs(workload, DEFAULT_SEED)
        assert [list(j.argv) for j in jobs] == [f["argv"] for f in frozen[workload].values()]
        assert [j.argv for j in make_jobs(workload, 3)] == [j.argv for j in make_jobs(workload, 3)]
        assert [j.argv for j in make_jobs(workload, 3)] != [j.argv for j in jobs]


def test_gate_rejects_one_perturbed_output():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        frozen = json.load(fh)["jobs"]["figure_scans"]
    job = next(j for j in make_jobs("figure_scans", DEFAULT_SEED) if j.label == "converge fig1-left n64")
    outcome = run_job(job, sinegap)
    assert gate.check(job, outcome, frozen[job.label]) == []

    lines = outcome.text.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)  # log_f_numeric of the first row
    lines[1] = ",".join(cells)
    bad = Outcome(0, text="\n".join(lines) + "\n")
    assert any("delta" in msg for msg in gate.check(job, bad))
    assert any("frozen" in msg for msg in gate.check(job, bad, frozen[job.label]))


def test_vanished_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sinegap.fredholm, "lu_factor")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "sinegap.fredholm.lu_factor" in tracer.absent
        sinegap.cli.main(["asym1", "--x", "0,1", "--u=0.5", "--r", "3"])
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, tracer.absent)
    for name in ("fredholm.lu_s", "fredholm.lu_calls", "fredholm.factorizations_per_det",
                 "fredholm.self_s"):
        assert metrics[name] == spans.ABSENT
    assert metrics["cli.calls"] == 1
    assert metrics["fredholm.kernel_fill_calls"] == 0
    assert sinegap.cli.main is not None and not hasattr(sinegap.cli.main, "__wrapped__")


def test_reported_metrics_match_benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == run.END_TO_END
    layer_units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    assert per_layer == layer_units | run.RUN_LAYER_UNITS


@pytest.mark.parametrize("workload, label", [("figure_scans", "converge fig2-left n64"),
                                             ("count_inversion", "cumulants m4")])
def test_gate_accepts_the_seed_codes_outputs(workload, label):
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        frozen = json.load(fh)["jobs"][workload][label]
    job = next(j for j in make_jobs(workload, DEFAULT_SEED) if j.label == label)
    assert gate.check(job, run_job(job, sinegap), frozen) == []
