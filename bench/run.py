"""sinegap benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload figure_scans --seed 0 --seconds 55 --trace 0

Runs from the root of a source checkout and imports `sinegap` from its
`src/`.  BLAS is pinned to one thread before numpy is imported, and the
process to one CPU (see `pin_to_one_cpu`).  Each
run makes one warm-up pass, then repeats the workload's job list
closed-loop (the next job starts when the previous one returns) until
`--seconds` have passed, timing set-up in fresh interpreters between
passes.  Every output of every pass goes through the correctness gate.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
`--record PATH` also appends the full run record (metadata, per-job
times, the known-defect probe) to PATH as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics made here rather than from spans (spans.LAYER_METRICS).
RUN_LAYER_UNITS = {
    "quadrature.gauss_legendre_misses": "count", "setup.import_s": "s", "setup.first_call_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.self_share": "ratio", "cli.out_bytes": "byte",
}

SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import sinegap
t1 = time.perf_counter()
sinegap.fredholm_det((0.0, 1.0), (0.5,), 2.0, 16)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))
"""


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its set-up children on one CPU.

    On a shared host the second vCPU comes and goes: unpinned, the
    CLI's 2-thread scan pool got 1.67 CPUs in some runs and 1.13 in
    others, which doubled figure_scans' wall_s from one run to the next.
    On one CPU the pool's threads take turns, so wall_s is the
    single-core cost and does not depend on the other vCPU's load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_child() -> dict[str, float]:
    """Import and first-call seconds of one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def run_pass(jobs, sinegap, tracer=None) -> dict:
    from workloads import run_job

    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.start_job(i)
            start = time.perf_counter()
            outcome = run_job(job, sinegap)
            outcome.seconds = time.perf_counter() - start
            outcomes.append(outcome)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes, "tracer": tracer}


def defect_probe(sinegap) -> dict:
    """Known defect, untimed and ungated: fig2-left at n = 128 beyond r = 60.
    A case fails if it raises (NumericalError today) or misses the expansion by
    more than 1 (the expansion's own error there is O(log r / r) < 0.1)."""
    from workloads import FIGURES

    x, u, p = FIGURES["fig2-left"]
    weights = sinegap.WeightConfiguration.from_zero_u(u, p, len(x) - 1)
    cases = []
    for r in (80.0, 120.0, 200.0):
        asym = float(sinegap.zero_weight_expansion(x, p, u, r).total)
        try:
            res = sinegap.fredholm_det(x, weights, r, 128)
        except Exception as exc:  # the probe reports; it never stops the run
            cases.append({"r": r, "failed": True, "raised": f"{type(exc).__name__}: {exc}",
                          "log_f_asym": asym})
            continue
        cases.append({"r": r, "failed": bool(abs(res.log_f.real - asym) > 1.0), "log_f": res.log_f.real,
                      "log_f_asym": asym, "error_estimate": res.error_estimate})
    return {"attempted": len(cases), "failed": sum(c["failed"] for c in cases), "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    os.environ.update(THREAD_PINS)  # before numpy is imported anywhere
    pin_to_one_cpu()
    if not (SRC / "sinegap" / "__init__.py").is_file():
        print(f"error: no sinegap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sinegap
    import sinegap.cli
    import sinegap.counting

    if Path(sinegap.__file__).resolve().parent != SRC / "sinegap":
        print(f"error: imported sinegap from {sinegap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import gate
    import spans
    from workloads import DEFAULT_SEED, WORKLOADS, make_jobs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    jobs = make_jobs(args.workload, args.seed)
    frozen = {}
    if args.seed == DEFAULT_SEED:
        with open(BENCH / "reference.json", encoding="utf-8") as fh:
            frozen = json.load(fh)["jobs"][args.workload]

    meta = metadata(args.seed)

    attempted = failed = 0
    problems: list[str] = []

    def finish(p: dict) -> dict:
        """Gate every output of a pass, then keep only its numbers, so that
        memory does not grow with the number of passes."""
        nonlocal attempted, failed
        for job, outcome in zip(jobs, p["outcomes"]):
            attempted += 1
            bad = gate.check(job, outcome, frozen.get(job.label))
            if bad:
                failed += 1
                problems.extend(f"{job.label}: {msg}" for msg in bad[:3])
        summary = {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                   "job_s": [o.seconds for o in p["outcomes"]],
                   "out_bytes": sum(len(o.text.encode()) for o in p["outcomes"])}
        tracer = p["tracer"]
        if tracer is not None:
            summary["layers"] = spans.layer_metrics(tracer.spans, tracer.absent)
            summary["self_s"] = sum(spans.self_time_by_layer(tracer.spans).values())
            summary["job_self_s"] = {
                job.label: spans.self_time_by_layer([s for s in tracer.spans if s.job == i])
                for i, job in enumerate(jobs)}
        return summary

    finish(run_pass(jobs, sinegap))  # warm-up: caches fill, lazy imports finish
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or not plain or (args.trace and not traced):
        # Set-up children are spread over the run, between passes, so that
        # setup_s samples the same stretch of time as the passes do.
        setup_due = start + len(setups) * args.seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= setup_due:
            setups.append(setup_child())
            continue
        use_tracer = args.trace and len(traced) < len(plain)
        p = finish(run_pass(jobs, sinegap, spans.Tracer() if use_tracer else None))
        (traced if use_tracer else plain).append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_child())
    setup = {
        "setup_s": statistics.median(r["import_s"] + r["first_call_s"] for r in setups),
        "setup.import_s": statistics.median(r["import_s"] for r in setups),
        "setup.first_call_s": statistics.median(r["first_call_s"] for r in setups),
    }
    cache_info = getattr(sinegap.quadrature.gauss_legendre, "cache_info", None)
    rule_misses = cache_info().misses if cache_info else spans.ABSENT
    probe = defect_probe(sinegap)

    def med(passes, key):
        return statistics.median(p[key] for p in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metadata": meta, "passes": len(plain) + len(traced),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cpu_s": [p["cpu_s"] for p in plain],
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "end_to_end": {"setup_s": setup["setup_s"], "wall_s": med(plain, "wall_s"),
                       "cpu_s": med(plain, "cpu_s"), "peak_rss_mb": peak_rss_mb},
        "job_wall_s": {job.label: statistics.median(p["job_s"][i] for p in plain)
                       for i, job in enumerate(jobs)},
        "defect_probe": probe,
        "problems": problems[:20],
    }
    if args.trace:
        layers = {}
        for name in spans.LAYER_METRICS:
            vals = [p["layers"][name] for p in traced]
            layers[name] = spans.ABSENT if spans.ABSENT in vals else statistics.median(vals)
        traced_wall = med(traced, "wall_s")
        layers |= {
            "quadrature.gauss_legendre_misses": rule_misses,
            "setup.import_s": setup["setup.import_s"],
            "setup.first_call_s": setup["setup.first_call_s"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - record["end_to_end"]["wall_s"],
            "trace.self_share": statistics.median(p["self_s"] / p["wall_s"] for p in traced),
            "cli.out_bytes": traced[-1]["out_bytes"],
        }
        record["per_layer"] = layers
        record["job_self_s"] = traced[-1]["job_self_s"]

    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    for msg in problems[:10]:
        print(f"gate: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {record['passes']} passes, "
          f"{failed}/{attempted} jobs failed")
    print(f"defect probe (untimed, not gated): {probe['failed']}/{probe['attempted']} failed")
    if args.trace:
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()} | RUN_LAYER_UNITS
        metrics = {name: {"value": None if v == spans.ABSENT else v, "unit": units[name]}
                   for name, v in record["per_layer"].items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in record["end_to_end"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
