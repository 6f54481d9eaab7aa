"""Spans around the calls from one sinegap layer into the next.

The tracer replaces module attributes -- the names through which one
layer reaches another, such as `sinegap.counting.fredholm_det` or
`sinegap.fredholm.lu_factor` -- with thin timing wrappers, and puts the
originals back afterwards.  Nothing inside `src/` is edited.  Spans are
kept in memory and turned into per-layer numbers once the traced pass
is over.

A span records its name, start, end, thread, parent span and job id.  A
span opened on a worker thread whose own stack is empty takes as parent
the innermost span open on the thread that started the job, so the
converge/asym rows the CLI hands to its thread pool are children of the
`cli` span.  Self time is a span's duration minus the union of its
children's intervals, which is what makes overlapping pool-thread
children count once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

ABSENT = "absent"

def _note_kernel(args, result):
    # Two fills build the same kernel exactly when their node arrays are equal.
    return {"key": hash((args[0].tobytes(), args[1].tobytes())), "bytes": int(result.nbytes)}


def _note_lu(args, result):
    a = args[0]
    return {"n": int(a.shape[0]), "complex": bool(a.dtype.kind == "c")}


#: (module, attribute, span name, note).  A note turns (args, result) into
#: span attributes and runs after the span's end time is taken.
TARGETS = (
    ("sinegap.cli", "main", "cli", None),
    ("sinegap.cli", "joint_pmf", "counting", None),
    ("sinegap.counting", "numerical_cumulants", "counting", None),
    ("sinegap.cli", "fredholm_det", "fredholm.det", None),
    ("sinegap.counting", "fredholm_det", "fredholm.det", None),
    ("sinegap.fredholm", "composite_rule", "quadrature.rule", None),
    ("sinegap.fredholm", "sine_kernel", "fredholm.kernel_fill", _note_kernel),
    ("sinegap.fredholm", "lu_factor", "fredholm.lu", _note_lu),
    ("sinegap.cli", "positive_weights_expansion", "asymptotics", None),
    ("sinegap.cli", "zero_weight_expansion", "asymptotics", None),
    ("sinegap.cli", "counting_stats", "asymptotics", None),
    ("sinegap.cli", "conditional_stats", "asymptotics", None),
    ("sinegap.asymptotics", "barnes_pair", "specfun.barnes_pair", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    job: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped callables; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.job: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_job(self, job_id: int) -> None:
        """Mark the calling thread as the one that issues job `job_id`."""
        self.job = job_id
        self._origin_stack = self._stack()

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            origin = tracer._origin_stack
            if stack:
                parent = stack[-1]
            else:
                parent = origin[-1] if origin else None
            sid = next(tracer._ids)
            job = tracer.job
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, job,
                                         {"error": type(exc).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = note(args, result) if note is not None else {}
            tracer.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, job, attrs))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember the names that do not."""
        for module_name, attr, span_name, note in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, fn, note))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, covered_to = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, covered_to), min(b, hi)
        if b > a:
            total += b - a
            covered_to = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end) for s in spans}


#: Per-layer metric -> (unit, span names it is made from).  A metric is
#: reported as ABSENT, not as 0, when a wrapped name behind one of its
#: spans no longer exists.
LAYER_METRICS = {
    "fredholm.det_calls": ("count", ("fredholm.det",)),
    "fredholm.det_s": ("s", ("fredholm.det",)),
    "fredholm.self_s": ("s", ("fredholm.det", "fredholm.kernel_fill", "fredholm.lu", "quadrature.rule")),
    "fredholm.kernel_fill_s": ("s", ("fredholm.kernel_fill",)),
    "fredholm.kernel_fill_calls": ("count", ("fredholm.kernel_fill",)),
    "fredholm.lu_s": ("s", ("fredholm.lu",)),
    "fredholm.lu_calls": ("count", ("fredholm.lu",)),
    "fredholm.matrix_n_max": ("count", ("fredholm.lu",)),
    "fredholm.numerical_errors": ("count", ("fredholm.det",)),
    "fredholm.factorizations_per_det": ("ratio", ("fredholm.det", "fredholm.lu")),
    "fredholm.kernel_reuse_ratio": ("ratio", ("fredholm.kernel_fill",)),
    "fredholm.lu_flops_computed": ("flop", ("fredholm.lu",)),
    "fredholm.kernel_bytes_computed": ("byte", ("fredholm.kernel_fill",)),
    "counting.calls": ("count", ("counting",)),
    "counting.self_s": ("s", ("counting", "fredholm.det")),
    "counting.dets_per_call": ("ratio", ("counting", "fredholm.det")),
    "cli.calls": ("count", ("cli",)),
    "cli.self_s": ("s", ("cli", "fredholm.det", "counting", "asymptotics")),
    "asymptotics.calls": ("count", ("asymptotics",)),
    "asymptotics.self_s": ("s", ("asymptotics", "specfun.barnes_pair")),
    "specfun.barnes_pair_calls": ("count", ("specfun.barnes_pair",)),
    "specfun.barnes_pair_s": ("s", ("specfun.barnes_pair",)),
    "quadrature.rule_calls": ("count", ("quadrature.rule",)),
    "quadrature.rule_s": ("s", ("quadrature.rule",)),
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], absent: set[str]) -> dict[str, float | str]:
    """Per-layer metrics of one traced pass.  Counts and computed sizes
    come from array shapes seen at the wrappers; `*_flops_computed` and
    `*_bytes_computed` are derived from sizes, not measured."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_of(name):
        return sum(selfs[s.id] for s in by_name[name])

    dets = by_name["fredholm.det"]
    fills = by_name["fredholm.kernel_fill"]
    lus = by_name["fredholm.lu"]
    counting_ids = {s.id for s in by_name["counting"]}
    lu_flops = sum((2.0 / 3.0) * s.attrs["n"] ** 3 * (4 if s.attrs["complex"] else 1)
                   for s in lus if "n" in s.attrs)
    values = {
        "fredholm.det_calls": len(dets),
        "fredholm.det_s": busy("fredholm.det"),
        "fredholm.self_s": self_of("fredholm.det"),
        "fredholm.kernel_fill_s": busy("fredholm.kernel_fill"),
        "fredholm.kernel_fill_calls": len(fills),
        "fredholm.lu_s": busy("fredholm.lu"),
        "fredholm.lu_calls": len(lus),
        "fredholm.matrix_n_max": max((s.attrs["n"] for s in lus if "n" in s.attrs), default=0),
        "fredholm.numerical_errors": sum(s.attrs.get("error") == "NumericalError" for s in dets),
        "fredholm.factorizations_per_det": _ratio(len(lus), len(dets)),
        "fredholm.kernel_reuse_ratio": _ratio(len({s.attrs["key"] for s in fills if "key" in s.attrs}),
                                              len(fills)),
        "fredholm.lu_flops_computed": lu_flops,
        "fredholm.kernel_bytes_computed": sum(s.attrs.get("bytes", 0) for s in fills),
        "counting.calls": len(counting_ids),
        "counting.self_s": self_of("counting"),
        "counting.dets_per_call": _ratio(sum(s.parent in counting_ids for s in dets), len(counting_ids)),
        "cli.calls": len(by_name["cli"]),
        "cli.self_s": self_of("cli"),
        "asymptotics.calls": len(by_name["asymptotics"]),
        "asymptotics.self_s": self_of("asymptotics"),
        "specfun.barnes_pair_calls": len(by_name["specfun.barnes_pair"]),
        "specfun.barnes_pair_s": busy("specfun.barnes_pair"),
        "quadrature.rule_calls": len(by_name["quadrature.rule"]),
        "quadrature.rule_s": busy("quadrature.rule"),
    }
    missing = {span for module, attr, span, _ in TARGETS if f"{module}.{attr}" in absent}
    for metric, (_, span_names) in LAYER_METRICS.items():
        if missing.intersection(span_names):
            values[metric] = ABSENT
    return values


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name (one name per layer boundary)."""
    selfs = self_times(spans)
    out = dict.fromkeys((name for _, _, name, _ in TARGETS), 0.0)
    for s in spans:
        out[s.name] += selfs[s.id]
    return out
