"""Pieces every workload shares: the span recorder, the percentile
rules, child processes with their own peak RSS, and the per-run record
the report is computed from."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for temp dirs and span files, inside the checkout.
OUT = ROOT / "perfbench" / "out"

#: A tail is the highest percentile with at least this many samples
#: beyond it; fewer samples give no tail.
TAIL_BEYOND = 10

clock = time.perf_counter


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int] | None:
    """``(value, percentile, n)``: the sample with exactly
    :data:`TAIL_BEYOND` samples above it, and the share of samples at
    or below it, in percent.  ``None`` when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to the window)."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    request: str | None


class Spans:
    """In-memory spans around the benchmark's calls into each layer.

    Disabled, every method is one branch and records nothing.  Spans
    are written once, by :meth:`write`, when the run ends.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []

    def begin(self, name, start=None, parent=None, request=None):
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, clock() if start is None else start,
                    None, parent, request)
        self.spans.append(span)
        return span.id

    def finish(self, span_id, end=None, request=None) -> None:
        if span_id is None:
            return
        span = self.spans[span_id]
        span.end = clock() if end is None else end
        if request is not None:
            span.request = request

    def add(self, name, start, end, parent=None, request=None):
        span_id = self.begin(name, start, parent, request)
        self.finish(span_id, end)
        return span_id

    @contextmanager
    def span(self, name, parent=None, request=None):
        span_id = self.begin(name, parent=parent, request=request)
        try:
            yield span_id
        finally:
            self.finish(span_id)

    def durations(self, name) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name and s.end is not None]

    def children(self, span_id) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id and s.end is not None]

    def child_coverage(self, span_id) -> float:
        """Share of a span's duration its children cover."""
        span = self.spans[span_id]
        length = span.end - span.start
        kids = [(c.start, c.end) for c in self.children(span_id)]
        return covered(span.start, span.end, kids) / length if length > 0 else 1.0

    def self_time(self, span_id) -> float:
        """The span's duration minus the part its children cover."""
        span = self.spans[span_id]
        return (span.end - span.start) * (1.0 - self.child_coverage(span_id))

    def write(self, path: Path) -> None:
        if not self.enabled:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = [
            {**asdict(s), "self": self.self_time(s.id) if s.end is not None else None}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc))


@dataclass
class Op:
    """One timed operation: a CLI invocation, an audited fleet run, or
    one serve job measured from its due time."""

    kind: str
    latency_s: float
    ok: bool
    #: Whether spans were recorded for this operation (the traced run
    #: alternates, so trace overhead can be measured within one run).
    traced: bool = False
    reason: str = ""


@dataclass
class WorkloadRun:
    """Everything one workload measured; the report is computed from it."""

    name: str
    #: Operations that give ``p50_ms``, ``tail_ms`` and ``goodput_share``.
    ops: list[Op] = field(default_factory=list)
    #: Further checked operations (closed-loop jobs, drains, recomputes):
    #: counted as attempted and failed, not timed.
    checks: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    capacity_jobs_per_s: float = 0.0
    goodput_limit_s: float = float("inf")
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops + self.checks)

    def failures(self) -> list[Op]:
        return [op for op in self.ops + self.checks if not op.ok]


def end_to_end(run: WorkloadRun) -> dict:
    """The workload's end-to-end figures, plus the tail's percentile
    and sample count for the report."""
    done = [op.latency_s for op in run.ops if op.ok]
    tail_point = tail(done)
    within = sum(op.ok and op.latency_s <= run.goodput_limit_s for op in run.ops)
    attempted = max(run.attempted, 1)
    return {
        "setup_s": median(run.setup_s),
        "p50_ms": 1000.0 * median(done),
        "tail_ms": 1000.0 * tail_point[0] if tail_point else None,
        "tail_percentile": tail_point[1] if tail_point else None,
        "tail_n": len(done),
        "failed_share": run.failed / attempted,
        "ok_share": 1.0 - run.failed / attempted,
        "peak_rss_mb": run.peak_rss_mb,
        "goodput_share": within / max(len(run.ops), 1),
        "capacity_jobs_per_s": run.capacity_jobs_per_s,
    }


#: How a workload traces its operations: not at all, every one, or
#: every other one (so trace overhead is measured within one run).
TRACE_OFF, TRACE_ALL, TRACE_ALTERNATE = "off", "all", "alternate"


def traces(mode: str, index: int) -> bool:
    """Whether operation ``index`` records spans under ``mode``."""
    return mode == TRACE_ALL or (mode == TRACE_ALTERNATE and index % 2 == 0)


def trace_overhead(ops: list[Op]) -> float:
    """Traced minus untraced median latency, as a share of the
    untraced median (0 when either side has no samples)."""
    traced = [op.latency_s for op in ops if op.ok and op.traced]
    plain = [op.latency_s for op in ops if op.ok and not op.traced]
    if not traced or not plain:
        return 0.0
    return (median(traced) - median(plain)) / median(plain)


def repro_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    start: float
    end: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv, cwd, timeout: float = 120.0) -> ChildRun:
    """Run one child to completion; its own peak RSS comes from
    ``wait4``, so one child's figure is never another's."""
    start = clock()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=repro_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out, start, end, usage.ru_maxrss / 1024.0)
