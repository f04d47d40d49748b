"""``cli_cold``: one closed-loop user runs a fixed cycle of fresh
``python -m repro`` processes, one at a time.

Interpreter start, package import, argparse, pool spawn and the on-disk
blob stores do most of the work; the event loop and the audit do
little.  The run cache and the checkpoint store each get a write pass
and a read pass per cycle, so a change that speeds one pass at the
other's cost shows.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
import sys

from perfbench.common import (
    OUT, TRACE_OFF, Op, Spans, WorkloadRun, clock, median, run_child, traces,
)

#: The cycle.  ``{cache}`` and ``{ckpt}`` are fresh directories per
#: cycle, so the first of each pair writes and the second reads.
COMMANDS = {
    "compare_write": ["compare", "bert-large", "--gpus", "4", "--cache-dir", "{cache}"],
    "compare_read": ["compare", "bert-large", "--gpus", "4", "--cache-dir", "{cache}"],
    "tune_write": ["tune", "bert-large", "--profile-iterations", "4",
                   "--checkpoint-dir", "{ckpt}"],
    "tune_read": ["tune", "bert-large", "--profile-iterations", "4",
                  "--checkpoint-dir", "{ckpt}"],
    "audit": ["audit", "lenet", "--gpus", "2", "--microbatches", "2"],
    "timeline": ["timeline", "lenet", "--gpus", "2"],
    "figures": ["figures", "--jobs", "2"],
    "faults": ["faults", "--gpus", "4", "--iterations", "4", "--mttf", "4", "2.5"],
}
#: Units the seed may reorder; a write pass always precedes its read.
UNITS = [("compare_write", "compare_read"), ("tune_write", "tune_read"),
         ("audit",), ("timeline",), ("figures",), ("faults",)]
#: Set-up is this command, run before the first cycle and again halfway
#: through each cycle and before each later one, so its median spans the
#: run as the latencies do.
WARMUP = COMMANDS["audit"]
PROBES = {"interp": ["-c", "pass"], "import": ["-c", "import repro"]}
#: Slower than any command of the cycle on a 2-core host.
GOODPUT_LIMIT_S = 5.0

CACHE_LINE = re.compile(r"run cache: (\d+) hits / (\d+) misses")
REUSE_LINE = re.compile(
    r"prefix reuse: (\d+) restores / (\d+) cold probes .*?, (\d+) iteration\(s\) skipped"
)


def cycle_order(seed: int) -> list[str]:
    """The command order every cycle of a run uses."""
    units = list(UNITS)
    random.Random(seed).shuffle(units)
    return [name for unit in units for name in unit]


def digest(stdout: str, tmp: str) -> str:
    return hashlib.sha256(stdout.replace(tmp, "<TMP>").encode()).hexdigest()


def check_command(name, returncode, stdout, tmp, first_digests) -> tuple[str, dict]:
    """``(reason, counters)``; an empty reason means the output is
    right.  Each command's output must equal (modulo its temp dir) its
    first invocation in the run, and each read pass must really read."""
    if returncode != 0:
        return f"exit code {returncode}", {}
    want = first_digests.setdefault(name, digest(stdout, tmp))
    if digest(stdout, tmp) != want:
        return "stdout differs from the first invocation", {}
    counters: dict = {}
    if name.startswith("compare"):
        match = CACHE_LINE.search(stdout)
        if not match:
            return "no run-cache line", {}
        hits, misses = int(match[1]), int(match[2])
        counters = {"disk_hits": hits, "disk_misses": misses}
        if name == "compare_read" and (hits == 0 or misses):
            return f"read pass missed the disk cache ({hits} hits / {misses} misses)", counters
    if name.startswith("tune"):
        match = REUSE_LINE.search(stdout)
        if not match:
            return "no prefix-reuse line", {}
        counters = {"restores": int(match[1]), "saved_iterations": int(match[3])}
        if name == "tune_read" and not counters["restores"]:
            return "read pass restored no checkpoint", counters
    return "", counters


def warm_up(python: str, cwd, out: WorkloadRun) -> None:
    """One untimed warm-up invocation, recorded as a set-up sample."""
    warm = run_child([python, "-m", "repro", *WARMUP], cwd=cwd)
    out.setup_s.append(warm.wall_s)
    out.checks.append(Op("warmup", warm.wall_s, warm.returncode == 0,
                         reason=f"exit code {warm.returncode}"))


def run(seed: int, seconds: float, spans: Spans, trace: str) -> WorkloadRun:
    out = WorkloadRun("cli_cold", goodput_limit_s=GOODPUT_LIMIT_S)
    work = OUT / f"cli_cold-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    python = sys.executable
    try:
        warm_up(python, work, out)
        order = cycle_order(seed)
        first: dict = {}
        counts: dict = {}
        start = clock()
        cycle = 0
        while clock() - start < seconds or len(out.ops) <= 10:
            tmp = work / f"cycle{cycle}"
            (tmp / "cache").mkdir(parents=True)
            if cycle:
                warm_up(python, tmp, out)
            rec = spans if traces(trace, cycle) else Spans(False)
            request = f"cycle{cycle}"
            cycle_span = rec.begin("cli.cycle", request=request)
            for probe, argv in PROBES.items():
                child = run_child([python, *argv], cwd=tmp)
                rec.add(f"cli.{probe}", child.start, child.end, cycle_span, request)
                out.checks.append(Op(probe, child.wall_s, child.returncode == 0,
                                     reason=f"exit code {child.returncode}"))
            cycle_counts: dict = {}
            for index, name in enumerate(order):
                if index == len(order) // 2:
                    warm_up(python, tmp, out)
                argv = [a.format(cache=tmp / "cache", ckpt=tmp / "ckpt")
                        for a in COMMANDS[name]]
                child = run_child([python, "-m", "repro", *argv], cwd=tmp)
                reason, counters = check_command(
                    name, child.returncode, child.stdout, str(tmp), first)
                out.ops.append(Op(name, child.wall_s, not reason, rec.enabled, reason))
                out.peak_rss_mb = max(out.peak_rss_mb, child.maxrss_mb)
                rec.add(f"cli.{name}", child.start, child.end, cycle_span, request)
                for key, value in counters.items():
                    cycle_counts[key] = cycle_counts.get(key, 0) + value
            rec.finish(cycle_span)
            if rec.enabled:
                for key, value in cycle_counts.items():
                    counts.setdefault(key, []).append(value)
            shutil.rmtree(tmp, ignore_errors=True)
            cycle += 1
        out.capacity_jobs_per_s = len(out.ops) / (clock() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace != TRACE_OFF:
        for name in (*PROBES, *COMMANDS):
            out.layers[f"cli.{name}_ms"] = 1000.0 * median(spans.durations(f"cli.{name}"))
        for layer, key in (("perf.cache.disk_hits", "disk_hits"),
                           ("perf.cache.disk_misses", "disk_misses"),
                           ("perf.incremental.restores", "restores"),
                           ("perf.incremental.saved_iterations", "saved_iterations")):
            out.layers[layer] = median(counts.get(key, []))
    return out
