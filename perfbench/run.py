"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 50 --trace 0

Run from the repository root.  ``--trace 0`` measures the named
workload untraced and prints the end-to-end metrics.  ``--trace 1``
makes the traced run: every workload for a third of ``--seconds``,
spans around each call into a layer, the per-layer metrics, and the
spans written to ``perfbench/out/``.  The named workload alternates
traced and untraced operations so the trace overhead is measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench import cli_cold, fleet_audit, serve_mix  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT, SRC, TRACE_ALL, TRACE_ALTERNATE, TRACE_OFF, Spans, WorkloadRun, end_to_end,
    trace_overhead,
)

WORKLOADS = {"cli_cold": cli_cold, "fleet_audit": fleet_audit, "serve_mix": serve_mix}

#: The workloads BENCHMARK.json lists.  ``serve_mix`` runs in the traced
#: run and on its own, but its figures are not gated: see the README.
LISTED = ("cli_cold", "fleet_audit")

#: (name, unit) of every end-to-end metric; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s"),
    ("tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Printed beside the end-to-end metrics but not gated.  The median and
#: capacity drift with a shared host's speed past the widest bound
#: BENCHMARK.json may set; ``failed_share`` is 0 on a good run, which no
#: listed metric may be (``ok_share`` is its complement); goodput is the
#: open-loop serve figure.
REPORTED = (
    ("p50_ms", "ms"),
    ("failed_share", "ratio"),
    ("goodput_share", "ratio"),
    ("capacity_jobs_per_s", "jobs/s"),
)

#: (name, unit) of every per-layer metric, grouped by the workload
#: that measures it.
PER_LAYER = (
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"),
    *((f"cli.{name}_ms", "ms") for name in cli_cold.COMMANDS),
    ("perf.cache.disk_hits", "count"), ("perf.cache.disk_misses", "count"),
    ("perf.incremental.restores", "count"), ("perf.incremental.saved_iterations", "count"),
    ("models.build_ms", "ms"), ("hardware.topology_ms", "ms"),
    ("schedulers.plan_ms", "ms"), ("tasks.count", "count"),
    ("sim.run_ms", "ms"), ("sim.events", "count"), ("sim.events_per_s", "1/s"),
    ("sim.trace_events", "count"), ("sim.makespan_s", "sim_s"),
    ("memory.swap_bytes", "bytes"), ("memory.host_bytes", "bytes"),
    ("memory.p2p_bytes", "bytes"), ("transfer.link_busy_s", "sim_s"),
    ("validate.audit_ms", "ms"), ("validate.violations", "count"),
    ("validate.audit_per_run", "ratio"), ("trace.fleet_child_coverage", "ratio"),
    ("serve.admit_ms", "ms"), ("serve.poll_ms", "ms"),
    ("serve.hit_ms", "ms"), ("serve.fresh_ms", "ms"),
    *((f"serve.{kind}_ms", "ms") for kind in serve_mix.BLOCK),
    ("serve.queue_depth_max", "count"), ("serve.rejections", "count"),
    ("serve.drain_ms", "ms"),
    ("perf.cache.hit_rate", "ratio"), ("perf.cache.hits", "count"),
    ("perf.cache.misses", "count"),
    ("supervisor.executed", "count"), ("supervisor.retries", "count"),
    ("supervisor.respawns", "count"), ("supervisor.failures", "count"),
    ("loadgen.late_p50_ms", "ms"), ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build() -> None:
    """Byte-compile the package so the first timed process of a fresh
    checkout does not pay for it."""
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1):
        raise SystemExit("perfbench: byte-compiling src/repro failed")


def report_untraced(run: WorkloadRun) -> dict:
    figures = end_to_end(run)
    print(f"workload {run.name}: {run.attempted} attempted, {run.failed} failed")
    for name, unit in END_TO_END + REPORTED:
        print(f"  {name:<22} {figures[name]!r:>24} {unit}")
    print(f"  tail is p{figures['tail_percentile']:.1f} of n={figures['tail_n']}"
          if figures["tail_ms"] is not None else f"  no tail: n={figures['tail_n']}")
    return {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}


def report_traced(runs: list[WorkloadRun], overhead: float) -> dict:
    layers: dict = {"trace.overhead_share": overhead}
    for run in runs:
        layers.update(run.layers)
        print(f"workload {run.name} (traced): {run.attempted} attempted, {run.failed} failed")
    units = dict(PER_LAYER)
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {layers[name]!r:>24} {unit}")
    return {name: {"value": layers[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build()
    if args.trace:
        spans = Spans(True)
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        runs = [
            WORKLOADS[name].run(args.seed, args.seconds / 3, spans,
                                TRACE_ALTERNATE if name == args.workload else TRACE_ALL)
            for name in order
        ]
        spans.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        metrics = report_traced(runs, trace_overhead(runs[0].ops))
    else:
        runs = [WORKLOADS[args.workload].run(args.seed, args.seconds, Spans(False), TRACE_OFF)]
        metrics = report_untraced(runs[0])
    for run in runs:
        for op in run.failures():
            print(f"  FAILED {run.name} {op.kind}: {op.reason}")
    if any(m["value"] is None for m in metrics.values()):
        print("perfbench: too few successful operations for a tail", file=sys.stderr)
        return 1
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
