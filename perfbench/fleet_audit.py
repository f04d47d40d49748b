"""``fleet_audit``: audited rack-scale runs, in process.

Each operation builds a small uniform model on a rack-scale fleet,
plans harmony-dp, runs it and audits it.  Plan, event loop, memory
manager and the audit do almost all the work; import, serve, the run
cache and process pools do none.

The fleet is 8 racks x 8 servers x 4 GPUs = 256 devices.  One audited
1024-device run takes ~6 s on a 2-core host, too long for a run to
gather the 11 samples a tail needs; at 256 devices the audit still
takes 40-45% as long as the simulation, so its superlinear cost shows.
"""

from __future__ import annotations

import gc
import random
import resource
import subprocess
import sys

from perfbench.common import (
    ROOT, SRC, TRACE_OFF, Op, Spans, WorkloadRun, clock, median, traces,
)

RACKS, SERVERS_PER_RACK, GPUS_PER_SERVER = 8, 8, 4
LAYERS = 4
MICROBATCHES = 2
MB = 1 << 20
#: Set-up is measured before every this many operations, so its median
#: spans the run as the latencies do.
SETUP_EVERY = 4
#: Several times an operation's ~1 s on a 2-core host.
GOODPUT_LIMIT_S = 5.0
CHILDREN = ("models.build", "hardware.topology", "schedulers.plan", "sim.run",
            "validate.audit")
MIN_COVERAGE = 0.95


def sizes(seed: int) -> tuple[int, int]:
    """Per-layer parameter and per-sample activation bytes: 10 MB and
    2 MB, each moved by up to 5% by the seed."""
    rng = random.Random(seed)
    return (round(10 * MB * rng.uniform(0.95, 1.05)),
            round(2 * MB * rng.uniform(0.95, 1.05)))


def build_model(seed: int):
    from repro.models import zoo

    params, acts = sizes(seed)
    return zoo.synthetic_uniform(num_layers=LAYERS, param_bytes_per_layer=params,
                                 activation_bytes=acts)


def build_topology():
    from repro.hardware import presets

    return presets.rack_cluster(RACKS, SERVERS_PER_RACK, GPUS_PER_SERVER)


def setup_once(seed: int) -> float:
    """Seconds to import ``repro`` and build the model and topology, in
    a process that has not imported it yet."""
    start = clock()
    import repro  # noqa: F401

    build_model(seed)
    build_topology()
    return clock() - start


def measure_setup(seed: int) -> float:
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from perfbench.fleet_audit import setup_once; "
            "print(repr(setup_once(int(sys.argv[3]))))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT), str(SRC), str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def audited_run(seed: int, spans: Spans, request: str) -> dict:
    """One operation; returns the simulated figures it produced."""
    from repro import BatchConfig, HarmonyConfig, HarmonySession, Parallelism, audit_run

    config = HarmonyConfig(parallelism=Parallelism.HARMONY_DP,
                           batch=BatchConfig(microbatch_size=1,
                                             num_microbatches=MICROBATCHES))
    with spans.span("fleet.op", request=request) as op:
        with spans.span("models.build", op, request):
            model = build_model(seed)
        with spans.span("hardware.topology", op, request):
            topology = build_topology()
        with spans.span("schedulers.plan", op, request):
            session = HarmonySession(model, topology, config)
            plan = session.plan()
        with spans.span("sim.run", op, request):
            result = session.run()
        with spans.span("validate.audit", op, request):
            report = audit_run(result, topology, plan)
    return {
        "makespan": result.makespan,
        "events": result.events_processed,
        "tasks": result.num_tasks,
        "trace_events": len(result.trace.events),
        "swap_bytes": result.swap_out_volume,
        "host_bytes": result.host_traffic,
        "p2p_bytes": result.stats.p2p_volume(),
        "link_busy_s": sum(result.link_busy.values()),
        "violations": len(report.violations),
        "passed": report.passed,
    }


def check(figures: dict, reference: dict) -> str:
    """Why an operation's output is wrong, or ``""``: the audit must
    pass and the simulation must repeat the warm-up's figures exactly."""
    if figures["violations"] or not figures["passed"]:
        return f"audit found {figures['violations']} violation(s)"
    for key in ("makespan", "events", "tasks", "swap_bytes"):
        if figures[key] != reference[key]:
            return f"{key} {figures[key]!r} differs from the warm-up's {reference[key]!r}"
    return ""


def run(seed: int, seconds: float, spans: Spans, trace: str) -> WorkloadRun:
    out = WorkloadRun("fleet_audit", goodput_limit_s=GOODPUT_LIMIT_S)
    reference = audited_run(seed, Spans(False), "warmup")
    reason = check(reference, reference)
    if reason:
        out.checks.append(Op("warmup", 0.0, False, reason=reason))
    start = clock()
    index = 0
    while clock() - start < seconds or len(out.ops) <= 10:
        if index % SETUP_EVERY == 0:
            out.setup_s.append(measure_setup(seed))
        gc.collect()  # the previous run's garbage is not this one's cost
        rec = spans if traces(trace, index) else Spans(False)
        t0 = clock()
        figures = audited_run(seed, rec, f"op{index}")
        latency = clock() - t0
        reason = check(figures, reference)
        out.ops.append(Op("fleet", latency, not reason, rec.enabled, reason))
        index += 1
    out.capacity_jobs_per_s = len(out.ops) / (clock() - start)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace != TRACE_OFF:
        coverage = min(spans.child_coverage(s.id) for s in spans.spans if s.name == "fleet.op")
        if coverage < MIN_COVERAGE:
            out.checks.append(Op("span_coverage", 0.0, False,
                                 reason=f"child spans cover {coverage:.1%} of an op"))
        layers = out.layers
        for name in CHILDREN:
            layers[f"{name}_ms"] = 1000.0 * median(spans.durations(name))
        run_s = median(spans.durations("sim.run"))
        layers["tasks.count"] = reference["tasks"]
        layers["sim.events"] = reference["events"]
        layers["sim.events_per_s"] = reference["events"] / run_s
        layers["sim.trace_events"] = reference["trace_events"]
        layers["sim.makespan_s"] = reference["makespan"]
        layers["memory.swap_bytes"] = reference["swap_bytes"]
        layers["memory.host_bytes"] = reference["host_bytes"]
        layers["memory.p2p_bytes"] = reference["p2p_bytes"]
        layers["transfer.link_busy_s"] = reference["link_busy_s"]
        layers["validate.violations"] = reference["violations"]
        layers["validate.audit_per_run"] = median(spans.durations("validate.audit")) / run_s
        layers["trace.fleet_child_coverage"] = coverage
    return out
